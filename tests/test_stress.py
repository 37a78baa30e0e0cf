"""Heavier end-to-end stress cases (larger analogues, combined features)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.runtime import A100_PLATFORM, simulate_pangulu
from repro.sparse import generate


@pytest.mark.parametrize("name", ["ASIC_680k", "nlpkkt80"])
def test_larger_scale_pipeline(name):
    """Full pipeline at scale 0.3 (roughly 800 unknowns): solve, verify,
    refactorize, estimate — the combined API surface under one matrix."""
    a = generate(name, scale=0.3, seed=2)
    s = PanguLU(a, SolverOptions(n_workers=2))
    b = np.sin(np.arange(a.nrows) * 0.1)
    x = s.solve(b)
    assert s.factorize().residual_norm(x, b) < 1e-9

    # fixed-pattern refactorisation with perturbed values
    a2 = a.copy()
    a2.data = a.data * 1.01
    s.factorize().refactorize(a2)
    x2 = s.solve(b)
    assert s.factorize().residual_norm(x2, b) < 1e-9

    # simulation on the factorised structure still works and scales sanely
    sim1 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 1)
    sim16 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 16)
    assert sim16.result.makespan <= sim1.result.makespan * 1.5


def test_many_solves_one_factorisation():
    a = generate("G3_circuit", scale=0.3)
    s = PanguLU(a)
    rng = np.random.default_rng(0)
    fact = s.factorize()
    numeric_time = s.phase_seconds["numeric"]
    for _ in range(10):
        b = rng.standard_normal(a.nrows)
        x = s.solve(b)
        assert s.factorize().residual_norm(x, b) < 1e-9
    # solves amortise: each solve is much cheaper than the factorisation
    # (phase_seconds["solve"] accumulates across calls; last_solve_seconds
    # is the most recent call alone)
    assert fact.solve_count == 10
    assert fact.last_solve_seconds < numeric_time
    assert s.phase_seconds["solve"] / fact.solve_count < numeric_time


def test_wide_multi_rhs():
    a = generate("CoupCons3D", scale=0.15)
    s = PanguLU(a)
    B = np.random.default_rng(1).standard_normal((a.nrows, 16))
    X = s.solve(B)
    d = a.to_dense()
    assert np.abs(d @ X - B).max() < 1e-7

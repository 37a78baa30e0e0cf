"""Tests for the fixed-pattern re-factorisation API (circuit workload)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU
from repro.sparse import generate, random_sparse


class TestRefactorize:
    def test_same_pattern_new_values(self):
        a = random_sparse(80, 0.06, seed=1)
        s = PanguLU(a)
        b = np.ones(80)
        s.solve(b)
        a2 = a.copy()
        a2.data = a.data * 1.7
        s.factorize().refactorize(a2)
        x = s.solve(b)
        assert s.factorize().residual_norm(x, b) < 1e-9
        # the residual is measured against the *new* matrix
        np.testing.assert_allclose(a2.matvec(x), b, atol=1e-8)

    def test_repeated_newton_like_updates(self):
        a = generate("ASIC_680k", scale=0.15)
        s = PanguLU(a)
        b = np.ones(a.nrows)
        s.solve(b)
        rng = np.random.default_rng(3)
        for _ in range(3):
            a_it = a.copy()
            a_it.data = a.data * (1 + 0.1 * rng.standard_normal(a.nnz))
            s.factorize().refactorize(a_it)
            x = s.solve(b)
            assert s.factorize().residual_norm(x, b) < 1e-8

    def test_preserves_symbolic_objects(self):
        a = random_sparse(60, 0.07, seed=2)
        s = PanguLU(a)
        s.factorize()
        dag_before = s.dag
        sym_before = s.symbolic
        a2 = a.copy()
        a2.data = a.data + 0.01
        s.factorize().refactorize(a2)
        assert s.dag is dag_before
        assert s.symbolic is sym_before

    def test_rejects_different_pattern(self):
        a = random_sparse(40, 0.08, seed=3)
        other = random_sparse(40, 0.08, seed=4)
        s = PanguLU(a)
        s.factorize()
        with pytest.raises(ValueError, match="pattern"):
            s.factorize().refactorize(other)

    def test_rejects_different_shape(self):
        a = random_sparse(40, 0.08, seed=5)
        other = random_sparse(41, 0.08, seed=5)
        s = PanguLU(a)
        with pytest.raises(ValueError, match="shape"):
            s.factorize().refactorize(other)

    def test_refactorize_before_factorize(self):
        # factorize on a fresh solver runs the earlier phases implicitly
        a = random_sparse(50, 0.08, seed=6)
        a2 = a.copy()
        a2.data = a.data * 2.0
        s = PanguLU(a)
        s.factorize().refactorize(a2)
        x = s.solve(np.ones(50))
        np.testing.assert_allclose(a2.matvec(x), 1.0, atol=1e-8)

    def test_lu_product_error_tracks_new_values(self):
        a = random_sparse(50, 0.08, seed=7)
        s = PanguLU(a)
        s.factorize()
        a2 = a.copy()
        a2.data = a.data * -0.5
        s.factorize().refactorize(a2)
        assert s.factorize().lu_product_error() < 1e-10


def _new_values(a, seed):
    a2 = a.copy()
    a2.data = a.data * np.random.default_rng(seed).uniform(0.5, 1.5, a.nnz)
    return a2


class TestOneOwner:
    """After ``refactorize`` the handle is the one source of truth: every
    diagnostic describes the new matrix, and the builder sees the same
    blocks and stats."""

    def test_diagnostics_follow_refactorize(self):
        a = random_sparse(80, 0.06, seed=1)
        a2 = _new_values(a, seed=2)
        solver = PanguLU(a)
        fact = solver.factorize()
        fact.refactorize(a2)
        b = np.random.default_rng(3).standard_normal(80)
        x = fact.solve(b)
        assert fact.residual_norm(x, b) < 1e-12
        assert fact.lu_product_error() < 1e-10
        sign, logdet = fact.slogdet()
        sref, lref = np.linalg.slogdet(a2.to_dense())
        assert sign == sref
        assert logdet == pytest.approx(lref, rel=1e-9)
        assert solver.numeric_stats is fact.stats
        assert solver.blocks is solver.factorize().blocks

    def test_refactorize_after_factorize_runs_the_engine_twice(self, monkeypatch):
        import repro.runtime.engines as engines

        calls = []
        get_engine = engines.get_engine

        def counting(name):
            engine = get_engine(name)

            def run(*args, **kwargs):
                calls.append(name)
                return engine(*args, **kwargs)

            return run

        monkeypatch.setattr(engines, "get_engine", counting)
        a = random_sparse(50, 0.08, seed=6)
        PanguLU(a).factorize().refactorize(_new_values(a, seed=7))
        assert len(calls) == 2

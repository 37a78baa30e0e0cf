"""Tests for iterative refinement behaviour and its configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.sparse import CSCMatrix, random_sparse


class TestRefinementSteps:
    def test_zero_steps_still_accurate_on_easy_matrix(self):
        a = random_sparse(50, 0.08, seed=1)
        s = PanguLU(a, SolverOptions(refine_steps=0))
        b = np.ones(50)
        x = s.solve(b)
        assert s.factorize().residual_norm(x, b) < 1e-12

    def test_refinement_reduces_residual_on_hard_matrix(self):
        a = random_sparse(60, 0.08, seed=9)
        bad = a.scale(np.logspace(-5, 5, 60), None)
        b = np.ones(60)
        res = {}
        for steps in (0, 2):
            s = PanguLU(bad, SolverOptions(refine_steps=steps))
            x = s.solve(b)
            res[steps] = s.factorize().residual_norm(x, b)
        assert res[2] <= res[0] * 1.0001  # refinement never hurts
        # and on this conditioning it genuinely helps
        assert res[2] < res[0] or res[0] < 1e-12

    def test_negative_steps_treated_as_zero(self):
        a = random_sparse(30, 0.1, seed=2)
        s = PanguLU(a, SolverOptions(refine_steps=-3))
        x = s.solve(np.ones(30))
        assert s.factorize().residual_norm(x, np.ones(30)) < 1e-10

    def test_refinement_applies_to_multi_rhs(self):
        a = random_sparse(40, 0.08, seed=3)
        bad = a.scale(np.logspace(-3, 3, 40), None)
        s = PanguLU(bad, SolverOptions(refine_steps=2))
        B = np.eye(40)[:, :3]
        X = s.solve(B)
        d = bad.to_dense()
        # componentwise residual at the refinement floor
        floor = np.finfo(float).eps * np.abs(d).sum(axis=1).max() * (
            np.abs(X).max() + 1.0
        )
        assert np.abs(d @ X - B).max() < 1e4 * floor

    def test_sabotaged_factors_raise_not_loop(self):
        # pathological: a zero U diagonal in the factors must raise the
        # triangular solve's explicit error, not spin in refinement
        a = random_sparse(20, 0.15, seed=4)
        s = PanguLU(a, SolverOptions(refine_steps=5))
        s.factorize()
        diag = s.blocks.block(0, 0)
        pos = int(np.searchsorted(diag.indices[diag.col_slice(0)], 0))
        diag.data[pos] = 0.0
        with pytest.raises(ZeroDivisionError, match="U diagonal"):
            s.solve(np.ones(20))


class TestRefinementConvergence:
    def test_converges_geometrically(self):
        """Each refinement sweep should multiply the residual by roughly
        the same contraction factor until the FP floor."""
        a = random_sparse(50, 0.08, seed=11)
        bad = a.scale(np.logspace(-4, 4, 50), None)
        fact = PanguLU(bad, SolverOptions(refine_steps=0)).factorize()
        b = np.ones(50)
        x = fact.apply(b)
        residuals = [np.linalg.norm(b - bad.matvec(x))]
        for _ in range(3):
            r = b - bad.matvec(x)
            x = x + fact.apply(r)
            residuals.append(np.linalg.norm(b - bad.matvec(x)))
        # non-increasing until the floor
        for r0, r1 in zip(residuals, residuals[1:]):
            assert r1 <= r0 * 1.5 + 1e-12

"""Tests for the one refinement loop (:func:`repro.core.solver.refine`)
behind every solve."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Factorization, PanguLU
from repro.sparse import random_sparse


def _counting_apply(monkeypatch) -> list[int]:
    """Count :meth:`Factorization.apply` calls (one per factor pass)."""
    calls = [0]
    real = Factorization.apply

    def counted(self, b, **kw):
        calls[0] += 1
        return real(self, b, **kw)

    monkeypatch.setattr(Factorization, "apply", counted)
    return calls


class TestRefinementSteps:
    def test_converged_solve_is_one_apply(self, monkeypatch):
        """A float64 first pass that meets ``refine_tol`` is returned
        bit-for-bit: one factor application, no sweep."""
        a = random_sparse(50, 0.08, seed=1)
        fact = PanguLU(a).factorize()
        b = np.ones(50)
        x0 = fact.apply(b)
        calls = _counting_apply(monkeypatch)
        x = fact.solve(b)
        assert calls[0] == 1
        np.testing.assert_array_equal(x, x0)
        assert fact.residual_norm(x, b) < 1e-12

    def test_refinement_reduces_residual_on_hard_matrix(self, monkeypatch):
        """Where the first pass misses ``refine_tol`` the solve is plain
        LU-IR — the same sweeps written out by hand, bit for bit — and
        it never ends above the unrefined residual; exact factors return
        the stalled iterate instead of raising (rows scaled over ten
        decades: the residual stalls near 1e-8 while the normwise
        backward error stays at the rounding floor)."""
        bad = random_sparse(60, 0.08, seed=9).scale(np.logspace(-5, 5, 60), None)
        b = np.ones(60)
        fact = PanguLU(bad).factorize()
        x0 = fact.apply(b)
        calls = _counting_apply(monkeypatch)
        x = fact.solve(b)
        passes = calls[0]
        assert passes > 1
        ref = x0
        for _ in range(passes - 1):
            ref = ref + fact.apply(b - bad.matvec(ref))
        np.testing.assert_array_equal(x, ref)
        assert fact.residual_norm(x, b) <= fact.residual_norm(x0, b)

    def test_refinement_applies_to_multi_rhs(self):
        a = random_sparse(40, 0.08, seed=3)
        bad = a.scale(np.logspace(-3, 3, 40), None)
        s = PanguLU(bad)
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
        s = PanguLU(a)
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
        fact = PanguLU(bad).factorize()
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

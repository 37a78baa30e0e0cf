"""Tests for the extended solver APIs: multi-RHS, transpose solves,
log-determinant and condition estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.sparse import generate, random_sparse


class TestMultiRHS:
    def test_matches_column_by_column(self):
        a = random_sparse(60, 0.07, seed=1)
        s = PanguLU(a)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((60, 5))
        X = s.solve(B)
        for c in range(5):
            x_single = s.solve(B[:, c])
            np.testing.assert_allclose(X[:, c], x_single, atol=1e-10)

    def test_residual_per_column(self):
        a = generate("CoupCons3D", scale=0.1)
        s = PanguLU(a)
        B = np.eye(a.nrows)[:, :3]
        X = s.solve(B)
        d = a.to_dense()
        assert np.abs(d @ X - B).max() < 1e-8

    def test_rejects_3d(self):
        a = random_sparse(20, 0.1, seed=2)
        with pytest.raises(ValueError, match="shape"):
            PanguLU(a).solve(np.zeros((20, 2, 2)))

    def test_matmat_matches_matvec(self):
        a = random_sparse(30, 0.1, seed=3)
        X = np.random.default_rng(1).standard_normal((30, 4))
        Y = a.matmat(X)
        for c in range(4):
            np.testing.assert_allclose(Y[:, c], a.matvec(X[:, c]))


class TestTransposeSolve:
    @pytest.mark.parametrize("seed", range(3))
    def test_residual(self, seed):
        a = random_sparse(70, 0.07, seed=seed)
        s = PanguLU(a)
        b = np.random.default_rng(seed).standard_normal(70)
        x = s.factorize().solve_transposed(b)
        d = a.to_dense()
        assert np.abs(d.T @ x - b).max() < 1e-8

    def test_consistent_with_transposed_matrix(self):
        a = random_sparse(50, 0.08, seed=9)
        b = np.random.default_rng(2).standard_normal(50)
        x1 = PanguLU(a).factorize().solve_transposed(b)
        x2 = PanguLU(a.transpose()).solve(b)
        np.testing.assert_allclose(x1, x2, atol=1e-8)

    def test_unsymmetric_matrix(self):
        a = generate("cage12", scale=0.12)
        s = PanguLU(a)
        b = np.ones(a.nrows)
        x = s.factorize().solve_transposed(b)
        d = a.to_dense()
        assert np.abs(d.T @ x - b).max() < 1e-8


class TestSlogdet:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy(self, seed):
        a = random_sparse(50, 0.08, seed=seed)
        sign, logdet = PanguLU(a).factorize().slogdet()
        sref, lref = np.linalg.slogdet(a.to_dense())
        assert sign == sref
        assert logdet == pytest.approx(lref, rel=1e-9)

    def test_negative_determinant(self):
        # flip the sign of one row: determinant sign flips
        a = random_sparse(30, 0.1, seed=5)
        flipped = a.copy()
        rows, _ = flipped.rows_cols()
        flipped.data[rows == 0] *= -1.0
        s1, _ = PanguLU(a).factorize().slogdet()
        s2, _ = PanguLU(flipped).factorize().slogdet()
        assert s1 == -s2

    def test_scaled_matrix(self):
        a = random_sparse(40, 0.08, seed=6)
        scaled = a.scale(np.full(40, 3.0), None)
        _, l1 = PanguLU(a).factorize().slogdet()
        _, l2 = PanguLU(scaled).factorize().slogdet()
        assert l2 == pytest.approx(l1 + 40 * np.log(3.0), rel=1e-9)


class TestCondest:
    def test_within_factor_of_truth(self):
        a = random_sparse(60, 0.08, seed=7)
        est = PanguLU(a).factorize().condest_1norm()
        d = a.to_dense()
        true = np.linalg.norm(d, 1) * np.linalg.norm(np.linalg.inv(d), 1)
        assert est <= true * 1.001          # Hager gives a lower bound
        assert est >= true / 20             # …that is rarely far off

    def test_identity_conditioning(self):
        from repro.sparse import CSCMatrix

        est = PanguLU(CSCMatrix.eye(12)).factorize().condest_1norm()
        assert est == pytest.approx(1.0, rel=1e-12)

    def test_detects_bad_conditioning(self):
        a = random_sparse(40, 0.1, seed=8)
        bad = a.scale(np.logspace(0, 8, 40), None)
        k_good = PanguLU(a).factorize().condest_1norm()
        k_bad = PanguLU(bad).factorize().condest_1norm()
        assert k_bad > 100 * k_good


class TestPivotDiagnostics:
    def test_no_replacements_on_healthy_matrix(self):
        a = random_sparse(60, 0.08, seed=10)
        s = PanguLU(a)
        s.factorize()
        assert s.numeric_stats.pivots_replaced == 0

    def test_replacements_counted_on_singular_block(self):
        import numpy as np

        from repro.core import block_partition, build_dag, factorize
        from repro.core.numeric import NumericOptions
        from repro.symbolic import symbolic_symmetric

        a = random_sparse(40, 0.08, seed=11)
        f = symbolic_symmetric(a).filled
        bm = block_partition(f, 10)
        dag = build_dag(bm)
        # zero the first diagonal block's values: every pivot needs rescue
        diag = bm.block(0, 0)
        diag.data[...] = 0.0
        stats = factorize(bm, dag, NumericOptions(pivot_floor=1e-10))
        assert stats.pivots_replaced >= diag.ncols


class TestEstimate:
    def test_reports_structure_and_predictions(self):
        a = generate("ldoor", scale=0.12)
        s = PanguLU(a)
        est = s.estimate(proc_counts=(1, 4))
        assert est["n"] == a.nrows
        assert est["nnz_lu"] >= a.nnz
        assert est["flops"] > 0
        assert est["factor_bytes"] > 0
        assert set(est["predicted"]) == {
            ("A100", 1), ("A100", 4), ("MI50", 1), ("MI50", 4),
        }
        for v in est["predicted"].values():
            assert v["seconds"] > 0 and v["gflops"] > 0
            assert 0.0 <= v["sync_ratio"] <= 1.0

    def test_estimate_does_not_factorize(self):
        a = random_sparse(40, 0.1, seed=12)
        s = PanguLU(a)
        s.estimate(proc_counts=(1,))
        assert s.numeric_stats is None
        # numeric still works afterwards
        x = s.solve(np.ones(40))
        assert s.factorize().residual_norm(x, np.ones(40)) < 1e-9

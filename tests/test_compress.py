"""Tests of the compressed low-rank block family (blockrep + kernels +
solver integration).

Covers the representation layer's truncation guarantees (exact-rank
recovery and the tolerance bound, in both value dtypes), the LR SSSSM
kernels against dense references, the profitability gates, the
``compress_tol=0`` bit-identity guarantee, the end-to-end compressed
solve on a filled low-rank regime across engines (wire traffic
included), and the refinement-stall escalation path that decompresses
and refactorises exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.numeric import NumericOptions
from repro.core.solver import PanguLU, SolverOptions
from repro.kernels import Workspace
from repro.kernels.compress import (
    CompressPolicy,
    lr_ssssm_flops,
    ssssm_lr_v1,
    ssssm_lr_v2,
    try_compress,
)
from repro.kernels.selector import TaskFeatures
from repro.sparse import CSCMatrix
from repro.sparse.blockrep import (
    CompressedBlock,
    lr_profit_cap,
    randomized_svd,
    truncated_svd,
)


def _low_rank_dense(m, n, r, dtype, seed=0, decay=None):
    """An ``m×n`` matrix of *exact* rank ``r`` (optionally with a decaying
    spectrum appended below the tolerance floor)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, r)).astype(dtype)
    v = rng.standard_normal((n, r)).astype(dtype)
    a = u @ v.T
    if decay is not None:
        noise = rng.standard_normal((m, n)).astype(dtype)
        a = a + decay * noise / np.linalg.norm(noise, 2) * np.linalg.norm(a, 2)
    return np.ascontiguousarray(a)


def _coupled_matrix(n=256, bs=32, rank=2, scale=0.05, diag=6.0, seed=11):
    """Dense-ish matrix with rank-``rank`` off-diagonal block coupling —
    the "filled regime" where panel blocks are genuinely low-rank."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((n, rank))
    a = scale * (u @ v.T)
    for k in range(n // bs):
        s = slice(k * bs, (k + 1) * bs)
        a[s, s] = rng.standard_normal((bs, bs)) + diag * np.eye(bs)
    aspc = sp.csc_matrix(a)
    am = CSCMatrix(
        (n, n), aspc.indptr.astype(np.int64),
        aspc.indices.astype(np.int64), aspc.data,
    )
    return a, am


def _factorize(am, **kw):
    s = PanguLU(am, SolverOptions(**kw))
    s.preprocess()
    return s.factorize()


# ----------------------------------------------------------------------
# truncation property tests (satellite: exact rank + tolerance bound,
# float32 and float64)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [1, 3, 6])
@pytest.mark.parametrize("factory", [truncated_svd, randomized_svd])
class TestTruncationProperties:
    def test_recovers_exact_rank(self, dtype, r, factory):
        tol = 1e-4 if dtype == np.float32 else 1e-10
        dense = _low_rank_dense(48, 40, r, dtype, seed=r)
        out = factory(dense, tol, max_rank=16)
        assert out is not None
        u, v = out
        assert u.shape == (48, r) and v.shape == (40, r)
        assert u.dtype == dtype and v.dtype == dtype
        err = np.linalg.norm(dense - u @ v.T, 2)
        assert err <= tol * np.linalg.norm(dense, 2)

    def test_honours_tolerance_bound(self, dtype, r, factory):
        """With a sub-tolerance tail appended, the factors still truncate
        at rank ``r`` and the reconstruction stays within the bound."""
        tol = 1e-3 if dtype == np.float32 else 1e-6
        dense = _low_rank_dense(48, 40, r, dtype, seed=10 + r, decay=tol / 50)
        out = factory(dense, tol, max_rank=16)
        assert out is not None
        u, v = out
        assert u.shape[1] == r
        err = np.linalg.norm(dense - u @ v.T, 2)
        # slack for the randomized range finder's residual in float32
        assert err <= 4 * tol * np.linalg.norm(dense, 2)

    def test_declines_above_max_rank(self, dtype, r, factory):
        """A spectrum that needs more than ``max_rank`` terms at the
        tolerance is rejected rather than silently mis-approximated."""
        rng = np.random.default_rng(99)
        dense = rng.standard_normal((48, 40)).astype(dtype)  # full rank
        assert factory(dense, 1e-10, max_rank=4) is None


# ----------------------------------------------------------------------
# gates and kernels
# ----------------------------------------------------------------------

class TestTryCompress:
    def _block(self, dense):
        aspc = sp.csc_matrix(dense)
        return CSCMatrix(
            dense.shape, aspc.indptr.astype(np.int64),
            aspc.indices.astype(np.int64), aspc.data,
        )

    def test_profit_gate_rejects_sparse_blocks(self):
        """A block whose nnz cannot pay for even rank-1 factors is never
        compressed, whatever its spectrum."""
        dense = np.zeros((40, 40))
        dense[0, :] = 1.0  # rank 1, but only 40 nnz < m + n
        blk = self._block(dense)
        assert lr_profit_cap(40, 40, blk.nnz) == 0
        policy = CompressPolicy(tol=1e-8, min_order=8)
        assert try_compress(blk, policy) is None

    def test_min_order_gate(self):
        dense = _low_rank_dense(16, 16, 1, np.float64, seed=3)
        blk = self._block(dense)
        assert try_compress(blk, CompressPolicy(tol=1e-8, min_order=32)) is None
        cb = try_compress(blk, CompressPolicy(tol=1e-8, min_order=8))
        assert cb is not None and cb.rank == 1

    def test_compressed_block_accounting(self):
        dense = _low_rank_dense(64, 48, 3, np.float64, seed=5)
        blk = self._block(dense)
        cb = try_compress(blk, CompressPolicy(tol=1e-10, min_order=8))
        assert cb is not None
        assert cb.rank == 3
        assert cb.src_nnz == blk.nnz  # selector parity on remote ranks
        assert cb.value_nbytes == cb.u.nbytes + cb.v.nbytes
        assert cb.value_nbytes < blk.value_nbytes


class TestLRKernels:
    @pytest.mark.parametrize("mix", ["a", "b", "both"])
    def test_matches_dense_reference(self, mix, ws=None):
        ws = Workspace()
        rng = np.random.default_rng(17)
        m = n = k = 40
        a_dense = _low_rank_dense(m, k, 2, np.float64, seed=21)
        b_dense = _low_rank_dense(k, n, 3, np.float64, seed=22)
        def csc(d):
            m = sp.csc_matrix(d)
            return CSCMatrix(
                d.shape, m.indptr.astype(np.int64),
                m.indices.astype(np.int64), m.data.copy(),
            )
        a_blk, b_blk = csc(a_dense), csc(b_dense)
        policy = CompressPolicy(tol=1e-10, min_order=8)
        a_cb = try_compress(a_blk, policy)
        b_cb = try_compress(b_blk, policy)
        assert a_cb is not None and b_cb is not None

        c_dense = rng.standard_normal((m, n))
        c_ref = csc(c_dense)
        c_out = csc(c_dense)
        a_op = a_cb if mix in ("a", "both") else a_blk
        b_op = b_cb if mix in ("b", "both") else b_blk
        kernel = ssssm_lr_v2 if mix == "both" else ssssm_lr_v1
        kernel(c_out, a_op, b_op, ws)

        rows, cols = c_ref.rows_cols()
        expect = c_ref.data - (a_dense @ b_dense)[rows, cols]
        np.testing.assert_allclose(c_out.data, expect, atol=1e-10)

    def test_flops_scale_with_rank_not_order(self):
        a = CompressedBlock((64, 64), np.zeros((64, 2)), np.zeros((64, 2)), 4096)
        b = CompressedBlock((64, 64), np.zeros((64, 2)), np.zeros((64, 2)), 4096)
        lr = lr_ssssm_flops(1000, a, b)
        dense_flops = 2.0 * 64 * 64 * 64
        assert 0 < lr < dense_flops / 10


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------

class TestBitIdentityWhenOff:
    def test_zero_tol_is_the_default_path(self):
        """``compress_tol=0`` factors byte-identically to options that
        never mention compression, with zero compression counters."""
        _, am = _coupled_matrix()
        f0 = _factorize(am, block_size=32)
        f1 = _factorize(
            am, block_size=32, numeric=NumericOptions(compress_tol=0.0)
        )
        for b0, b1 in zip(f0.blocks.blk_values, f1.blocks.blk_values):
            np.testing.assert_array_equal(b0.data, b1.data)
        assert f1.stats.blocks_compressed == 0
        assert f1.stats.lr_value_bytes == 0
        assert not f1.compression_active()

    def test_engines_agree_when_off(self):
        a, am = _coupled_matrix(seed=23)
        b = np.random.default_rng(5).standard_normal(am.nrows)
        x_seq = _factorize(am, block_size=32, engine="sequential").solve(b)
        x_dist = _factorize(
            am, block_size=32, engine="distributed", nprocs=3
        ).solve(b)
        np.testing.assert_array_equal(x_seq, x_dist)


class TestCompressedSolve:
    @pytest.mark.parametrize("engine,kw", [
        ("sequential", {}),
        ("threaded", {"n_workers": 3}),
        ("distributed", {"nprocs": 3}),
        ("hybrid", {"nprocs": 2, "n_workers": 2}),
    ])
    def test_filled_regime_compresses_and_solves(self, engine, kw):
        a, am = _coupled_matrix()
        b = np.random.default_rng(2).standard_normal(am.nrows)
        f = _factorize(
            am, block_size=32, engine=engine,
            numeric=NumericOptions(compress_tol=1e-8, compress_min_order=16),
            **kw,
        )
        assert f.stats.blocks_compressed > 0
        assert f.stats.lr_value_bytes > 0
        assert f.compression_active()
        x = f.solve(b)
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid <= f.options.refine_tol * 10

    def test_lr_kernels_appear_in_choices(self):
        _, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32,
            numeric=NumericOptions(compress_tol=1e-8, compress_min_order=16),
        )
        labels = set(f.stats.kernel_choices.values())
        assert any(lbl.startswith("SSSSM/LR_") for lbl in labels)

    def test_distributed_wire_bytes_shrink(self):
        """Compressed panels ship as U/V: the loopback byte accounting
        must come in strictly under the CSC payload accounting."""
        from repro.core import block_partition, build_dag
        from repro.runtime.distributed import factorize_distributed
        from repro.runtime.transports import LoopbackTransport
        from repro.symbolic import symbolic_symmetric

        def run(compress_tol):
            _, am = _coupled_matrix(seed=31)
            filled = symbolic_symmetric(am).filled
            bm = block_partition(filled, 32)
            dag = build_dag(bm)
            return factorize_distributed(
                bm, dag, 3, transport=LoopbackTransport(),
                options=NumericOptions(
                    compress_tol=compress_tol, compress_min_order=16
                ),
            )

        off = run(0.0)
        on = run(1e-8)
        assert on.blocks_compressed > 0
        assert on.lr_value_bytes > 0
        assert on.block_bytes_sent < off.block_bytes_sent

    def test_memory_report_effective_bytes(self):
        from repro.core.memory import memory_report

        _, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32,
            numeric=NumericOptions(compress_tol=1e-8, compress_min_order=16),
        )
        rep = memory_report(f.blocks)
        assert rep.lr_value_bytes > 0
        assert rep.compressed_csc_bytes > rep.lr_value_bytes
        assert rep.effective_traffic_bytes < (
            rep.values_bytes + rep.layer2_index_bytes
        )

    def test_refactorize_reuses_lr_slabs(self):
        """After an in-place refactorise the overlay is rebuilt (same
        pattern, new values) and the solve still meets the gate."""
        a, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32,
            numeric=NumericOptions(compress_tol=1e-8, compress_min_order=16),
        )
        first = f.stats.blocks_compressed
        assert first > 0
        a2m = CSCMatrix(
            (am.nrows, am.ncols), am.indptr, am.indices, am.data * 1.5
        )
        stats = f.refactorize(a2m)
        assert stats.blocks_compressed == first
        b = np.random.default_rng(8).standard_normal(am.nrows)
        x = f.solve(b)
        resid = np.linalg.norm(1.5 * (a @ x) - b) / np.linalg.norm(b)
        assert resid <= f.options.refine_tol * 10


class TestEscalation:
    def test_decompress_restores_exact_factors(self):
        _, am = _coupled_matrix()
        exact = _factorize(am, block_size=32)
        f = _factorize(
            am, block_size=32,
            numeric=NumericOptions(compress_tol=1e-8, compress_min_order=16),
        )
        assert f.compression_active()
        f.decompress()
        assert not f.compression_active()
        assert f.stats.blocks_compressed == 0
        for b0, b1 in zip(exact.blocks.blk_values, f.blocks.blk_values):
            np.testing.assert_array_equal(b0.data, b1.data)

    def test_stalled_refinement_escalates_to_exact(self):
        """A tolerance so loose the panels collapse to rank 1 butchers
        the factors; the solve must notice the stall, refactorise
        exactly, and still return an accurate solution."""
        a, am = _coupled_matrix(scale=1.0, diag=8.0, seed=41)
        f = _factorize(
            am, block_size=32,
            numeric=NumericOptions(compress_tol=0.9, compress_min_order=16),
            refine_max_iter=4,
        )
        assert f.compression_active()
        b = np.random.default_rng(3).standard_normal(am.nrows)
        x = f.solve(b)
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid <= 1e-10
        # the escalation flipped compression off and refactorised
        assert not f.compression_active()


# ----------------------------------------------------------------------
# satellite: auto-calibrated rank speeds
# ----------------------------------------------------------------------

class TestAutoRankSpeeds:
    def test_calibrate_returns_normalised_tuple(self):
        from repro.runtime.calibrate import calibrate_rank_speeds

        speeds = calibrate_rank_speeds(3, order=48, repeats=2)
        assert len(speeds) == 3
        assert max(speeds) == 1.0
        assert all(0.0 < s <= 1.0 for s in speeds)

    def test_auto_resolves_during_preprocess(self):
        _, am = _coupled_matrix()
        s = PanguLU(am, SolverOptions(
            block_size=32, rank_speeds="auto", nprocs=2,
        ))
        s.preprocess()
        assert isinstance(s.options.rank_speeds, tuple)
        assert len(s.options.rank_speeds) == 2
        assert max(s.options.rank_speeds) == 1.0

"""Tests for the blocking-strategy interface: regular vs irregular
boundaries, bit-identity guarantees, and the option surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.core import (
    BlockingStrategy,
    IrregularBlocking,
    RegularBlocking,
    block_partition,
    get_blocking_strategy,
)
from repro.core.strategy import _merge_thin, _split_wide
from repro.sparse import random_sparse
from repro.sparse.generators import circuit_like, kkt_saddle_point
from repro.symbolic import symbolic_symmetric


def _filled(n=80, seed=0, density=0.06):
    a = random_sparse(n, density, seed=seed)
    return symbolic_symmetric(a).filled


def _assert_structures_identical(a, b):
    np.testing.assert_array_equal(a.boundaries, b.boundaries)
    np.testing.assert_array_equal(a.blk_colptr, b.blk_colptr)
    np.testing.assert_array_equal(a.blk_rowidx, b.blk_rowidx)
    for a_blk, b_blk in zip(a.blk_values, b.blk_values):
        assert a_blk.shape == b_blk.shape
        np.testing.assert_array_equal(a_blk.indptr, b_blk.indptr)
        np.testing.assert_array_equal(a_blk.indices, b_blk.indices)
        np.testing.assert_array_equal(a_blk.data, b_blk.data)


class TestRegistry:
    def test_resolves_names(self):
        assert isinstance(get_blocking_strategy("regular"), RegularBlocking)
        assert isinstance(get_blocking_strategy("irregular"), IrregularBlocking)

    def test_block_size_forwarded(self):
        assert get_blocking_strategy("regular", block_size=24).block_size == 24
        assert get_blocking_strategy("irregular", block_size=24).max_width == 24

    def test_instance_passthrough(self):
        strat = IrregularBlocking(32)
        assert get_blocking_strategy(strat) is strat

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown blocking strategy"):
            get_blocking_strategy("diagonal")


class TestRegularStrategy:
    def test_matches_direct_partition(self):
        # the strategy seam must not perturb the historical layout
        f = _filled()
        direct = block_partition(f, 16)
        via_strategy = RegularBlocking(16).partition(f)
        assert via_strategy.bs == direct.bs == 16
        _assert_structures_identical(direct, via_strategy)

    def test_heuristic_size_when_unset(self):
        f = _filled()
        strat = RegularBlocking()
        bm = strat.partition(f)
        assert bm.bs == strat.chosen_size(f)
        assert bm.is_regular

    def test_boundaries_equispaced(self):
        f = _filled(n=50)
        b = RegularBlocking(16).boundaries(f)
        np.testing.assert_array_equal(b, [0, 16, 32, 48, 50])


class TestIrregularStrategy:
    def test_boundaries_valid(self):
        f = _filled()
        strat = IrregularBlocking(16)
        b = strat.boundaries(f)
        assert b[0] == 0 and b[-1] == f.ncols
        widths = np.diff(b)
        assert np.all(widths >= 1)
        assert np.all(widths <= 16)

    def test_cap_defaults_to_heuristic(self):
        f = _filled()
        b = IrregularBlocking().boundaries(f)
        from repro.core import choose_block_size

        cap = choose_block_size(f.ncols, f.nnz)
        assert np.diff(b).max() <= cap

    def test_partition_conserves_entries(self):
        f = _filled()
        bm = IrregularBlocking(16).partition(f)
        assert sum(b.nnz for b in bm.blk_values) == f.nnz
        np.testing.assert_allclose(bm.to_csc().to_dense(), f.to_dense())

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError, match="max_width"):
            IrregularBlocking(0)

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            BlockingStrategy()


class TestMergeSplit:
    def test_merge_folds_thin_runs(self):
        b = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8])
        merged = _merge_thin(b, cap=4, min_width=2)
        assert merged[0] == 0 and merged[-1] == 8
        assert np.diff(merged).max() <= 4

    def test_merge_keeps_thick_boundary(self):
        # two already-thick supernodes: the natural boundary survives
        b = np.array([0, 6, 12])
        merged = _merge_thin(b, cap=12, min_width=4)
        np.testing.assert_array_equal(merged, [0, 6, 12])

    def test_split_caps_wide_intervals(self):
        b = np.array([0, 20])
        split = _split_wide(b, cap=8)
        assert split[0] == 0 and split[-1] == 20
        widths = np.diff(split)
        assert np.all(widths <= 8)
        assert np.all(widths >= 1)
        # near-even: widths differ by at most one
        assert widths.max() - widths.min() <= 1

    def test_split_noop_when_within_cap(self):
        b = np.array([0, 5, 9])
        np.testing.assert_array_equal(_split_wide(b, cap=16), b)


ENGINES = ("sequential", "threaded", "distributed")


def _engine_options(engine, **kw):
    return SolverOptions(
        engine=engine,
        n_workers=3 if engine == "threaded" else 1,
        nprocs=3 if engine == "distributed" else 1,
        **kw,
    )


class TestEngineIdentity:
    """Every engine produces the same factors per strategy (parallel
    engines up to floating-point reassociation of commuting Schur
    updates — the documented guarantee), and the strategy seam itself is
    bit-transparent: partitioning from a boundary array must not change
    a single bit relative to the historical scalar-``bs`` path."""

    @pytest.mark.parametrize("blocking", ["regular", "irregular"])
    def test_engines_agree(self, blocking):
        a = kkt_saddle_point(160, seed=2)
        b = np.linspace(1.0, 2.0, a.nrows)
        reference = None
        for engine in ENGINES:
            s = PanguLU(a, _engine_options(engine, blocking=blocking))
            s.factorize()
            x = s.solve(b)
            structure = [
                (blk.indptr.tobytes(), blk.indices.tobytes())
                for blk in s.blocks.blk_values
            ]
            data = [blk.data for blk in s.blocks.blk_values]
            if reference is None:
                reference = (structure, data, x)
            else:
                # the symbolic side is scheduling-independent: exact
                assert structure == reference[0], engine
                for got, want in zip(data, reference[1]):
                    np.testing.assert_allclose(
                        got, want, rtol=1e-10, atol=1e-14, err_msg=engine
                    )
                np.testing.assert_allclose(
                    x, reference[2], rtol=1e-10, atol=1e-14, err_msg=engine
                )
            assert s.factorize().residual_norm(x, b) < 1e-10, engine

    def test_boundary_path_bit_identical_to_scalar(self):
        # deterministic engine, same schedule: routing the partition
        # through an explicit boundary array must reproduce the scalar
        # path bit for bit, factors and solution alike
        from repro.core import boundaries_from_block_size

        a = kkt_saddle_point(160, seed=2)
        b = np.linspace(1.0, 2.0, a.nrows)

        class _BoundarySpelling(RegularBlocking):
            def partition(self, filled, *, dtype=None):
                return block_partition(
                    filled,
                    boundaries_from_block_size(filled.ncols, 16),
                    dtype=dtype,
                )

        results = []
        for blocking in (RegularBlocking(16), _BoundarySpelling(16)):
            s = PanguLU(
                a, SolverOptions(engine="sequential", blocking=blocking)
            )
            s.factorize()
            x = s.solve(b)
            payload = [
                (blk.indptr.tobytes(), blk.indices.tobytes(), blk.data.tobytes())
                for blk in s.blocks.blk_values
            ]
            results.append((payload, x.tobytes()))
        assert results[0] == results[1]

    def test_strategies_agree_numerically(self):
        # different groupings reassociate floating-point sums, so the
        # factors differ in the last bits — the solutions must still agree
        # to solver accuracy
        a = circuit_like(200, seed=7)
        b = np.linspace(1.0, 2.0, a.nrows)
        xs = {}
        for blocking in ("regular", "irregular"):
            s = PanguLU(a, SolverOptions(blocking=blocking))
            xs[blocking] = s.solve(b)
            assert s.factorize().residual_norm(xs[blocking], b) < 1e-10
        np.testing.assert_allclose(
            xs["regular"], xs["irregular"], rtol=1e-8, atol=1e-10
        )


class TestSolverIntegration:
    def test_irregular_end_to_end(self):
        a = random_sparse(160, 0.04, seed=9)
        b = np.linspace(1.0, 2.0, a.nrows)
        s = PanguLU(a, SolverOptions(blocking="irregular"))
        x = s.solve(b)
        assert s.factorize().residual_norm(x, b) < 1e-10
        assert not s.blocks.is_regular or s.blocks.nb == 1
        assert s.estimate()["blocking"] == "irregular"

    def test_irregular_with_arena_refactorize(self):
        a = random_sparse(140, 0.04, seed=11)
        b = np.linspace(1.0, 2.0, a.nrows)
        fact = PanguLU(a, SolverOptions(blocking="irregular")).factorize()
        a2 = a.copy()
        a2.data = a.data * 1.25
        fact.refactorize(a2)
        x = fact.solve(b)
        r = a2.matvec(x) - b
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-10

    def test_strategy_instance_in_options(self):
        a = random_sparse(120, 0.05, seed=13)
        b = np.linspace(1.0, 2.0, a.nrows)
        s = PanguLU(a, SolverOptions(blocking=IrregularBlocking(12)))
        x = s.solve(b)
        assert s.factorize().residual_norm(x, b) < 1e-10
        assert np.diff(s.blocks.boundaries).max() <= 12

    def test_explicit_block_size_is_irregular_cap(self):
        a = random_sparse(150, 0.05, seed=15)
        s = PanguLU(a, SolverOptions(blocking="irregular", block_size=10))
        s.preprocess()
        assert np.diff(s.blocks.boundaries).max() <= 10

    def test_pickle_roundtrip_irregular(self):
        import pickle

        a = random_sparse(130, 0.05, seed=17)
        b = np.linspace(1.0, 2.0, a.nrows)
        fact = PanguLU(a, SolverOptions(blocking="irregular")).factorize()
        x0 = fact.solve(b)
        clone = pickle.loads(pickle.dumps(fact))
        np.testing.assert_array_equal(clone.solve(b), x0)

"""Tests of the arena-backed factor storage (`repro.core.blocking.FactorArena`).

The arena is the only block layout: one contiguous ``indptr``/
``indices``/``data`` slab per factor with every block a zero-copy view,
addressed through slot→offset tables.  Every engine bit-identity test in
the suite runs on it, because ``block_partition`` always builds it.  The
contract tested here:

* **views** — every block aliases the slabs, and the gather map
  reproduces the value slab from the filled matrix;
* **in-place refactorize** — re-injecting values allocates/rebinds *no*
  per-block array: the block structure, the slabs, every view and every
  cached execution plan survive by identity;
* **single-buffer serialisation** — a pickled ``Factorization`` ships
  the slabs plus a small fixed overhead, round-trips, and reattaches
  working views.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro import PanguLU
from repro.core import (
    FactorArena,
    block_partition,
    build_dag,
    factorize,
    memory_report,
)
from repro.runtime import factorize_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric

N = 96


def _filled(seed=0):
    a = random_sparse(N, 0.06, seed=seed)
    return symbolic_symmetric(a).filled


class TestArenaLayout:
    def test_blocks_are_views_into_the_slabs(self):
        bm = block_partition(_filled(), 12)
        arena = bm.arena
        assert isinstance(arena, FactorArena)
        for blk in bm.blk_values:
            assert blk.data.base is arena.data
            assert blk.indices.base is arena.indices
            assert blk.indptr.base is arena.indptr
        assert int(arena.val_off[-1]) == arena.data.size == arena.indices.size
        assert int(arena.ptr_off[-1]) == arena.indptr.size

    def test_gather_reproduces_the_slab(self):
        f = _filled()
        bm = block_partition(f, 12)
        assert np.array_equal(f.data[bm.arena.gather], bm.arena.data)

    def test_empty_matrix(self):
        from repro.sparse.csc import CSCMatrix

        bm = block_partition(CSCMatrix.empty((10, 10)), 4)
        assert bm.arena.data.size == 0
        assert bm.num_blocks == 0


class TestEnginesAgreeBitIdentical:
    def test_distributed_loopback_writes_through_the_slab(self):
        """The in-process transport exchanges live slab slices; the
        factored values land in the master's slab, bit-identical to the
        sequential engine's."""
        f = _filled(seed=4)
        seq = block_partition(f, 12)
        dist = block_partition(f, 12)
        factorize(seq, build_dag(seq))
        factorize_distributed(dist, build_dag(dist), 3, transport=LoopbackTransport())
        assert np.array_equal(seq.arena.data, dist.arena.data)
        assert dist.blk_values[0].data.base is dist.arena.data


class TestInPlaceRefactorize:
    def test_refactorize_allocates_no_block_arrays(self):
        """The arena refactorize path touches only the value slab: the
        block structure, the three slabs, every block view and the plan
        cache all survive **by identity**, and the plan cache builds no
        new plan."""
        a = random_sparse(N, 0.06, seed=6)
        fact = PanguLU(a).factorize()
        blocks = fact.blocks
        arena = blocks.arena
        slabs = (arena.indptr, arena.indices, arena.data)
        views = list(blocks.blk_values)
        view_arrays = [(v.indptr, v.indices, v.data) for v in views]
        cache = blocks.plan_cache
        builds = cache.builds
        lu_before = blocks.to_csc().data.copy()

        a2 = a.copy()
        a2.data = a.data * 1.7
        fact.refactorize(a2)

        assert fact.blocks is blocks
        assert blocks.arena is arena
        for slab, now in zip(slabs, (arena.indptr, arena.indices, arena.data)):
            assert slab is now
        for view, (ip, ix, dv) in zip(blocks.blk_values, view_arrays):
            assert view.indptr is ip and view.indices is ix and view.data is dv
        assert blocks.plan_cache is cache
        assert cache.builds == builds  # every cached plan was reused
        # and it actually refactorised: new values, correct solve
        assert not np.array_equal(blocks.to_csc().data, lu_before)
        x = fact.solve(np.ones(N))
        assert float(np.max(np.abs(a2.matvec(x) - 1.0))) < 1e-8

    def test_refill_is_elementwise_exact(self):
        f = _filled(seed=8)
        bm = block_partition(f, 12)
        new_vals = f.data * 2.5
        bm.arena.refill(new_vals)
        assert np.array_equal(bm.arena.data, new_vals[bm.arena.gather])


class TestSerialisation:
    def test_pickle_round_trip_and_size_bound(self):
        a = random_sparse(N, 0.06, seed=9)
        fact = PanguLU(a).factorize()
        blocks = fact.blocks
        # the blocks serialise as the slabs plus the layer-1 arrays and a
        # small fixed overhead, not as one header per block
        assert len(pickle.dumps(blocks)) <= (
            blocks.arena.nbytes + blocks.blk_colptr.nbytes
            + blocks.blk_rowidx.nbytes + 4096
        )

        restored = pickle.loads(pickle.dumps(fact))
        b = np.ones(N)
        assert np.array_equal(restored.solve(b), fact.solve(b))
        # views were reattached onto the restored slabs
        rb = restored.blocks
        assert rb.arena is not None
        for blk in rb.blk_values:
            assert blk.data.base is rb.arena.data

    def test_block_matrix_getstate_drops_rebuildables(self):
        bm = block_partition(_filled(seed=10), 12)
        bm.block_slot(0, 0)  # force the index
        state = bm.__getstate__()
        assert state["plan_cache"] is None
        assert state["_index"] is None
        assert state["blk_values"] is None  # arena: slabs are the truth
        clone = pickle.loads(pickle.dumps(bm))
        assert len(clone.blk_values) == bm.num_blocks
        for ours, theirs in zip(bm.blk_values, clone.blk_values):
            assert np.array_equal(ours.data, theirs.data)


class TestMemoryAccounting:
    def test_arena_report_counts_offset_tables_and_gather(self):
        arena = block_partition(_filled(seed=11), 12)
        ra = memory_report(arena)
        assert ra.arena_refill_bytes == arena.arena.gather.nbytes
        # the slot→offset tables replace the per-block payload pointers
        nb1 = arena.num_blocks + 1
        assert ra.layer1_index_bytes == (
            arena.blk_colptr.nbytes + arena.blk_rowidx.nbytes + 2 * nb1 * 8
        )
        assert ra.layer1_overhead < 0.05

    def test_report_derives_bytes_from_dtypes(self):
        arena = block_partition(_filled(seed=12), 12)
        rep = memory_report(arena)
        nnz = sum(b.nnz for b in arena.blk_values)
        assert rep.values_bytes == nnz * np.dtype(np.float64).itemsize

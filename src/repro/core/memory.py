"""Memory accounting for the two-layer block structure.

Section 4.2 of the paper notes that the two-layer sparse structure has
"no significant additional overhead, as we only need three additional
arrays to represent and access the block-level sparse structure", and
that PanguLU preallocates all block storage during preprocessing to
minimise consumption.  This module makes those claims checkable: exact
byte counts for the blocked factors, the layer-1 overhead, the equivalent
supernodal (padded dense-panel) storage, and the per-process footprint
under a mapping.

Every count is derived from the **actual dtypes of the stored arrays**
(``arr.nbytes`` / ``dtype.itemsize``), so the report stays truthful if
the index or value width ever changes — there are no hardcoded "8 bytes
per entry" constants.  The slot→offset tables of the
:class:`~repro.core.blocking.FactorArena` are counted as layer-1
overhead (they are the paper's block-payload pointer array made literal)
and the refactorisation gather map is reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import BlockMatrix

__all__ = ["MemoryReport", "memory_report", "per_process_bytes"]


@dataclass(frozen=True)
class MemoryReport:
    """Byte-level storage accounting of a blocked factor matrix.

    Attributes
    ----------
    values_bytes:
        Numeric payload of all blocks (exact ``data`` dtype).
    layer2_index_bytes:
        Within-block CSC overhead (indices + column pointers) at the
        arrays' actual dtypes.
    layer1_index_bytes:
        Block-level CSC overhead — the paper's auxiliary arrays
        (``blk_ColumnPointer``, ``blk_RowIndex`` and the block-payload
        pointers, which are the arena's ``ptr_off`` / ``val_off``
        slot→offset tables).
    dense_equivalent_bytes:
        Storing every *stored* block as a dense panel (what a padded
        supernodal layout pays for the same coverage).
    plan_bytes:
        Index arrays of the cached fixed-pattern execution plans
        (:mod:`repro.kernels.plans`), when the structure carries a plan
        cache — the price of precomputed scatter addressing.
    arena_refill_bytes:
        The arena's ``gather`` map (filled-matrix position of every slab
        entry) — the price of in-place value re-injection on
        refactorisation.
    lr_value_bytes:
        Numeric payload of the low-rank overlay (the ``U``/``V`` factor
        pairs of compressed GESSM/TSTRF panels).  0 with compression off.
    compressed_csc_bytes:
        Exact CSC payload (values + within-block indices) of the blocks
        that also carry a low-rank overlay — what a consumer that reads
        the overlay *instead* of the CSC arrays avoids touching.
    """

    values_bytes: int
    layer2_index_bytes: int
    layer1_index_bytes: int
    dense_equivalent_bytes: int
    plan_bytes: int = 0
    arena_refill_bytes: int = 0
    lr_value_bytes: int = 0
    compressed_csc_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Full two-layer footprint, plans, refill map and low-rank
        overlay included (the overlay is *additive* storage locally: the
        exact CSC arrays stay authoritative underneath it)."""
        return (
            self.values_bytes
            + self.layer2_index_bytes
            + self.layer1_index_bytes
            + self.plan_bytes
            + self.arena_refill_bytes
            + self.lr_value_bytes
        )

    @property
    def effective_traffic_bytes(self) -> int:
        """Bytes a consumer actually reads with the overlay in force:
        every uncompressed block at its exact CSC size, every compressed
        block at its ``U``/``V`` size.  This — not :attr:`total_bytes` —
        is what shrinks in the filled regime, and it is what the wire
        accounting of the distributed engine realises (compressed panels
        ship as ``U``/``V`` only)."""
        return (
            self.values_bytes
            + self.layer2_index_bytes
            - self.compressed_csc_bytes
            + self.lr_value_bytes
        )

    @property
    def layer1_overhead(self) -> float:
        """Layer-1 arrays relative to the total — the paper's "no
        significant additional overhead" claim, as a number."""
        return self.layer1_index_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def dense_ratio(self) -> float:
        """Dense-equivalent over two-layer storage (≥ 1 for sparse data)."""
        return (
            self.dense_equivalent_bytes / self.total_bytes
            if self.total_bytes
            else 1.0
        )


def memory_report(f: BlockMatrix) -> MemoryReport:
    """Account the storage of a blocked matrix exactly (including any
    execution plans cached on the structure), with every byte count
    derived from the actual array dtypes."""
    values = 0
    layer2 = 0
    dense_eq = 0
    for blk in f.blk_values:
        values += blk.value_nbytes
        layer2 += blk.index_nbytes
        dense_eq += blk.nrows * blk.ncols * blk.data.itemsize
    # the slot→offset tables are the block-payload pointer array of the
    # paper's layer 1; the gather map buys in-place refactorize
    layer1 = (
        f.blk_colptr.nbytes + f.blk_rowidx.nbytes
        + f.arena.ptr_off.nbytes + f.arena.val_off.nbytes
    )
    plans = f.plan_cache
    lr_bytes = 0
    comp_csc = 0
    for (bi, bj), cb in f.lr_overlay.items():
        lr_bytes += cb.value_nbytes
        blk = f.block(bi, bj)
        if blk is not None:  # values + indices a pure-overlay reader skips
            comp_csc += blk.value_nbytes + blk.index_nbytes
    return MemoryReport(
        values_bytes=int(values),
        layer2_index_bytes=int(layer2),
        layer1_index_bytes=int(layer1),
        dense_equivalent_bytes=int(dense_eq),
        plan_bytes=int(plans.nbytes) if plans is not None else 0,
        arena_refill_bytes=int(f.arena.gather.nbytes),
        lr_value_bytes=int(lr_bytes),
        compressed_csc_bytes=int(comp_csc),
    )


def per_process_bytes(f: BlockMatrix, grid) -> np.ndarray:
    """Bytes of block storage owned by each process — the quantity that
    must fit in one device's memory.

    ``grid`` is a :class:`ProcessGrid` (block-cyclic ownership) or any
    :class:`repro.core.placement.PlacementPolicy`.  Ownership is the
    storage layout; the load balancer migrates *tasks*, never block
    storage.  Counts are exact (``nbytes`` of the per-block arrays at
    their real dtypes).
    """
    from .placement import CyclicPlacement, PlacementPolicy

    place = grid if isinstance(grid, PlacementPolicy) else CyclicPlacement(grid)
    out = np.zeros(place.nprocs, dtype=np.int64)
    for bj in range(f.nb):
        rows, blocks = f.blocks_in_column(bj)
        for bi, blk in zip(rows, blocks):
            owner = place.owner(int(bi), bj)
            out[owner] += blk.value_nbytes + blk.index_nbytes
    return out

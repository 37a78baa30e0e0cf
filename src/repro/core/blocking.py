"""2D blocking — PanguLU's two-layer sparse structure (Fig. 6).

The filled matrix (output of symbolic factorisation) is split into blocks
along one shared boundary array for rows and columns.  Layer 1 is a
*block-level CSC*: the arrays ``blk_colptr`` / ``blk_rowidx`` compress the
nonzero blocks of each block column, and ``blk_values`` holds the per-block
payloads.  Layer 2 is the CSC pattern *inside* each block.  Empty blocks
are not stored.

The boundary array is what a :class:`~repro.core.strategy.BlockingStrategy`
produces: regular blocking emits equispaced boundaries (one fixed block
size, last block possibly short), irregular blocking emits boundaries
aligned with the symbolic fill's supernode structure.  Everything below
the partition — storage, mapping, kernels, runtime — addresses blocks
through :meth:`BlockMatrix.block_start` / :meth:`BlockMatrix.block_order`
and never assumes a uniform spacing.

Because every block keeps its exact sparse pattern (no supernode padding),
the numeric kernels never compute with structural zeros — the central
storage claim of the paper (Fig. 1e vs 1d).

One physical layout backs the structure: the :class:`FactorArena` (the
paper's Section 4.2 "preallocates all block storage during
preprocessing") — one contiguous ``indptr`` / ``indices`` / ``data`` slab
for the whole factor, sized once from the symbolic fill, with every block
a zero-copy :meth:`~repro.sparse.csc.CSCMatrix.from_views` slice
addressed through a slot→offset table.  Kernels write through the views
straight into the slab, so a refactorisation is a single in-place
overwrite of the value slab and serialisation ships three buffers instead
of thousands.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from ..sparse.blockrep import CompressedBlock, lr_profit_cap
from ..sparse.csc import CSCMatrix

__all__ = [
    "BlockMatrix",
    "FactorArena",
    "BlockSizeDecision",
    "block_size_decision",
    "choose_block_size",
    "boundaries_from_block_size",
    "block_partition",
]

logger = logging.getLogger(__name__)

#: coarsening floor on the average dense block payload ``nnz(L+U) / nb²``
MIN_AVG_BLOCK_NNZ = 12.0


@dataclass(frozen=True)
class BlockSizeDecision:
    """Every input and intermediate of the block-size heuristic.

    :func:`choose_block_size` used to return a silently clamped scalar;
    this record makes the decision inspectable — which clamp fired, what
    the pre-clamp grid and block size were — for logs, benches, and tests.
    """

    n: int                  #: matrix order
    nnz_filled: int         #: nnz of the filled (post-symbolic) matrix
    min_bs: int             #: lower clamp on the block size
    max_bs: int             #: upper clamp on the block size
    nb_sqrt: int            #: sqrt(n) grid before the 4..128 grid clamp
    nb_grid: int            #: grid after the 4..128 clamp, before coarsening
    nb: int                 #: final grid after density-driven coarsening
    avg_block_nnz: float    #: nnz_filled / nb² at the final grid
    bs_raw: int             #: ceil(n / nb) before the [min_bs, max_bs] clamp
    bs: int                 #: the chosen block size (what callers use)

    @property
    def grid_clamped(self) -> bool:
        """True when the 4..128 grid clamp changed ``nb_sqrt``."""
        return self.nb_grid != self.nb_sqrt

    @property
    def size_clamped(self) -> bool:
        """True when the ``[min_bs, max_bs]`` clamp changed ``bs_raw``."""
        return self.bs != self.bs_raw


def block_size_decision(
    n: int, nnz_filled: int, *, min_bs: int = 8, max_bs: int = 512
) -> BlockSizeDecision:
    """The block-size heuristic with its full decision trace.

    Same computation as :func:`choose_block_size` (which delegates here);
    returns a :class:`BlockSizeDecision` instead of the bare scalar so
    callers can see whether — and which — clamp fired.
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    nb_sqrt = int(round(np.sqrt(n)))
    nb_grid = int(np.clip(nb_sqrt, 4, 128))
    nb = nb_grid
    while nb > 4 and nnz_filled / (nb * nb) < MIN_AVG_BLOCK_NNZ:
        nb = max(4, nb // 2)
    bs_raw = -(-n // nb)
    bs = int(np.clip(bs_raw, min_bs, max(max_bs, min_bs)))
    return BlockSizeDecision(
        n=n,
        nnz_filled=nnz_filled,
        min_bs=min_bs,
        max_bs=max_bs,
        nb_sqrt=nb_sqrt,
        nb_grid=nb_grid,
        nb=nb,
        avg_block_nnz=nnz_filled / (nb * nb),
        bs_raw=bs_raw,
        bs=bs,
    )


def choose_block_size(
    n: int, nnz_filled: int, *, min_bs: int = 8, max_bs: int = 512
) -> int:
    """Pick the regular block size from the matrix order and post-symbolic
    density (Section 4.1: "calculated from the matrix order and the density
    of the matrix after symbolic factorisation").

    The heuristic balances two pressures the paper names — computation
    (large blocks amortise per-kernel overheads) and communication /
    parallelism (many blocks expose concurrency to the process grid):

    * start from a grid of ``nb ≈ sqrt(n)`` block columns, which keeps the
      task count roughly linear in ``n``;
    * coarsen while the *average dense block payload*
      ``nnz(L+U) / nb²`` falls below a floor, so very sparse matrices get
      bigger blocks (more nonzeros per kernel call);
    * clamp the resulting block size to ``[min_bs, max_bs]``.

    Use :func:`block_size_decision` for the full decision trace (clamp
    provenance, pre-clamp grid and size).
    """
    d = block_size_decision(n, nnz_filled, min_bs=min_bs, max_bs=max_bs)
    if d.size_clamped:
        logger.debug(
            "choose_block_size(n=%d, nnz=%d): bs %d clamped to %d "
            "(range %d..%d, grid %d, avg block nnz %.1f)",
            d.n, d.nnz_filled, d.bs_raw, d.bs, d.min_bs, d.max_bs,
            d.nb, d.avg_block_nnz,
        )
    return d.bs


def boundaries_from_block_size(n: int, bs: int) -> np.ndarray:
    """Equispaced block boundaries ``[0, bs, 2·bs, …, n]`` (the regular
    layout: every block ``bs`` wide except a possibly short last one)."""
    if bs <= 0:
        raise ValueError("block size must be positive")
    nb = -(-n // bs)
    return np.minimum(np.arange(nb + 1, dtype=np.int64) * bs, n)


@dataclass
class FactorArena:
    """Preallocated contiguous factor storage (paper Section 4.2).

    The two-layer structure's promise — "preallocates all block storage
    during preprocessing" with only a handful of auxiliary arrays — made
    literal: three slabs hold every block's CSC arrays back to back in
    storage-slot (layer-1) order, and two offset tables address them.

    Attributes
    ----------
    indptr:
        Concatenated per-block column-pointer arrays (each block-local,
        starting at 0); block ``slot`` owns
        ``indptr[ptr_off[slot]:ptr_off[slot+1]]``.
    indices, data:
        Concatenated per-block row indices / values; block ``slot`` owns
        ``indices[val_off[slot]:val_off[slot+1]]`` and the matching
        ``data`` slice.
    ptr_off, val_off:
        Slot→offset tables (length ``num_blocks + 1``) — together with
        the layer-1 ``blk_colptr``/``blk_rowidx`` these are the paper's
        auxiliary access arrays.
    gather:
        Position in the parent filled matrix's ``data`` array of every
        slab entry (``data[i] == filled.data[gather[i]]``).  This is what
        makes :meth:`refill` — and therefore refactorisation — a single
        in-place overwrite of the value slab with zero new block
        allocations.
    lr_data, lr_off, lr_rank:
        Optional low-rank slab (``None`` until :meth:`alloc_lr`): slot
        ``s`` may hold compressed ``U``/``V`` factors in
        ``lr_data[lr_off[s]:lr_off[s+1]]`` with the retained rank in
        ``lr_rank[s]`` (−1 = uncompressed).  Capacities are sized from
        the profitable-rank cap ``(nnz − 1) // (m + n)``, which bounds
        the whole slab at strictly less than the ``data`` slab — so the
        compressed overlay never doubles the arena, and ``refactorize``
        re-compresses into the same storage without allocating.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    ptr_off: np.ndarray
    val_off: np.ndarray
    gather: np.ndarray
    lr_data: np.ndarray | None = field(default=None, repr=False)
    lr_off: np.ndarray | None = field(default=None, repr=False)
    lr_rank: np.ndarray | None = field(default=None, repr=False)

    @property
    def nbytes(self) -> int:
        """Total slab + offset-table bytes (``gather`` included)."""
        total = (
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
            + self.ptr_off.nbytes + self.val_off.nbytes + self.gather.nbytes
        )
        if self.lr_data is not None:
            total += self.lr_data.nbytes + self.lr_off.nbytes + self.lr_rank.nbytes
        return total

    @property
    def has_lr(self) -> bool:
        """True once :meth:`alloc_lr` has laid out the low-rank slab."""
        return self.lr_data is not None

    def alloc_lr(self, caps: np.ndarray) -> None:
        """Lay out the low-rank slab from per-slot entry capacities
        (``caps[s]`` = largest ``rank · (m + n)`` worth storing for slot
        ``s``; 0 disables compression for that slot)."""
        num_blocks = self.ptr_off.size - 1
        caps = np.asarray(caps, dtype=np.int64)
        if caps.size != num_blocks:
            raise ValueError("one capacity per storage slot required")
        lr_off = np.zeros(num_blocks + 1, dtype=np.int64)
        np.cumsum(caps, out=lr_off[1:])
        self.lr_off = lr_off
        self.lr_data = np.zeros(int(lr_off[-1]), dtype=self.data.dtype)
        self.lr_rank = np.full(num_blocks, -1, dtype=np.int64)

    def lr_capacity(self, slot: int) -> int:
        """Entry capacity of slot ``slot``'s low-rank storage (0 when the
        slab is unallocated or the slot was sized out)."""
        if self.lr_off is None:
            return 0
        return int(self.lr_off[slot + 1] - self.lr_off[slot])

    def lr_views(
        self, slot: int, shape: tuple[int, int], rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(u, v)`` views over slot ``slot``'s low-rank
        storage for the given shape and rank."""
        m, n = shape
        base = int(self.lr_off[slot])
        u = self.lr_data[base : base + m * rank].reshape(m, rank)
        v = self.lr_data[base + m * rank : base + (m + n) * rank].reshape(n, rank)
        return u, v

    def slot_view(self, slot: int, shape: tuple[int, int]) -> CSCMatrix:
        """Zero-copy :class:`CSCMatrix` over storage slot ``slot``."""
        p0, p1 = int(self.ptr_off[slot]), int(self.ptr_off[slot + 1])
        v0, v1 = int(self.val_off[slot]), int(self.val_off[slot + 1])
        return CSCMatrix.from_views(
            shape, self.indptr[p0:p1], self.indices[v0:v1], self.data[v0:v1]
        )

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the ``data`` slab (the factor dtype)."""
        return self.data.dtype

    def refill(self, filled_data: np.ndarray) -> None:
        """Overwrite the value slab in place from a filled-pattern data
        array (same symbolic pattern, new numeric values).  No block
        array is allocated or rebound — every view stays valid, so the
        plan cache and the solve DAGs survive untouched."""
        if filled_data.dtype == self.data.dtype:
            np.take(filled_data, self.gather, out=self.data)
        else:
            # np.take refuses cross-dtype `out`; fall back to a gathering
            # assignment, which casts (float64 fill → float32 slab) on
            # the mixed-precision path
            self.data[...] = filled_data[self.gather]
        if self.lr_rank is not None:
            # stale low-rank factors describe the *old* values; the next
            # factorization re-compresses into the same slab
            self.lr_rank[:] = -1


@dataclass
class BlockMatrix:
    """Two-layer block-sparse matrix.

    Attributes
    ----------
    n:
        Matrix order.
    bs:
        Nominal block size.  For a regular partition this is the uniform
        spacing (last block row/column may be smaller); for an irregular
        partition it is the widest block extent.  Layout-independent code
        must use :meth:`block_start` / :meth:`block_order` instead.
    nb:
        Number of block rows/columns (``len(boundaries) - 1``).
    boundaries:
        Block boundary array of length ``nb + 1`` with
        ``boundaries[0] == 0`` and ``boundaries[-1] == n``; block ``b``
        spans global rows/columns ``boundaries[b]:boundaries[b + 1]``.
        Shared by rows and columns, so diagonal blocks stay square.
    blk_colptr, blk_rowidx:
        Layer-1 CSC arrays over blocks: block column ``bj`` owns the block
        rows ``blk_rowidx[blk_colptr[bj]:blk_colptr[bj+1]]`` (sorted).
    arena:
        The :class:`FactorArena` holding every payload.  Its slabs are
        the single source of truth: serialisation ships them instead of
        per-block arrays, and :meth:`FactorArena.refill` re-injects
        values without allocating.
    blk_values:
        Per-block payloads aligned with ``blk_rowidx``; each is a
        zero-copy :class:`CSCMatrix` view into the arena with *local*
        indices (attached on construction and on unpickling).
    plan_cache:
        Lazily-created :class:`repro.kernels.plans.PlanCache` of
        fixed-pattern execution plans for this structure (managed by
        :func:`repro.core.numeric.resolve_plan_cache`).  Attached here —
        not to the options — because plans are keyed by storage slots,
        which only identify patterns within one block structure.
    dtype:
        Value dtype of every block payload (``float64`` by default,
        ``float32`` on the mixed-precision factor path).  Set by
        :func:`block_partition`.
    lr_overlay:
        Low-rank *overlay*: ``(bi, bj) →``
        :class:`~repro.sparse.blockrep.CompressedBlock` for blocks that
        currently carry a truncated ``U @ V.T`` alongside their exact
        CSC payload.  Empty with compression disabled — the default path
        never consults it.  The CSC payload stays authoritative (the
        triangular solves and the to_csc reassembly read it unchanged);
        SSSSM consumers prefer the overlay via
        :meth:`compressed_block`.
    """

    n: int
    bs: int
    nb: int
    blk_colptr: np.ndarray
    blk_rowidx: np.ndarray
    arena: FactorArena = field(repr=False)
    blk_values: list[CSCMatrix] = field(default_factory=list, repr=False)
    plan_cache: object | None = field(default=None, repr=False)
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    boundaries: np.ndarray | None = field(default=None, repr=False)
    lr_overlay: dict = field(default_factory=dict, repr=False)
    _index: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.boundaries is None:
            # hand-built regular structures (tests, fixtures) may omit the
            # boundary array; derive the equispaced one from bs
            self.boundaries = boundaries_from_block_size(self.n, self.bs)
        self._attach_arena_views()

    # ------------------------------------------------------------------
    def block_start(self, b: int) -> int:
        """First global row/column of block index ``b``."""
        return int(self.boundaries[b])

    def block_order(self, b: int) -> int:
        """Row/column count of block index ``b``."""
        return int(self.boundaries[b + 1] - self.boundaries[b])

    def block_slice(self, b: int) -> slice:
        """Global row/column slice covered by block index ``b``."""
        return slice(int(self.boundaries[b]), int(self.boundaries[b + 1]))

    @property
    def max_block_order(self) -> int:
        """Widest block extent (workspace sizing for any block)."""
        return int(np.diff(self.boundaries).max()) if self.nb else 0

    @property
    def is_regular(self) -> bool:
        """True when every block (except possibly the last) spans ``bs``."""
        return bool(
            np.array_equal(
                self.boundaries, boundaries_from_block_size(self.n, self.bs)
            )
        )

    # ------------------------------------------------------------------
    # arena views & serialisation
    # ------------------------------------------------------------------
    def _attach_arena_views(self) -> None:
        """(Re)create ``blk_values`` as zero-copy views into the arena
        slabs, and rebuild the low-rank overlay from the slab's per-slot
        ranks."""
        arena = self.arena
        orders = np.diff(self.boundaries).tolist()
        slot_col = np.repeat(np.arange(self.nb), np.diff(self.blk_colptr)).tolist()
        values: list[CSCMatrix] = []
        overlay: dict[tuple[int, int], CompressedBlock] = {}
        for slot, (bi, bj) in enumerate(zip(self.blk_rowidx.tolist(), slot_col)):
            shape = (orders[bi], orders[bj])
            values.append(arena.slot_view(slot, shape))
            if arena.lr_rank is not None and arena.lr_rank[slot] >= 0:
                rank = int(arena.lr_rank[slot])
                u, v = arena.lr_views(slot, shape, rank)
                src_nnz = int(arena.val_off[slot + 1] - arena.val_off[slot])
                overlay[(bi, bj)] = CompressedBlock(
                    shape=shape, u=u, v=v, src_nnz=src_nnz
                )
        self.blk_values = values
        self.lr_overlay = overlay

    def __getstate__(self) -> dict:
        """Serialise without the unpicklable/rebuildable parts.

        The plan cache (holds a lock, rebuilt lazily), the slot index and
        the per-block views are dropped — the three slabs are the single
        source of truth, so pickling ships three contiguous buffers
        instead of thousands of small per-block arrays.  The low-rank
        overlay (views into the lr slab) is rebuilt from
        ``arena.lr_rank`` on unpickle.
        """
        state = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        state["plan_cache"] = None
        state["_index"] = None
        state["blk_values"] = None
        state["lr_overlay"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._attach_arena_views()

    @property
    def num_blocks(self) -> int:
        """Number of stored (structurally nonzero) blocks."""
        return int(self.blk_colptr[-1])

    def block_slot(self, bi: int, bj: int) -> int:
        """Storage slot of block ``(bi, bj)`` or −1 if absent (O(1) via a
        lazily-built dictionary index)."""
        if self._index is None:
            index: dict[tuple[int, int], int] = {}
            for col in range(self.nb):
                lo, hi = int(self.blk_colptr[col]), int(self.blk_colptr[col + 1])
                for slot in range(lo, hi):
                    index[(int(self.blk_rowidx[slot]), col)] = slot
            self._index = index
        return self._index.get((bi, bj), -1)

    def block(self, bi: int, bj: int) -> CSCMatrix | None:
        """The block at block coordinates ``(bi, bj)``, or None if empty."""
        slot = self.block_slot(bi, bj)
        return None if slot < 0 else self.blk_values[slot]

    # ------------------------------------------------------------------
    # low-rank overlay
    # ------------------------------------------------------------------
    def compressed_block(self, bi: int, bj: int) -> CompressedBlock | None:
        """The low-rank overlay of block ``(bi, bj)`` or ``None`` when
        the block is uncompressed (always ``None`` with compression
        disabled)."""
        return self.lr_overlay.get((bi, bj))

    def enable_lr_overlay(self) -> None:
        """Size the arena's low-rank slab so compressed factors can be
        stored (and re-stored across ``refactorize``) without
        allocating.  Diagonal blocks are sized out — GETRF targets are
        never compressed.  No-op when already allocated."""
        arena = self.arena
        if arena.has_lr:
            return
        caps = np.zeros(self.num_blocks, dtype=np.int64)
        for bj in range(self.nb):
            for slot in range(int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])):
                bi = int(self.blk_rowidx[slot])
                if bi == bj:
                    continue
                m, n = self.block_order(bi), self.block_order(bj)
                nnz = int(arena.val_off[slot + 1] - arena.val_off[slot])
                caps[slot] = lr_profit_cap(m, n, nnz) * (m + n)
        arena.alloc_lr(caps)

    def set_compressed(
        self, bi: int, bj: int, u: np.ndarray, v: np.ndarray, *, src_nnz: int
    ) -> CompressedBlock:
        """Install a low-rank overlay for block ``(bi, bj)``.

        When the arena's low-rank slab has capacity for this rank, the
        factors are copied into zero-copy slab views (so refactorize
        re-compresses alloc-free and pickling ships one buffer);
        otherwise the overlay owns the arrays.  The exact CSC payload is
        untouched either way.
        """
        m, n = int(u.shape[0]), int(v.shape[0])
        rank = int(u.shape[1])
        slot = self.block_slot(bi, bj)
        arena = self.arena
        if (
            arena.has_lr
            and slot >= 0
            and rank * (m + n) <= arena.lr_capacity(slot)
        ):
            uv, vv = arena.lr_views(slot, (m, n), rank)
            uv[...] = u
            vv[...] = v
            arena.lr_rank[slot] = rank
            cb = CompressedBlock(shape=(m, n), u=uv, v=vv, src_nnz=int(src_nnz))
        else:
            cb = CompressedBlock(shape=(m, n), u=u, v=v, src_nnz=int(src_nnz))
        self.lr_overlay[(bi, bj)] = cb
        return cb

    def clear_compressed(self) -> None:
        """Drop every low-rank overlay (the refinement escalation path:
        back to exact CSC blocks everywhere)."""
        self.lr_overlay.clear()
        if self.arena.lr_rank is not None:
            self.arena.lr_rank[:] = -1

    def compression_stats(self) -> dict[str, int]:
        """Counters for stats/benches: how many blocks carry an overlay,
        the low-rank payload bytes, and the exact value bytes those
        blocks would cost uncompressed."""
        lr_bytes = 0
        csc_bytes = 0
        for (bi, bj), cb in self.lr_overlay.items():
            lr_bytes += cb.value_nbytes
            blk = self.block(bi, bj)
            if blk is not None:
                csc_bytes += blk.value_nbytes
        return {
            "blocks_compressed": len(self.lr_overlay),
            "lr_value_bytes": int(lr_bytes),
            "compressed_csc_bytes": int(csc_bytes),
        }

    def blocks_in_column(self, bj: int) -> tuple[np.ndarray, list[CSCMatrix]]:
        """(block-row indices, payloads) of block column ``bj``."""
        lo, hi = int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])
        return self.blk_rowidx[lo:hi], self.blk_values[lo:hi]

    def blocks_in_row(self, bi: int) -> list[tuple[int, CSCMatrix]]:
        """List of ``(bj, payload)`` for stored blocks in block row ``bi``."""
        out = []
        for bj in range(self.nb):
            blk = self.block(bi, bj)
            if blk is not None:
                out.append((bj, blk))
        return out

    # ------------------------------------------------------------------
    def to_csc(self) -> CSCMatrix:
        """Reassemble the global matrix (for verification)."""
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for bj in range(self.nb):
            lo, hi = int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])
            for slot in range(lo, hi):
                bi = int(self.blk_rowidx[slot])
                blk = self.blk_values[slot]
                r, c = blk.rows_cols()
                rows_parts.append(r + self.block_start(bi))
                cols_parts.append(c + self.block_start(bj))
                vals_parts.append(blk.data)
        from ..sparse.csc import coo_to_csc

        if not rows_parts:
            return CSCMatrix.empty((self.n, self.n))
        return coo_to_csc(
            (self.n, self.n),
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
        )

    def nnz_stats(self) -> dict[str, float]:
        """Summary statistics used by reports and the block-size bench."""
        nnzs = np.asarray([b.nnz for b in self.blk_values], dtype=np.int64)
        dens = np.asarray([b.density for b in self.blk_values])
        return {
            "num_blocks": int(nnzs.size),
            "nnz_total": int(nnzs.sum()) if nnzs.size else 0,
            "nnz_mean": float(nnzs.mean()) if nnzs.size else 0.0,
            "density_mean": float(dens.mean()) if dens.size else 0.0,
            "grid": self.nb,
        }


def _validate_boundaries(n: int, boundaries: np.ndarray) -> np.ndarray:
    """Check a block-boundary array for matrix order ``n``."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ValueError("boundaries must be a 1-D array of length >= 2")
    if boundaries[0] != 0 or boundaries[-1] != n:
        raise ValueError(
            f"boundaries must run from 0 to n={n}, got "
            f"[{boundaries[0]}, ..., {boundaries[-1]}]"
        )
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("boundaries must be strictly increasing")
    return boundaries


def block_partition(
    filled: CSCMatrix,
    bs: int | np.ndarray,
    *,
    dtype: np.dtype | type | None = None,
) -> BlockMatrix:
    """Split a filled matrix into the two-layer block structure.

    ``bs`` is either a scalar block size (regular layout: equispaced
    boundaries, last block possibly short) or an explicit boundary array
    of length ``nb + 1`` running from 0 to ``n`` — the output of a
    :class:`~repro.core.strategy.BlockingStrategy`.  Both go through the
    same splitting arithmetic, so a boundary array with regular spacing
    produces a bit-identical structure to the scalar form.

    Every stored entry of ``filled`` lands in exactly one block; blocks
    keep local CSC patterns with sorted-unique columns (inherited from the
    parent).  One stable sort of the entries by (block column, block row)
    lays out all blocks at once: O(nnz log nnz) time.

    The payloads are laid out in the result's :class:`FactorArena` —
    three contiguous slabs in storage-slot order — and every block is a
    zero-copy view into them.  The slabs are sized from the per-block
    extents, so variable-width blocks need no changes below this point.

    ``dtype`` sets the value dtype of the payloads (and the arena's data
    slab); ``None`` inherits the filled matrix's dtype.  Passing
    ``float32`` casts the (float64) fill values once, here — the working
    storage of the mixed-precision factor path.
    """
    dtype = np.dtype(dtype) if dtype is not None else filled.dtype
    n = filled.ncols
    if filled.nrows != n:
        raise ValueError("block partition requires a square matrix")
    if np.ndim(bs) == 0:
        bs = int(bs)
        if bs <= 0:
            raise ValueError("block size must be positive")
        bounds = boundaries_from_block_size(n, bs)
    else:
        bounds = _validate_boundaries(n, bs)
        bs = int(np.diff(bounds).max())
    nb = bounds.size - 1

    # stability keeps the parent's (col, row) order inside each block,
    # which is the block-local CSC order, so the sorted entries are the
    # slabs
    block_of = np.repeat(np.arange(nb, dtype=np.int64), np.diff(bounds))
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(filled.indptr))
    key = block_of[cols] * nb + block_of[filled.indices]
    order = np.argsort(key, kind="stable")
    key = key[order]
    nnz = key.size
    first = np.flatnonzero(np.diff(key, prepend=-1))  # each slot's first entry
    slot_key = key[first]
    del key
    blk_rowidx = slot_key % nb
    slot_col = slot_key // nb
    num_blocks = slot_key.size
    blk_colptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot_col, minlength=nb), out=blk_colptr[1:])
    val_off = np.append(first, nnz)
    entry_slot = np.repeat(np.arange(num_blocks, dtype=np.int64), np.diff(val_off))
    ptr_len = np.diff(bounds)[slot_col] + 1
    ptr_off = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(ptr_len, out=ptr_off[1:])
    # block-local indptr: count entries per (slot, local col + 1), then a
    # running sum restarted at every slot's first position
    local_col = cols[order] - bounds[slot_col][entry_slot]
    del cols
    per_col = np.bincount(ptr_off[entry_slot] + local_col + 1, minlength=int(ptr_off[-1]))
    indptr = np.cumsum(per_col) - np.repeat(val_off[:-1], ptr_len)
    del per_col, local_col

    return BlockMatrix(
        n=n,
        bs=bs,
        nb=nb,
        blk_colptr=blk_colptr,
        blk_rowidx=blk_rowidx,
        arena=FactorArena(
            indptr=indptr,
            indices=filled.indices[order] - bounds[blk_rowidx][entry_slot],
            data=filled.data[order].astype(dtype, copy=False),
            ptr_off=ptr_off,
            val_off=val_off,
            gather=order,
        ),
        dtype=dtype,
        boundaries=bounds,
    )

"""Blocking strategies — how the filled matrix is cut into blocks.

PanguLU's preprocessing (Section 4.1) uses one *regular* block size
computed from the matrix order and post-symbolic density.  That is simple
and cache-friendly, but on matrices with skewed fill it pads thin
supernodal structure into half-empty blocks and concentrates dense
separators into a few overloaded ones — the loss Hu et al. ("A
Structure-Aware Irregular Blocking Method for Sparse LU Factorization")
quantify and fix with pattern-chosen, variable-width boundaries.

This module is the seam between the two: a :class:`BlockingStrategy`
produces a block-boundary array from the filled pattern, and
:func:`~repro.core.blocking.block_partition` (plus everything downstream —
arena storage, mapping, kernels, runtime) consumes boundaries without
assuming uniform spacing.

* :class:`RegularBlocking` — equispaced boundaries; reproduces the
  historical scalar-``block_size`` behaviour bit-identically.
* :class:`IrregularBlocking` — supernode-guided boundaries: detect
  relaxed supernodes on the exact fill (``baseline/supernodes.py``),
  merge thin ones up to a width cap, and split dense separators that
  exceed it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..sparse.csc import CSCMatrix
from .blocking import (
    BlockMatrix,
    block_partition,
    boundaries_from_block_size,
    choose_block_size,
)

__all__ = [
    "BlockingStrategy",
    "RegularBlocking",
    "IrregularBlocking",
    "get_blocking_strategy",
    "BLOCKING_STRATEGIES",
]


class BlockingStrategy(ABC):
    """Chooses block boundaries for a filled (post-symbolic) matrix.

    Subclasses implement :meth:`boundaries`; :meth:`partition` then builds
    the two-layer :class:`~repro.core.blocking.BlockMatrix` from them.
    """

    #: registry key / user-facing name (``SolverOptions.blocking``)
    name: str = ""

    @abstractmethod
    def boundaries(self, filled: CSCMatrix) -> np.ndarray:
        """Block-boundary array (length ``nb + 1``, from 0 to ``n``)."""

    def partition(
        self, filled: CSCMatrix, *, dtype: np.dtype | type | None = None
    ) -> BlockMatrix:
        """Partition ``filled`` along this strategy's boundaries."""
        return block_partition(filled, self.boundaries(filled), dtype=dtype)


class RegularBlocking(BlockingStrategy):
    """Uniform block size — the paper's Section 4.1 regular layout.

    ``block_size=None`` defers to :func:`choose_block_size` on the filled
    pattern (order + density heuristic); an explicit size is used as-is.
    """

    name = "regular"

    def __init__(self, block_size: int | None = None):
        self.block_size = block_size

    def chosen_size(self, filled: CSCMatrix) -> int:
        return self.block_size or choose_block_size(filled.ncols, filled.nnz)

    def boundaries(self, filled: CSCMatrix) -> np.ndarray:
        return boundaries_from_block_size(
            filled.ncols, self.chosen_size(filled)
        )

    def partition(
        self, filled: CSCMatrix, *, dtype: np.dtype | type | None = None
    ) -> BlockMatrix:
        # pass the scalar through so the structure's nominal ``bs`` keeps
        # the requested value even when it exceeds the matrix order
        return block_partition(filled, self.chosen_size(filled), dtype=dtype)


class IrregularBlocking(BlockingStrategy):
    """Structure-aware variable-width blocking (Hu et al.).

    Boundaries follow the filled pattern's relaxed supernodes instead of a
    fixed stride, in three steps:

    1. detect relaxed supernodes on the exact fill with a *loose* width
       cap (``split_factor ×`` the target cap) so dense separators are
       allowed to form their natural wide panels;
    2. merge runs of thin supernodes into blocks: a neighbour is absorbed
       while the combined width stays within the cap and either side is
       still thinner than ``min_width`` (natural boundaries between two
       already-thick supernodes are kept);
    3. split any block still wider than the cap — the dense separators —
       into near-even chunks of at most ``max_width`` columns.

    The result keeps supernodal columns (identical row structure) inside
    one block, so blocks are either densely filled or hardly filled —
    less padding for dense-mapped kernels and more uniform per-block work
    than slicing the same pattern at arbitrary multiples of ``bs``.
    """

    name = "irregular"

    def __init__(
        self,
        max_width: int | None = None,
        *,
        min_width: int | None = None,
        relax_pad: float = 0.30,
        split_factor: int = 4,
    ):
        if max_width is not None and max_width <= 0:
            raise ValueError("max_width must be positive")
        self.max_width = max_width
        self.min_width = min_width
        self.relax_pad = relax_pad
        self.split_factor = max(1, int(split_factor))

    def boundaries(self, filled: CSCMatrix) -> np.ndarray:
        from ..baseline.supernodes import detect_supernodes

        n = filled.ncols
        cap = self.max_width or choose_block_size(n, filled.nnz)
        cap = max(1, min(cap, n))
        min_w = self.min_width or max(1, cap // 4)
        sn = detect_supernodes(
            filled,
            max_width=cap * self.split_factor,
            relax_pad=self.relax_pad,
        )
        merged = _merge_thin(sn.boundaries, cap=cap, min_width=min_w)
        return _split_wide(merged, cap=cap)


def _merge_thin(
    boundaries: np.ndarray, *, cap: int, min_width: int
) -> np.ndarray:
    """Greedy amalgamation of consecutive intervals.

    Absorb the next interval while the combined width fits the cap and at
    least one of the two sides is thinner than ``min_width`` — thin
    supernodes are folded into a neighbour, but a boundary between two
    already-thick supernodes survives.
    """
    widths = np.diff(boundaries)
    out = [0]
    acc = 0
    for w in widths:
        w = int(w)
        if acc and not (acc + w <= cap and (acc < min_width or w < min_width)):
            out.append(out[-1] + acc)
            acc = 0
        acc += w
    if acc:
        out.append(out[-1] + acc)
    return np.asarray(out, dtype=np.int64)


def _split_wide(boundaries: np.ndarray, *, cap: int) -> np.ndarray:
    """Split every interval wider than ``cap`` into near-even chunks."""
    out = [int(boundaries[0])]
    for b in boundaries[1:]:
        start, stop = out[-1], int(b)
        width = stop - start
        if width > cap:
            pieces = -(-width // cap)
            cuts = np.linspace(start, stop, pieces + 1).round().astype(np.int64)
            out.extend(int(c) for c in cuts[1:])
        else:
            out.append(stop)
    return np.asarray(out, dtype=np.int64)


BLOCKING_STRATEGIES: dict[str, type[BlockingStrategy]] = {
    RegularBlocking.name: RegularBlocking,
    IrregularBlocking.name: IrregularBlocking,
}


def get_blocking_strategy(
    blocking: str | BlockingStrategy, *, block_size: int | None = None
) -> BlockingStrategy:
    """Resolve an options-level spec to a strategy instance.

    ``blocking`` is a registry name (``"regular"`` / ``"irregular"``) or
    an already-constructed :class:`BlockingStrategy` (returned as-is —
    ``block_size`` is ignored then).  For names, ``block_size`` becomes
    the regular size or the irregular width cap respectively.
    """
    if isinstance(blocking, BlockingStrategy):
        return blocking
    try:
        cls = BLOCKING_STRATEGIES[blocking]
    except KeyError:
        raise ValueError(
            f"unknown blocking strategy {blocking!r}; "
            f"expected one of {sorted(BLOCKING_STRATEGIES)}"
        ) from None
    if cls is RegularBlocking:
        return RegularBlocking(block_size)
    return IrregularBlocking(block_size)

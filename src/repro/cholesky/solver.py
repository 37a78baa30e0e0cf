"""Block Cholesky driver and solver facade (SPD extension).

Reuses PanguLU's pipeline wholesale: fill-reducing ordering, symmetric
symbolic factorisation, regular 2D blocking — then factors only the
lower-triangular blocks with the three Cholesky kernels and solves
``L y = b`` / ``Lᵀ x = y`` over the block layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.blocking import BlockMatrix, block_partition, choose_block_size
from ..core.solver import SolverOptions, refine
from ..kernels.base import Workspace
from ..ordering import amd, nested_dissection, rcm
from ..sparse.csc import CSCMatrix
from ..symbolic import SymbolicResult, symbolic_symmetric
from .kernels import NotPositiveDefiniteError, potrf, syrk, syrk_flops, trsm

__all__ = ["CholeskyOptions", "PanguLLt"]


@dataclass
class CholeskyOptions:
    """Configuration of the SPD pipeline (no MC64 — SPD matrices need no
    static pivoting; symmetric permutation preserves definiteness)."""

    ordering: str = "nd"
    block_size: int | None = None


class PanguLLt:
    """Sparse Cholesky solver ``A = L·Lᵀ`` over the regular 2D block layout.

    Requires a symmetric positive definite matrix (symmetry of values is
    the caller's contract; definiteness is verified by the factorisation,
    which raises :class:`NotPositiveDefiniteError` otherwise).
    """

    def __init__(self, a: CSCMatrix, options: CholeskyOptions | None = None) -> None:
        if a.nrows != a.ncols:
            raise ValueError("Cholesky requires a square matrix")
        if a.nnz and not np.all(np.isfinite(a.data)):
            raise ValueError("matrix contains non-finite values (NaN/Inf)")
        self.a = a
        self.options = options or CholeskyOptions()
        self.phase_seconds: dict[str, float] = {}
        self.perm: np.ndarray | None = None
        self.symbolic: SymbolicResult | None = None
        self.blocks: BlockMatrix | None = None
        self.flops: int = 0
        self._factorized = False

    # ------------------------------------------------------------------
    def preprocess(self) -> BlockMatrix:
        """Ordering + symbolic + blocking of the lower triangle."""
        t0 = time.perf_counter()
        ordering = self.options.ordering
        if ordering == "nd":
            p = nested_dissection(self.a)
        elif ordering == "amd":
            p = amd(self.a)
        elif ordering == "rcm":
            p = rcm(self.a)
        elif ordering == "natural":
            p = np.arange(self.a.ncols, dtype=np.int64)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        self.perm = p
        work = self.a.permute(p, p)
        self.symbolic = symbolic_symmetric(work)
        filled = self.symbolic.filled
        # keep only the lower triangle (diagonal included)
        lower = _lower_triangle(filled)
        bs = self.options.block_size or choose_block_size(lower.ncols, lower.nnz)
        self.blocks = block_partition(lower, bs)
        self.phase_seconds["preprocess"] = time.perf_counter() - t0
        return self.blocks

    def factorize(self) -> int:
        """Right-looking block Cholesky in place; returns the structural
        FLOP count."""
        if self._factorized:
            return self.flops
        if self.blocks is None:
            self.preprocess()
        t0 = time.perf_counter()
        f = self.blocks
        ws = Workspace()
        total = 0
        for k in range(f.nb):
            diag = f.block(k, k)
            if diag is None:
                raise ValueError(f"empty diagonal block ({k},{k})")
            potrf(diag, ws)
            rows, blocks = f.blocks_in_column(k)
            panel = [(int(bi), blk) for bi, blk in zip(rows, blocks) if bi > k]
            for _, blk in panel:
                trsm(diag, blk, ws)
            for ai, (i, a_blk) in enumerate(panel):
                csup_a = np.diff(a_blk.indptr) > 0
                for j, b_blk in panel[: ai + 1]:
                    csup_b = np.diff(b_blk.indptr) > 0
                    if not bool(np.any(csup_a & csup_b)):
                        continue
                    target = f.block(i, j)
                    if target is None:
                        continue  # structurally empty product (mirror part)
                    syrk(target, a_blk, b_blk, ws)
                    total += syrk_flops(a_blk, b_blk)
        self.flops = total
        self.phase_seconds["numeric"] = time.perf_counter() - t0
        self._factorized = True
        return total

    # ------------------------------------------------------------------
    def _forward(self, b: np.ndarray) -> np.ndarray:
        """``L y = b`` (non-unit lower) over the block layout."""
        f = self.blocks
        y = b.copy()
        for k in range(f.nb):
            seg = f.block_slice(k)
            diag = f.block(k, k)
            _solve_lower_nonunit(diag, y[seg])
            rows, blocks = f.blocks_in_column(k)
            for bi, blk in zip(rows, blocks):
                bi = int(bi)
                if bi <= k:
                    continue
                tgt = f.block_slice(bi)
                cols = blk.cols_expanded()
                np.subtract.at(y[tgt], blk.indices, blk.data * y[seg][cols])
        return y

    def _backward(self, y: np.ndarray) -> np.ndarray:
        """``Lᵀ x = y`` over the block layout (transposed sweeps)."""
        f = self.blocks
        x = y.copy()
        for k in range(f.nb - 1, -1, -1):
            seg = f.block_slice(k)
            # contributions of later segments through L(i,k)ᵀ, i > k
            rows, blocks = f.blocks_in_column(k)
            for bi, blk in zip(rows, blocks):
                bi = int(bi)
                if bi <= k:
                    continue
                src = f.block_slice(bi)
                cols = blk.cols_expanded()
                np.subtract.at(x[seg], cols, blk.data * x[src][blk.indices])
            diag = f.block(k, k)
            _solve_lower_trans(diag, x[seg])
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``, refined by :func:`repro.core.solver.refine`
        to the ``SolverOptions`` default tolerance (``L·Lᵀ`` factors are
        exact, so a residual that stops contracting is returned as is)."""
        self.factorize()
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.a.nrows,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.a.nrows},)")

        def apply(rhs: np.ndarray) -> np.ndarray:
            z = self._backward(self._forward(rhs[self.perm]))
            out = np.empty_like(z)
            out[self.perm] = z
            return out

        x = refine(
            apply(b), b, apply, self.a.matvec,
            tol=SolverOptions.refine_tol,
            max_iter=SolverOptions.refine_max_iter, exact=True,
        )
        self.phase_seconds["solve"] = time.perf_counter() - t0
        return x

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``‖A x − b‖₂ / ‖b‖₂``."""
        r = self.a.matvec(x) - b
        return float(np.linalg.norm(r)) / (float(np.linalg.norm(b)) or 1.0)

    def factor_error(self) -> float:
        """``‖P A Pᵀ − L Lᵀ‖∞ / ‖A‖∞`` — factorisation check."""
        self.factorize()
        low = self.blocks.to_csc().to_dense()
        l = np.tril(low)
        ref = self.a.permute(self.perm, self.perm).to_dense()
        scale = np.abs(ref).max() or 1.0
        return float(np.abs(ref - (l @ l.T)).max() / scale)


def _lower_triangle(m: CSCMatrix) -> CSCMatrix:
    """Lower triangle (incl. diagonal) of a CSC matrix."""
    keep_idx: list[np.ndarray] = []
    indptr = np.zeros(m.ncols + 1, dtype=np.int64)
    vals: list[np.ndarray] = []
    data = m.data
    for j in range(m.ncols):
        sl = m.col_slice(j)
        rows = m.indices[sl]
        start = int(np.searchsorted(rows, j))
        keep_idx.append(rows[start:])
        vals.append(data[sl][start:])
        indptr[j + 1] = indptr[j] + keep_idx[-1].size
    return CSCMatrix(
        m.shape,
        indptr,
        np.concatenate(keep_idx) if keep_idx else np.zeros(0, np.int64),
        np.concatenate(vals) if vals else np.zeros(0),
        check=False,
    )


def _solve_lower_nonunit(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻¹ y`` for a POTRF'd block (non-unit lower)."""
    data = diag.data
    for j in range(diag.ncols):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        if rows.size == 0 or rows[0] != j or vals[0] == 0.0:
            raise NotPositiveDefiniteError(f"missing/zero L diagonal at {j}")
        y[j] /= vals[0]
        yj = y[j]
        if rows.size > 1 and yj != 0.0:
            y[rows[1:]] -= vals[1:] * yj


def _solve_lower_trans(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻ᵀ y`` for a POTRF'd block (backward sweep)."""
    data = diag.data
    for j in range(diag.ncols - 1, -1, -1):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        if rows.size == 0 or rows[0] != j or vals[0] == 0.0:
            raise NotPositiveDefiniteError(f"missing/zero L diagonal at {j}")
        acc = y[j]
        if rows.size > 1:
            acc = acc - float(vals[1:] @ y[rows[1:]])
        y[j] = acc / vals[0]

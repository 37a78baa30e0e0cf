"""PanguLU solver facade — the five phases glued together.

``PanguLU(a).solve(b)`` runs:

1. **Reordering** — MC64 row permutation + scaling for a large diagonal
   (numerical stability under static pivoting), then a fill-reducing
   symmetric permutation (nested dissection by default, AMD/RCM/natural
   selectable).
2. **Symbolic factorisation** — symmetric-pruned fill of the reordered
   matrix (:func:`repro.symbolic.symbolic_symmetric`).
3. **Preprocessing** — block-size selection, regular 2D blocking into the
   two-layer sparse structure, task-DAG construction, block-cyclic
   placement.
4. **Numeric factorisation** — DAG replay with adaptive sparse kernels.
5. **Triangular solve** — block forward/backward substitution through the
   engine named by ``options.engine`` (the same scheduler core as the
   numeric phase), then un-permutation and un-scaling of the solution.

Every phase's wall-clock time is recorded in :attr:`PanguLU.phase_seconds`
(the quantity compared in the paper's Figs. 11 and 15).

:meth:`PanguLU.factorize` returns a :class:`Factorization` — a picklable
factor-once/solve-many handle that owns phase 5: it can be shipped to
another process and solve fresh right-hand sides there without
refactorising (the Newton-iteration workload of the paper's
introduction).  :class:`PanguLU` builds the analysis and the one handle;
every operation on the factored system (``refactorize``,
``solve_transposed``, ``slogdet``, ``condest_1norm``, the verification
helpers) lives on the handle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ordering import amd, colamd, mc64, nested_dissection, rcm
from ..sparse.csc import CSCMatrix
from ..sparse.patterns import ensure_diagonal
from ..symbolic import SymbolicResult, symbolic_symmetric
from .blocking import BlockMatrix
from .dag import TaskDAG, build_dag
# unused here: perfbench's traced run wraps repro.core.solver.balance_loads
# and fails with AttributeError without it
from .mapping import balance_loads  # noqa: F401
from .placement import PlacementPolicy, resolve_placement
from .strategy import get_blocking_strategy
from .numeric import FactorizeStats, NumericOptions
from .tsolve import (
    TSolveStats,
    block_backward_trans,
    block_forward_trans,
)
from .tsolve_dag import build_tsolve_dag
from .verify import verify_dag

__all__ = ["SolverOptions", "Factorization", "PanguLU", "RefinementStalled", "refine"]


class RefinementStalled(ArithmeticError):
    """Mixed-precision iterative refinement could not reach the requested
    residual tolerance.

    Raised by :meth:`Factorization.solve` on the ``float32`` factor path
    when plain refinement stops contracting *and* the GMRES-IR escalation
    also fails to reach ``SolverOptions.refine_tol`` — typically a sign
    that the matrix is too ill-conditioned for single-precision factors
    (``κ(A) · ε₃₂ ≳ 1``).  The message reports the achieved relative
    residual so callers can decide whether to accept it or refactorise
    at ``factor_dtype="float64"``.

    Attributes
    ----------
    achieved:
        Best relative residual reached (max over right-hand sides).
    tol:
        The tolerance that was requested.
    iterations:
        Total refinement + escalation iterations spent.
    """

    def __init__(self, achieved: float, tol: float, iterations: int) -> None:
        self.achieved = float(achieved)
        self.tol = float(tol)
        self.iterations = int(iterations)
        super().__init__(
            f"mixed-precision refinement stalled at relative residual "
            f"{self.achieved:.3e} (tolerance {self.tol:.3e}, "
            f"{self.iterations} iterations); the matrix is likely too "
            f"ill-conditioned for float32 factors — refactorize with "
            f'factor_dtype="float64" or relax refine_tol'
        )

    def __reduce__(self):
        return (type(self), (self.achieved, self.tol, self.iterations))


def _fgmres(
    matvec,
    precond,
    r0: np.ndarray,
    tol_abs: float,
    maxiter: int,
    restart: int = 20,
) -> tuple[np.ndarray, int]:
    """Solve ``A y = r0`` by restarted FGMRES, right-preconditioned by the
    (low-precision) factor application ``precond``.

    This is the inner loop of GMRES-IR: the Krylov space is built on the
    true operator in working precision, so it converges where plain
    LU-IR with float32 factors stalls (κ(A)·ε₃₂ ≈ 1).  Returns the
    correction and the number of operator applications spent.
    """
    n = r0.size
    dt = r0.dtype
    y = np.zeros(n, dtype=dt)
    r = r0.copy()
    spent = 0
    while spent < maxiter:
        beta = float(np.linalg.norm(r))
        if beta <= tol_abs or not np.isfinite(beta):
            break
        m = min(restart, maxiter - spent)  # ≥ 1: spent < maxiter
        v = np.zeros((n, m + 1), dtype=dt)
        z = np.zeros((n, m), dtype=dt)
        h = np.zeros((m + 1, m), dtype=dt)
        v[:, 0] = r / beta
        k_used = 0
        for k in range(m):
            z[:, k] = precond(v[:, k])
            w = np.asarray(matvec(z[:, k]), dtype=dt)
            spent += 1
            for i in range(k + 1):
                h[i, k] = float(v[:, i] @ w)
                w = w - h[i, k] * v[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            k_used = k + 1
            if h[k + 1, k] <= np.finfo(dt).tiny:
                break
            v[:, k + 1] = w / h[k + 1, k]
        e1 = np.zeros(k_used + 1, dtype=dt)
        e1[0] = beta
        coef, *_ = np.linalg.lstsq(h[: k_used + 1, :k_used], e1, rcond=None)
        y = y + z[:, :k_used] @ coef
        r = r0 - np.asarray(matvec(y), dtype=dt)
        spent += 1
    return y, spent


def refine(
    x: np.ndarray,
    b: np.ndarray,
    apply_fn,
    matvec,
    *,
    tol: float,
    max_iter: int,
    exact: bool,
) -> np.ndarray:
    """The one refinement loop behind every solve, in float64: LU-IR
    sweeps ``x ← x + apply_fn(b − matvec(x))`` while the per-RHS relative
    residual exceeds ``tol``, until ``max_iter`` sweeps are spent, the
    residual is non-finite, or two sweeps in a row fail to halve it.

    ``exact`` factors (float64, uncompressed) then return ``x`` as it
    stands — static pivoting is backward stable, so a residual that stops
    contracting is the rounding floor, not an error.  Inexact factors
    escalate to GMRES-IR (FGMRES on ``A`` preconditioned by ``apply_fn``)
    and raise :class:`RefinementStalled` when that also misses ``tol``.
    """
    tol = float(tol)
    budget = max(1, int(max_iter))
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    multi = b.ndim == 2

    if multi:
        bden = np.linalg.norm(b, axis=0)
        bden = np.where(bden == 0.0, 1.0, bden)
    else:
        bden = float(np.linalg.norm(b)) or 1.0

    def rel(r: np.ndarray) -> float:
        if multi:
            return float(np.max(np.linalg.norm(r, axis=0) / bden))
        return float(np.linalg.norm(r)) / bden

    spent = 0
    r = b - matvec(x)
    worst = rel(r)
    prev = np.inf
    stall = 0
    while worst > tol and spent < budget and np.all(np.isfinite(r)):
        # a sweep that fails to halve the residual is "stalled" — the
        # factor error (κ(A)·ε₃₂, the overlay tolerance) or the rounding
        # floor is biting and more of the same will not converge
        if worst > 0.5 * prev:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
        prev = worst
        x = x + np.asarray(apply_fn(r), dtype=np.float64)
        spent += 1
        r = b - matvec(x)
        worst = rel(r)
    if worst <= tol or exact:
        return x

    # GMRES-IR escalation, one correction system per unconverged RHS
    if multi:
        mv1 = lambda v: matvec(v[:, None])[:, 0]  # noqa: E731
        ap1 = lambda v: apply_fn(v[:, None])[:, 0]  # noqa: E731
        col_rel = np.linalg.norm(r, axis=0) / bden
        todo = [j for j in range(b.shape[1]) if col_rel[j] > tol]
    else:
        mv1, ap1 = matvec, apply_fn
        todo = [None]
    esc_budget = max(budget, 20)
    for j in todo:
        rj = r[:, j] if multi else r
        dj = bden[j] if multi else bden
        y, used = _fgmres(mv1, ap1, np.asarray(rj, dtype=np.float64),
                          tol * float(dj), esc_budget)
        spent += used
        if multi:
            x[:, j] = x[:, j] + y
        else:
            x = x + y
    r = b - matvec(x)
    worst = rel(r)
    if worst <= tol:
        return x
    raise RefinementStalled(worst, tol, spent)


def _perm_sign(perm: np.ndarray) -> float:
    """Sign (±1) of a permutation via cycle counting."""
    n = perm.size
    seen = np.zeros(n, dtype=bool)
    sign = 1.0
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass
class SolverOptions:
    """Configuration of the full pipeline.

    Attributes
    ----------
    ordering:
        Fill-reducing ordering: ``"nd"`` (METIS-role nested dissection,
        the paper's choice), ``"amd"``, ``"colamd"``, ``"rcm"``,
        ``"natural"``, or ``"best"`` (evaluate ND and AMD, keep the one
        with least fill).
    use_mc64:
        Run the MC64 permutation/scaling (paper default).  Disable only
        for matrices already diagonally dominant.
    blocking:
        Blocking strategy for the two-layer structure: ``"regular"``
        (uniform block size — the paper's Section 4.1 layout, default)
        or ``"irregular"`` (structure-aware variable-width boundaries
        guided by the fill pattern's relaxed supernodes — Hu et al.).
        A :class:`~repro.core.strategy.BlockingStrategy` instance is
        accepted for full control.
    block_size:
        Regular block size — or, for ``blocking="irregular"``, the block
        width cap.  ``None`` applies the order/density heuristic of
        :func:`repro.core.blocking.choose_block_size`.
    numeric:
        Kernel selection, pivoting, execution-plan and low-rank
        compression options for the numeric phase
        (:class:`~repro.core.numeric.NumericOptions`).
    nprocs:
        Logical process count for the mapping and for the
        ``"distributed"``/``"hybrid"`` engines' rank count.
    placement:
        Block→rank ownership policy: ``"cyclic"`` (the paper's regular
        2D block-cyclic grid, default), ``"cost"`` (cost-model-driven
        heterogeneous placement honouring ``rank_speeds``), or a
        prebuilt :class:`~repro.core.placement.PlacementPolicy`
        instance.  The policy decides which rank owns (and therefore
        factors) every block, for the mapping, the distributed/hybrid
        engines and the solve DAGs alike.
    rank_speeds:
        Per-rank relative speed factors (length ``nprocs``) describing a
        heterogeneous machine; consumed by the ``"cost"`` placement.
        ``None`` means homogeneous.  The string ``"auto"`` calibrates the
        factors from a short deterministic kernel warmup at preprocessing
        time (:func:`repro.runtime.calibrate.calibrate_rank_speeds`) and
        stores the resolved tuple back on the options, so every later
        consumer (placement, engine re-resolution) sees concrete floats.
    engine:
        Execution engine for the numeric phase **and** for the triangular
        solves of phase 5, resolved through the registries in
        :mod:`repro.runtime.engines`: ``"sequential"``, ``"threaded"``
        (``n_workers`` threads), ``"distributed"`` (``nprocs`` ranks
        over a message transport) or ``"hybrid"`` (``nprocs`` ranks ×
        ``n_workers`` threads per rank — HYLU-style mixed parallelism).
        ``None`` (default) picks ``"threaded"`` when ``n_workers > 1``,
        else ``"sequential"``.  All engines produce bit-identical
        solutions — the solve DAG totally orders the writers of every
        RHS segment.
    n_workers:
        Worker threads for the ``"threaded"`` engine
        (:func:`repro.runtime.factorize_threaded`), and threads *per
        rank* for the ``"hybrid"`` engine.
    trace_events:
        Record structured scheduler events (task start/end, message
        send/recv, ready-queue depth) during the numeric phase and the
        triangular solves; after :meth:`PanguLU.factorize` the recorder
        is available as ``solver.recorder`` (solve-task lanes are
        appended to it by each :meth:`PanguLU.solve`) and can be
        serialised with :func:`repro.runtime.write_recorder_trace`.
    factor_dtype:
        Working precision of the numeric factors: ``"float64"`` (default)
        or ``"float32"``.  Single precision halves the arena ``data``
        slab, the per-block value arrays and the transport value bytes;
        accuracy is recovered by iterative refinement in float64
        (residuals and corrections accumulate in double precision — the
        classic mixed-precision LU-IR recipe, mirroring the production
        solver's paired r32/r64 kernels).
    refine_tol:
        Per-RHS relative-residual target ``‖b − A x‖ / ‖b‖`` of the
        refinement loop (:func:`refine`) that recovers what static
        pivoting (and reduced precision or compression) loses — the
        SuperLU_DIST recipe.  A first pass that meets it costs no sweep;
        inexact factors that cannot reach it raise
        :class:`RefinementStalled`.
    refine_max_iter:
        Iteration budget of the refinement loop (plain sweeps plus
        escalation matvecs).
    validate_concurrency:
        Run the numeric phase and the triangular solves under the
        :mod:`repro.devtools.racecheck` invariant checker: single writer
        per block slot (RHS segment for the solves), exactly-once task
        completion, no ready-heap re-issue, nothing dropped.  A violation
        raises
        :class:`~repro.devtools.racecheck.ConcurrencyViolation` naming
        the tasks and workers involved.  Also enabled globally by
        setting the ``REPRO_CHECK`` environment variable to a non-zero
        value.
    verify_schedule:
        Statically verify every built DAG (the factor DAG at
        preprocessing, each executable solve DAG on first use) with
        :func:`repro.core.verify.verify_dag` before any engine executes
        it: acyclicity, counter-equals-indegree, single-writer block
        chains, and solve-segment write ordering.  A violation raises
        :class:`~repro.core.verify.ScheduleViolation` with a named
        diagnostic instead of deadlocking mid-run.  Also exposed as the
        CLI ``--verify`` flag.
    """

    ordering: str = "nd"
    use_mc64: bool = True
    blocking: str = "regular"
    block_size: int | None = None
    numeric: NumericOptions = field(default_factory=NumericOptions)
    nprocs: int = 1
    placement: str | PlacementPolicy = "cyclic"
    rank_speeds: tuple[float, ...] | str | None = None
    factor_dtype: str = "float64"
    refine_tol: float = 1e-12
    refine_max_iter: int = 40
    n_workers: int = 1
    engine: str | None = None
    trace_events: bool = False
    validate_concurrency: bool = False
    verify_schedule: bool = False

    def resolved_engine(self) -> str:
        """The engine name after applying the ``None`` default rule."""
        if self.engine is not None:
            return self.engine
        return "threaded" if self.n_workers > 1 else "sequential"

    def resolved_factor_dtype(self) -> np.dtype:
        """``factor_dtype`` as a validated :class:`numpy.dtype`."""
        dt = np.dtype(self.factor_dtype)
        if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"factor_dtype must be float32 or float64, got {dt}"
            )
        return dt


class Factorization:
    """A factor-once/solve-many handle: everything phase 5 needs.

    Produced by :meth:`PanguLU.factorize`; the one owner of the factored
    system.  It holds the factored blocks, the scalings/permutations of
    phase 1, the current matrix ``a`` (replaced by :meth:`refactorize`)
    and the executable solve DAGs, and solves any number of right-hand
    sides through the engine named by ``options.engine``.

    The handle is **picklable**: the pattern-bound execution-plan cache
    (which holds a lock and is cheap to rebuild lazily) is dropped on
    serialisation and the factors ship as the arena's three slabs, so a
    factorisation computed once can be shipped to worker processes that
    each solve their own right-hand sides.

    Attributes
    ----------
    a, stats:
        The matrix the factors currently describe and the
        :class:`~repro.core.numeric.FactorizeStats` of the numeric run
        that produced them (both replaced by :meth:`refactorize`).
    solve_count, last_solve_seconds, total_solve_seconds:
        Accounting across :meth:`solve`/:meth:`solve_transposed` calls —
        ``total_solve_seconds`` accumulates (it is what
        ``PanguLU.phase_seconds["solve"]`` reports), ``last_solve_seconds``
        is the most recent call alone.
    last_tsolve_stats:
        :class:`~repro.core.tsolve.TSolveStats` of the most recent
        engine-driven sweep pair (task counts, message bytes for the
        distributed engine).
    """

    def __init__(
        self,
        a: CSCMatrix,
        options: SolverOptions,
        *,
        row_scale: np.ndarray,
        col_scale: np.ndarray,
        row_perm: np.ndarray,
        col_perm: np.ndarray,
        symbolic: SymbolicResult,
        reordered: CSCMatrix,
        blocks: BlockMatrix,
        dag: TaskDAG,
        stats: FactorizeStats,
        placement: PlacementPolicy | None = None,
    ) -> None:
        self.a = a
        self.options = options
        self.row_scale = row_scale
        self.col_scale = col_scale
        self.row_perm = row_perm
        self.col_perm = col_perm
        self.symbolic = symbolic
        self.reordered = reordered
        self.blocks = blocks
        self.dag = dag
        self.stats = stats
        self.solve_count = 0
        self.last_solve_seconds = 0.0
        self.total_solve_seconds = 0.0
        self.refactorize_seconds = 0.0
        self.last_tsolve_stats: TSolveStats | None = None
        self.placement = placement
        # executable solve DAGs, keyed by engine placement (the local
        # engines share one single-owner DAG; distributed/hybrid need
        # the ownership map of their rank count)
        self._tsolve_dags: dict = {}

    @property
    def n(self) -> int:
        return self.a.nrows

    # ------------------------------------------------------------------
    # engine dispatch
    # ------------------------------------------------------------------
    def _engine_placement(self) -> PlacementPolicy | None:
        """The fitted placement policy for a multi-rank engine run, or
        ``None`` for the local engines (which own everything).

        Reuses the policy fitted at preprocessing when its rank count
        matches ``options.nprocs``; otherwise resolves and fits a fresh
        one (e.g. the options changed after factorisation) and caches it
        on the handle.
        """
        if self.options.resolved_engine() not in ("distributed", "hybrid"):
            return None
        nprocs = max(1, self.options.nprocs)
        if self.placement is None or self.placement.nprocs != nprocs:
            self.placement = resolve_placement(
                self.options.placement, nprocs,
                speeds=self.options.rank_speeds,
            ).prepare(self.dag, self.blocks)
        return self.placement

    def _tsolve_dag(self):
        """The executable solve DAG for the current engine (cached —
        patterns are immutable post-symbolic, so it survives repeated
        solves and refactorisations)."""
        placement = self._engine_placement()
        if placement is not None:
            key = (placement.name, placement.nprocs)
            owner = placement.owner
        else:
            key = ("local", 1)

            def owner(bi: int, bj: int) -> int:
                return 0

        tdag = self._tsolve_dags.get(key)
        if tdag is None:
            tdag = build_tsolve_dag(self.blocks, owner, executable=True)
            if self.options.verify_schedule:
                verify_dag(tdag)
            self._tsolve_dags[key] = tdag
        return tdag

    def apply(self, b: np.ndarray, *, recorder=None) -> np.ndarray:
        """One pass of the permuted/scaled triangular solves: ``x`` with
        ``A x ≈ b`` up to static-pivoting error (vector or multi-RHS),
        executed by the engine named in the options."""
        from ..runtime.engines import get_tsolve_engine

        rs = self.row_scale if b.ndim == 1 else self.row_scale[:, None]
        cs = self.col_scale if b.ndim == 1 else self.col_scale[:, None]
        # Dr A Dc z = Dr b with x = Dc z; rows/cols permuted into block space
        c_hat = (rs * b)[self.row_perm]
        engine = get_tsolve_engine(self.options.resolved_engine())
        z_hat, tstats = engine(
            self.blocks, self._tsolve_dag(), c_hat, self.options,
            recorder=recorder, placement=self._engine_placement(),
        )
        self.last_tsolve_stats = tstats
        z = np.empty_like(z_hat)
        z[self.col_perm] = z_hat
        return cs * z

    def _apply_transposed(self, b: np.ndarray) -> np.ndarray:
        """One pass of the transposed solves ``Aᵀ x ≈ b`` (legacy loop
        sweeps — the transposed direction has no DAG path)."""
        # Aᵀ x = b  ⇔  Sᵀ w = Dc b with S = Dr A Dc, x = Dr w, and
        # m2ᵀ v = (Dc b)[col_perm], w[row_perm] = v
        c_hat = (self.col_scale * b)[self.col_perm]
        y = block_forward_trans(self.blocks, c_hat)
        v = block_backward_trans(self.blocks, y)
        w = np.empty_like(v)
        w[self.row_perm] = v
        return self.row_scale * w

    # ------------------------------------------------------------------
    # solves
    # ------------------------------------------------------------------
    @property
    def factor_dtype(self) -> np.dtype:
        """Value dtype of the stored factors (``blocks.dtype``)."""
        return self.blocks.dtype

    def _account(self, t0: float) -> None:
        self.last_solve_seconds = time.perf_counter() - t0
        self.total_solve_seconds += self.last_solve_seconds
        self.solve_count += 1

    def compression_active(self) -> bool:
        """True while the factors were computed with the low-rank block
        overlay enabled (``numeric.compress_tol > 0``) — i.e. they are
        tolerance-accurate, not exact, and a refinement stall must
        escalate instead of returning.  Judged from the options, not the
        overlay dict: on the distributed engine the compression happened
        on remote ranks and the master's overlay is empty, but the
        gathered factor values are approximate all the same."""
        return self.options.numeric.compress_tol > 0.0

    def decompress(self) -> FactorizeStats:
        """Refinement-escalation path: disable compression and refactorise
        the current matrix exactly (``refactorize`` drops every low-rank
        overlay).  After this the handle behaves like a compression-off
        factorisation (bit-identical factors to ``compress_tol=0``); the
        caller retries the solve against the exact factors."""
        self.options.numeric.compress_tol = 0.0
        return self.refactorize(self.a)

    def _refined(self, b: np.ndarray, apply_fn, matvec) -> np.ndarray:
        """``apply_fn(b)`` refined against ``b`` by :func:`refine`;
        compressed factors that stall are decompressed and the solve
        starts over against the exact factors."""
        opts = self.options
        compressed = self.compression_active()
        exact = self.factor_dtype == np.dtype(np.float64) and not compressed
        try:
            return refine(
                apply_fn(b), b, apply_fn, matvec,
                tol=opts.refine_tol, max_iter=opts.refine_max_iter, exact=exact,
            )
        except RefinementStalled:
            if not compressed:
                raise
            self.decompress()
            return self._refined(b, apply_fn, matvec)

    def solve(self, b: np.ndarray, *, recorder=None) -> np.ndarray:
        """Solve ``A x = b`` (vector or ``(n, k)`` multi-RHS panel),
        refined by :func:`refine` to ``options.refine_tol``.  Pass an
        :class:`~repro.runtime.scheduler.EventRecorder` to append
        solve-task trace lanes to it."""
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n or b.ndim > 2:
            raise ValueError(
                f"b has shape {b.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        mv = self.a.matmat if b.ndim == 2 else self.a.matvec
        x = self._refined(b, lambda r: self.apply(r, recorder=recorder), mv)
        self._account(t0)
        return x

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` using the same factorisation
        (``(LU)ᵀ = Uᵀ Lᵀ`` over the block layout — no second
        factorisation).  Needed by :meth:`condest_1norm` and by
        adjoint/sensitivity computations in circuit and PDE workloads."""
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.n},)")
        x = self._refined(b, self._apply_transposed, self._matvec_t)
        self._account(t0)
        return x

    def _matvec_t(self, x: np.ndarray) -> np.ndarray:
        """``Aᵀ @ x`` for a dense vector."""
        a = self.a
        y = np.zeros(a.ncols, dtype=np.float64)
        cols = np.repeat(np.arange(a.ncols), np.diff(a.indptr))
        np.add.at(y, cols, a.data * x[a.indices])
        return y

    # ------------------------------------------------------------------
    # refactorisation
    # ------------------------------------------------------------------
    def refactorize(self, a_new: CSCMatrix) -> FactorizeStats:
        """Re-run only the numeric phase for a matrix with the *same
        pattern* but new values (Newton steps in circuit/device
        simulation — the workload PanguLU's introduction motivates).

        Reuses the reordering, symbolic pattern, blocking, DAG, mapping,
        execution plans **and** the executable solve DAGs computed for
        the original matrix; only value injection and the numeric
        factorisation are repeated.  The value injection is a single
        in-place overwrite of the arena's value slab — no per-block array
        is allocated or rebound, so every block view, scatter plan and
        solve DAG survives untouched.
        """
        if a_new.shape != self.a.shape:
            raise ValueError("refactorize requires a same-shape matrix")
        if not (
            np.array_equal(a_new.indptr, self.a.indptr)
            and np.array_equal(a_new.indices, self.a.indices)
        ):
            raise ValueError("refactorize requires the original sparsity pattern")
        t0 = time.perf_counter()
        self.a = a_new
        work = a_new.scale(self.row_scale, self.col_scale).permute(
            self.row_perm, self.col_perm
        )
        self.reordered = ensure_diagonal(work)
        from ..runtime.engines import get_engine
        from ..symbolic import fill_in_values

        refreshed = fill_in_values(self.symbolic.filled, work)
        # stale overlays describe the previous values; the engine
        # re-compresses (into the same arena slab) as it factorises
        self.blocks.clear_compressed()
        self.blocks.arena.refill(refreshed.data)
        engine = get_engine(self.options.resolved_engine())
        self.stats = engine(
            self.blocks, self.dag, self.options,
            placement=self._engine_placement(),
        )
        self.refactorize_seconds = time.perf_counter() - t0
        return self.stats

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def slogdet(self) -> tuple[float, float]:
        """``(sign, log|det A|)`` from the factorisation (numpy.slogdet
        convention).

        Uses ``det(P₁ · Dr A Dc · P₂ᵀ) = Π diag(U)`` and corrects for the
        permutation signs and the MC64 scalings.
        """
        sign = 1.0
        logdet = 0.0
        for k in range(self.blocks.nb):
            d = self.blocks.block(k, k).diagonal()
            if np.any(d == 0.0):
                return 0.0, -np.inf
            sign *= float(np.prod(np.sign(d)))
            logdet += float(np.sum(np.log(np.abs(d))))
        sign *= _perm_sign(self.row_perm) * _perm_sign(self.col_perm)
        logdet -= float(np.sum(np.log(self.row_scale)))
        logdet -= float(np.sum(np.log(self.col_scale)))
        return sign, logdet

    def condest_1norm(self, *, max_iter: int = 8) -> float:
        """Estimate ``κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁`` (Hager's method).

        ``‖A⁻¹‖₁`` is estimated by power iteration on the signs of
        ``A⁻¹``/``A⁻ᵀ`` applications — a lower bound that is typically
        within a small factor of the truth, at the cost of a handful of
        triangular solves.
        """
        n = self.n
        x = np.full(n, 1.0 / n, dtype=np.float64)
        est = 0.0
        for _ in range(max_iter):
            y = self.solve(x)
            new_est = float(np.abs(y).sum())
            xi = np.sign(y)
            xi[xi == 0] = 1.0
            z = self.solve_transposed(xi)
            j = int(np.argmax(np.abs(z)))
            if new_est <= est or float(np.abs(z[j])) <= float(z @ x):
                est = max(est, new_est)
                break
            est = new_est
            x = np.zeros(n, dtype=np.float64)
            x[j] = 1.0
        return self.a.norm_1() * est

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``‖A x − b‖₂ / ‖b‖₂`` against the matrix the
        factors currently describe."""
        r = self.a.matvec(x) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom

    def lu_product_error(self) -> float:
        """Max-norm error ``‖(reordered A) − L·U‖∞ / ‖A‖∞`` — verifies the
        factorisation independently of any right-hand side."""
        lu = self.blocks.to_csc().to_dense()
        n = lu.shape[0]
        l = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        a_re = self.reordered.to_dense()
        scale = np.abs(a_re).max() or 1.0
        return float(np.abs(a_re - l @ u).max() / scale)


class PanguLU:
    """Sparse direct solver for ``A x = b`` (square, structurally
    nonsingular ``A``): the analysis builder.

    Runs phases 1–4 on demand, keeps their products (``symbolic``,
    ``blocks``, ``dag``, ``placement``, ``recorder``,
    ``phase_seconds``) and returns the one :class:`Factorization` handle
    from :meth:`factorize`; everything done to the factored system goes
    through that handle.  :meth:`solve` is the one-shot entry point.

    Parameters
    ----------
    a:
        The system matrix.
    options:
        Pipeline configuration; defaults reproduce the paper's setup.

    Examples
    --------
    >>> from repro.sparse import grid_laplacian_2d
    >>> import numpy as np
    >>> a = grid_laplacian_2d(16, 16)
    >>> solver = PanguLU(a)
    >>> x = solver.solve(np.ones(a.nrows))
    >>> float(np.linalg.norm(a.matvec(x) - 1.0)) < 1e-8
    True
    """

    def __init__(self, a: CSCMatrix, options: SolverOptions | None = None) -> None:
        if a.nrows != a.ncols:
            raise ValueError("PanguLU requires a square matrix")
        if a.nnz and not np.all(np.isfinite(a.data)):
            raise ValueError("matrix contains non-finite values (NaN/Inf)")
        self.a = a
        self.options = options or SolverOptions()
        self.phase_seconds: dict[str, float] = {}
        # phase products
        self.row_scale: np.ndarray | None = None
        self.col_scale: np.ndarray | None = None
        self.row_perm: np.ndarray | None = None   # combined row permutation
        self.col_perm: np.ndarray | None = None   # fill-reducing permutation
        self.symbolic: SymbolicResult | None = None
        self.blocks: BlockMatrix | None = None
        self.dag: TaskDAG | None = None
        self.placement: PlacementPolicy | None = None
        self.recorder = None  # EventRecorder of the factorize, if traced
        self._fact: Factorization | None = None

    @property
    def numeric_stats(self) -> FactorizeStats | None:
        """Stats of the numeric run behind the current factors (the
        handle's, so they follow ``factorize().refactorize``); ``None``
        before :meth:`factorize`."""
        return self._fact.stats if self._fact is not None else None

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def reorder(self) -> CSCMatrix:
        """Phase 1: MC64 + fill-reducing ordering; returns the reordered,
        scaled matrix the later phases factorise."""
        t0 = time.perf_counter()
        a = self.a
        n = a.ncols
        if self.options.use_mc64:
            res = mc64(a)
            self.row_scale = res.row_scale
            self.col_scale = res.col_scale
            work = a.scale(res.row_scale, res.col_scale).permute(res.row_perm, None)
            mc64_perm = res.row_perm
        else:
            self.row_scale = np.ones(n, dtype=np.float64)
            self.col_scale = np.ones(n, dtype=np.float64)
            work = a.copy()
            mc64_perm = np.arange(n, dtype=np.int64)

        ordering = self.options.ordering
        if ordering == "nd":
            p = nested_dissection(work)
        elif ordering == "amd":
            p = amd(work)
        elif ordering == "colamd":
            p = colamd(work)
        elif ordering == "rcm":
            p = rcm(work)
        elif ordering == "natural":
            p = np.arange(n, dtype=np.int64)
        elif ordering == "best":
            # try the serious candidates and keep the one with least fill —
            # ordering cost is small next to numeric factorisation
            from ..symbolic import symbolic_symmetric as _sym

            candidates = {"nd": nested_dissection(work), "amd": amd(work)}
            fills = {
                name: _sym(work.permute(q, q)).nnz_lu
                for name, q in candidates.items()
            }
            p = candidates[min(fills, key=fills.get)]
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        self.col_perm = p
        self.row_perm = mc64_perm[p]
        work = work.permute(p, p)
        work = ensure_diagonal(work)
        self.phase_seconds["reorder"] = time.perf_counter() - t0
        self._reordered = work
        return work

    def symbolic_factorize(self) -> SymbolicResult:
        """Phase 2: symmetric-pruned fill pattern of the reordered matrix."""
        if self.col_perm is None:
            self.reorder()
        t0 = time.perf_counter()
        self.symbolic = symbolic_symmetric(self._reordered)
        self.phase_seconds["symbolic"] = time.perf_counter() - t0
        return self.symbolic

    def preprocess(self) -> BlockMatrix:
        """Phase 3: blocking, DAG construction, block→rank placement
        (every task runs on the owner of its target block)."""
        if self.symbolic is None:
            self.symbolic_factorize()
        t0 = time.perf_counter()
        filled = self.symbolic.filled
        strategy = get_blocking_strategy(
            self.options.blocking, block_size=self.options.block_size
        )
        self.blocks = strategy.partition(
            filled, dtype=self.options.resolved_factor_dtype()
        )
        if self.options.numeric.compress_tol > 0.0:
            # pre-size the arena's low-rank slab so compression (and
            # re-compression on refactorize) is alloc-free
            self.blocks.enable_lr_overlay()
        self.dag = build_dag(self.blocks)
        if self.options.rank_speeds == "auto":
            from ..runtime.calibrate import calibrate_rank_speeds

            # resolve to a concrete tuple *before* any policy is built:
            # placement construction validates speeds as floats, and the
            # Factorization handle re-resolves placements from the same
            # options object later
            self.options.rank_speeds = calibrate_rank_speeds(self.options.nprocs)
        self.placement = placement = resolve_placement(
            self.options.placement, self.options.nprocs,
            speeds=self.options.rank_speeds,
        ).prepare(self.dag, self.blocks)
        if self.options.verify_schedule:
            verify_dag(
                self.dag, assignment=placement.assign(self.dag),
                nprocs=placement.nprocs,
            )
        self.phase_seconds["preprocess"] = time.perf_counter() - t0
        return self.blocks

    def factorize(self) -> Factorization:
        """Phase 4: numeric factorisation (idempotent — repeated calls
        return the same :class:`Factorization` handle).

        Dispatches to the engine named by ``options.engine`` through the
        registry in :mod:`repro.runtime.engines` — every engine drains
        the same DAG through the shared scheduler core and produces the
        same factors.  The returned handle owns phase 5, refactorisation
        and the diagnostics (and is picklable, so it can solve in other
        processes); it shares ``blocks`` with this builder.
        """
        if self._fact is not None:
            return self._fact
        if self.blocks is None:
            self.preprocess()
        t0 = time.perf_counter()
        from ..runtime.engines import get_engine
        from ..runtime.scheduler import EventRecorder

        engine = get_engine(self.options.resolved_engine())
        self.recorder = EventRecorder() if self.options.trace_events else None
        stats = engine(
            self.blocks, self.dag, self.options, recorder=self.recorder,
            placement=self.placement,
        )
        self.phase_seconds["numeric"] = time.perf_counter() - t0
        self._fact = Factorization(
            self.a, self.options,
            row_scale=self.row_scale, col_scale=self.col_scale,
            row_perm=self.row_perm, col_perm=self.col_perm,
            symbolic=self.symbolic, reordered=self._reordered,
            blocks=self.blocks, dag=self.dag, stats=stats,
            placement=self.placement,
        )
        return self._fact

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Phase 5: solve ``A x = b``, refined to ``options.refine_tol``,
        through the engine named by ``options.engine`` (factorising first
        if needed).

        ``b`` may be a vector of length ``n`` or an ``(n, k)`` array of
        ``k`` simultaneous right-hand sides.
        """
        fact = self.factorize()
        x = fact.solve(b, recorder=self.recorder)
        self.phase_seconds["solve"] = fact.total_solve_seconds
        return x

    def estimate(
        self,
        *,
        proc_counts: tuple[int, ...] = (1, 4, 16, 64),
        platforms: tuple | None = None,
    ) -> dict:
        """Plan a factorisation without doing the numeric work.

        Runs reordering, symbolic factorisation and preprocessing (all
        cheap relative to numeric factorisation), then reports what the
        numeric phase will look like: fill, FLOPs, storage, and predicted
        times/throughputs on the modelled platforms.  Useful for choosing
        a process count or checking that the factors fit in device memory
        before committing to the expensive phase.
        """
        from ..runtime.adapters import simulate_pangulu
        from ..runtime.machine import A100_PLATFORM, MI50_PLATFORM
        from .memory import memory_report

        if platforms is None:
            platforms = (A100_PLATFORM, MI50_PLATFORM)
        if self.blocks is None:
            self.preprocess()
        rep = memory_report(self.blocks)
        out = {
            "n": self.a.nrows,
            "nnz": self.a.nnz,
            "nnz_lu": self.symbolic.nnz_lu,
            "fill_ratio": self.symbolic.fill_ratio,
            "flops": self.dag.total_flops,
            "tasks": len(self.dag),
            "block_size": self.blocks.bs,
            "block_grid": self.blocks.nb,
            "blocking": self.options.blocking
            if isinstance(self.options.blocking, str)
            else self.options.blocking.name,
            "factor_bytes": rep.total_bytes,
            "predicted": {},
        }
        for platform in platforms:
            for p in proc_counts:
                sim = simulate_pangulu(self.blocks, self.dag, platform, p)
                out["predicted"][(platform.name, p)] = {
                    "seconds": sim.result.makespan,
                    "gflops": sim.gflops,
                    "sync_ratio": sim.result.sync_ratio(),
                }
        return out

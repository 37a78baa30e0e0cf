"""The three workloads and the run that measures them.

Every workload is a closed loop: one caller issues a request, waits for
the answer, checks it, and only then issues the next.  A request has a
*kind* (a matrix family, a Newton instance, an instance × RHS width);
latencies are summarised per kind and combined across kinds by a
geometric mean, so each kind weighs the same however many samples a run
fits in.  Each PanguLU request is timed beside SciPy's ``splu`` doing the
same job on the same inputs, which gives the splu ratio.
"""

from __future__ import annotations

import time
import traceback
from collections import defaultdict
from pathlib import Path

import scipy.sparse.linalg as spla

import inputs
import metrics
import spans

#: cold16: every analogue family, at this scale
COLD_SCALE = 0.3
#: newton: the circuit analogue.  Its generator draws a
#: random netlist, and across generator seeds the fill and factor flops
#: of one instance spread by ~35% (quartile distance over median), far
#: more than any bound a change could be held to; so, like the paper's
#: single ASIC_680k matrix, the topology is the generator's canonical
#: seed-0 netlist and the workload seed draws the values
NEWTON_MATRIX, NEWTON_SCALE, NEWTON_TOPOLOGY = "ASIC_680k", 0.2, 0
#: many_rhs: the FEM analogue
MANY_RHS_MATRIX, MANY_RHS_SCALE = "Hook_1498", 0.3
#: matrices set up per warm workload; the set-up is timed once per
#: instance and setup_s reports the median
INSTANCES = 3
#: worker processes of an untraced run.  The solver's speed differs by a
#: few percent from one process to the next even after the probe
#: normalisation (heap layout, hash seeds); pooling processes averages
#: that out.  A warm workload's worker sets up one instance; a cold16
#: worker makes at least one pass over the families
WORKERS = {"cold16": 2, "newton": INSTANCES, "many_rhs": INSTANCES}
#: many_rhs: every fifth request solves a panel of this many columns
PANEL, PANEL_EVERY = 16, 5


class Instance:
    """One matrix with its right-hand-side stream and, once set up, its
    factor handle.

    With ``topology_seed`` set, the pattern comes from that fixed
    generator seed and the workload seed draws the values (a seeded
    multiplicative perturbation of the generated ones); otherwise the
    workload seed drives the generator itself."""

    def __init__(self, name: str, scale: float, topology_seed: int | None,
                 seed: int, k: int) -> None:
        from repro.sparse import generate

        self.name = name
        self.k = k
        self.rhs = inputs.stream(seed, inputs.RHS, k)
        self.values = inputs.stream(seed, inputs.PERTURB, k)
        if topology_seed is None:
            self.a = generate(name, scale=scale, seed=inputs.matrix_seed(seed, k))
        else:
            base = generate(name, scale=scale, seed=topology_seed)
            self.a = inputs.perturb(base, self.values)
        self.A = inputs.to_scipy(self.a)
        self.b = self.rhs.standard_normal(self.a.nrows)
        self.fact = None
        self.lu = None
        self.solver = None


class Run:
    """Everything one run measures."""

    def __init__(self) -> None:
        self.gate = metrics.Gate()
        self.setup_s: list[float] = []
        self.pangulu: dict = defaultdict(list)   # kind -> seconds
        self.splu: dict = defaultdict(list)      # kind -> seconds
        self.norm: dict = defaultdict(list)      # kind -> seconds / probe seconds
        self.last_kind = None
        self.parts: dict = defaultdict(list)     # cold/refactor/solve/panel16 -> ms
        self.pivots_replaced = 0
        self.requests = 0

    def to_json(self) -> dict:
        return {
            "setup_s": self.setup_s, "pangulu": self.pangulu, "splu": self.splu,
            "norm": self.norm, "parts": self.parts, "pivots": self.pivots_replaced,
            "requests": self.requests, "attempted": self.gate.attempted,
            "failed": self.gate.failed, "reasons": self.gate.reasons,
        }

    def merge(self, d: dict) -> None:
        """Fold in another process's :meth:`to_json`."""
        self.setup_s += d["setup_s"]
        for mine, theirs in ((self.pangulu, d["pangulu"]), (self.splu, d["splu"]),
                             (self.norm, d["norm"]), (self.parts, d["parts"])):
            for k, v in theirs.items():
                mine[k] += v
        self.pivots_replaced += d["pivots"]
        self.requests += d["requests"]
        self.gate.attempted += d["attempted"]
        self.gate.failed += d["failed"]
        self.gate.reasons += d["reasons"]

    def record(self, kind: str, seconds: float, splu_seconds: float) -> None:
        self.pangulu[kind].append(seconds)
        self.splu[kind].append(splu_seconds)
        self.last_kind = kind

    def norm_latency_geomean(self) -> float:
        return metrics.geomean(metrics.median(v) for v in self.norm.values())

    def latency_ms_geomean(self) -> float:
        return 1e3 * metrics.geomean(metrics.median(v) for v in self.pangulu.values())

    def splu_ratio_geomean(self) -> float:
        return metrics.geomean(
            metrics.median(v) / metrics.median(self.splu[k])
            for k, v in self.pangulu.items()
        )

    def splu_s_geomean(self) -> float:
        return metrics.geomean(metrics.median(v) for v in self.splu.values())


def _timed_splu(A, b, lu=None):
    t0 = time.perf_counter()
    if lu is None:
        lu = spla.splu(A)
    x = lu.solve(b)
    return time.perf_counter() - t0, x


class Workload:
    """Set-up plus a request loop; subclasses define both."""

    name = ""
    #: requests a phase runs at least (cold16: one pass over the families)
    min_requests = 1

    def __init__(self, seed: int, part: int | None = None) -> None:
        self.seed = seed
        #: instance indices to set up (one per worker process)
        self.part = range(INSTANCES) if part is None else [part]
        self.instances: list[Instance] = []

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def request(self, run: Run, j: int, recorder) -> None:
        raise NotImplementedError

    def handles(self):
        """``(symbolic, blocks, dag)`` of every distinct factorisation."""
        for inst in self.instances:
            src = inst.fact if inst.fact is not None else inst.solver
            if src is not None:
                yield src.symbolic, src.blocks, src.dag

    def drive(self, run: Run, seconds: float, recorder=None) -> None:
        t_end = time.perf_counter() + seconds
        j = 0
        while j < self.min_requests or time.perf_counter() < t_end:
            run.last_kind = None
            try:
                self.request(run, j, recorder)
            except Exception as exc:  # a failed request is counted, not fatal
                where = traceback.extract_tb(exc.__traceback__)[-1]
                run.gate.fail(f"{self.name}#{j}", f"{type(exc).__name__}: {exc} "
                              f"at {Path(where.filename).name}:{where.lineno}")
            run.requests += 1
            if run.last_kind is not None:
                kind = run.last_kind
                run.norm[kind].append(run.pangulu[kind][-1] / metrics.probe())
            j += 1


class Cold16(Workload):
    """Each of the 16 analogue families through a from-scratch
    ``PanguLU(a).solve(b)``, round-robin, beside ``splu`` factor+solve."""

    name = "cold16"
    min_requests = 16

    def setup(self, run: Run) -> None:
        from repro.sparse import paper_matrix_names

        for k, name in enumerate(paper_matrix_names()):
            t0 = time.perf_counter()
            self.instances.append(Instance(name, COLD_SCALE, None, self.seed, k))
            run.setup_s.append(time.perf_counter() - t0)

    def request(self, run: Run, j: int, recorder) -> None:
        from repro import PanguLU, SolverOptions

        inst = self.instances[j % len(self.instances)]
        t0 = time.perf_counter()
        solver = PanguLU(inst.a, SolverOptions(trace_events=recorder is not None))
        x = solver.solve(inst.b)
        t = time.perf_counter() - t0
        ts, xs = _timed_splu(inst.A, inst.b)
        run.pivots_replaced += solver.numeric_stats.pivots_replaced
        if recorder is not None:
            # kept for the per-layer structure and memory counts; an
            # untraced run lets each family's solver go, as a caller
            # solving one system at a time would
            inst.solver = solver
            recorder.merge(solver.recorder)
        if run.gate.check(f"cold16/{inst.name}", inst.A, x, inst.b, reference=xs):
            run.record(inst.name, t, ts)
            run.parts["cold"].append(1e3 * t)


class Newton(Workload):
    """A circuit Newton loop: each step refactorises one of the set-up
    circuits with seeded new values on the same pattern, then solves."""

    name = "newton"
    matrix = (NEWTON_MATRIX, NEWTON_SCALE, NEWTON_TOPOLOGY)

    def setup(self, run: Run) -> None:
        from repro import PanguLU

        for k in self.part:
            t0 = time.perf_counter()
            inst = Instance(*self.matrix, self.seed, k)
            solver = PanguLU(inst.a)
            x = solver.solve(inst.b)
            inst.fact = solver.factorize()
            run.setup_s.append(time.perf_counter() - t0)
            run.pivots_replaced += solver.numeric_stats.pivots_replaced
            run.gate.check(f"{self.name}/setup{k}", inst.A, x, inst.b)
            self.instances.append(inst)

    def request(self, run: Run, j: int, recorder) -> None:
        inst = self.instances[j % len(self.instances)]
        a2 = inputs.perturb(inst.a, inst.values)
        A2 = inputs.to_scipy(a2)
        b = inst.rhs.standard_normal(a2.nrows)
        t0 = time.perf_counter()
        stats = inst.fact.refactorize(a2)
        t1 = time.perf_counter()
        x = inst.fact.solve(b, recorder=recorder)
        t2 = time.perf_counter()
        ts, _ = _timed_splu(A2, b)
        run.pivots_replaced += stats.pivots_replaced
        if run.gate.check(f"{self.name}/{inst.k}", A2, x, b):
            run.record(str(inst.k), t2 - t0, ts)
            run.parts["refactor"].append(1e3 * (t1 - t0))
            run.parts["solve"].append(1e3 * (t2 - t1))


class ManyRhs(Newton):
    """Solves on reused factor handles: single right-hand sides with a
    16-column panel every fifth request."""

    name = "many_rhs"
    matrix = (MANY_RHS_MATRIX, MANY_RHS_SCALE, None)

    def setup(self, run: Run) -> None:
        super().setup(run)
        for inst in self.instances:
            inst.lu = spla.splu(inst.A)

    def request(self, run: Run, j: int, recorder) -> None:
        inst = self.instances[j % len(self.instances)]
        width = PANEL if j % PANEL_EVERY == PANEL_EVERY - 1 else 1
        b = inst.rhs.standard_normal((inst.a.nrows, width) if width > 1 else inst.a.nrows)
        t0 = time.perf_counter()
        x = inst.fact.solve(b, recorder=recorder)
        t = time.perf_counter() - t0
        ts, _ = _timed_splu(inst.A, b, inst.lu)
        if run.gate.check(f"many_rhs/{inst.k}x{width}", inst.A, x, b):
            run.record(f"{inst.k}x{width}", t, ts)
            run.parts["panel16" if width > 1 else "solve"].append(1e3 * t)


WORKLOADS = {w.name: w for w in (Cold16, Newton, ManyRhs)}


def per_layer(workload: Workload, run: Run, tracer: spans.Tracer, recorder) -> dict:
    """The per-layer metrics of a traced phase, normalised per request
    where they accumulate with the run's length."""
    from repro.core.memory import memory_report

    nreq = max(1, run.requests)
    c = tracer.counters
    kernel_s = defaultdict(float)
    for ev in recorder.task_events:
        kernel_s[ev.cat] += ev.t1 - ev.t0
    factor_types = ("GETRF", "GESSM", "TSTRF", "SSSSM")
    kern_total = sum(kernel_s[t] for t in factor_types)
    tasks = c.get("kernels.tasks", 0.0)
    applies = tracer.calls("Factorization.apply")
    solves = tracer.calls("Factorization.solve")
    solve_ids = {sp.sid for sp in tracer.spans if sp.name == "Factorization.solve"}
    matvec_s = sum(sp.end - sp.start for sp in tracer.spans
                   if sp.name == "matvec" and sp.parent in solve_ids)
    nnz_lu = nb = ntasks = factor_bytes = plan_bytes = 0
    for symbolic, blocks, dag in workload.handles():
        nnz_lu += symbolic.nnz_lu
        nb += blocks.nb
        ntasks += len(dag.tasks)
        mem = memory_report(blocks)
        factor_bytes += mem.values_bytes + mem.layer2_index_bytes + mem.layer1_index_bytes
        plan_bytes += mem.plan_bytes
    return {
        "ordering.mc64_s": tracer.seconds("mc64") / nreq,
        "ordering.nd_s": tracer.seconds("nested_dissection") / nreq,
        "ordering.bfs_levels_calls": c.get("ordering.bfs_levels_calls", 0.0) / nreq,
        "symbolic.fill_s": tracer.seconds("symbolic_symmetric") / nreq,
        "symbolic.nnz_lu": nnz_lu,
        "symbolic.fill_in_values_s": tracer.seconds("fill_in_values") / nreq,
        "blocking.partition_s": tracer.seconds("block_partition") / nreq,
        "blocking.nb": nb,
        "dag.build_s": tracer.seconds("build_dag") / nreq,
        "dag.tasks": ntasks,
        "mapping.balance_s": tracer.seconds("balance_loads") / nreq,
        **{f"kernels.{t}_s": kernel_s[t] / nreq for t in factor_types},
        "kernels.flops": c.get("kernels.flops", 0.0) / nreq,
        "kernels.mflops_per_s": c.get("kernels.flops", 0.0) / kern_total / 1e6 if kern_total else 0.0,
        "kernels.planned_frac": c.get("kernels.planned", 0.0) / tasks if tasks else 0.0,
        "kernels.pivots_replaced": c.get("kernels.pivots_replaced", 0.0) / nreq,
        "scheduler.overhead_us_per_task":
            1e6 * (tracer.seconds("engine") - kern_total) / tasks if tasks else 0.0,
        "tsolve.apply_ms": 1e3 * tracer.seconds("Factorization.apply") / applies if applies else 0.0,
        "tsolve.tasks": c.get("tsolve.tasks", 0.0) / applies if applies else 0.0,
        "tsolve.dag_build_s": tracer.seconds("build_tsolve_dag") / nreq,
        "refine.applies_per_solve": applies / solves if solves else 0.0,
        "refine.matvec_ms": 1e3 * matvec_s / solves if solves else 0.0,
        "memory.factor_bytes": factor_bytes,
        "memory.plan_bytes": plan_bytes,
        "splu.factor_solve_s_geomean": run.splu_s_geomean(),
        "trace.spans": len(tracer.spans),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            part: int | None = None) -> dict:
    """Set up and run one workload (only instance ``part`` of a warm
    workload when given); returns what the caller reports."""
    workload = WORKLOADS[name](seed, part)
    run = Run()
    workload.setup(run)
    if not trace:
        workload.drive(run, seconds)
        return {"run": run}

    from repro.runtime.scheduler import EventRecorder

    # untraced first half, traced second half: the ratio of the two is
    # the tracing overhead (on cold16 each half is exactly one pass)
    half = 0.0 if isinstance(workload, Cold16) else seconds / 2
    workload.drive(run, half)
    traced = Run()
    tracer = spans.Tracer()
    recorder = EventRecorder()
    patches = spans.instrument(tracer, recorder)
    try:
        workload.drive(traced, half, recorder)
    finally:
        patches.restore()
    run.gate.attempted += traced.gate.attempted
    run.gate.failed += traced.gate.failed
    run.gate.reasons += traced.gate.reasons
    layer = per_layer(workload, traced, tracer, recorder)
    layer["trace.overhead_frac"] = metrics.geomean(
        metrics.median(v) / metrics.median(run.norm[k])
        for k, v in traced.norm.items() if run.norm.get(k)
    ) - 1.0
    return {"run": run, "tracer": tracer, "per_layer": layer}

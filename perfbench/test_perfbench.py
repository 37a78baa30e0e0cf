"""Tests of the benchmark's own arithmetic and input generation.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- percentile
@pytest.mark.parametrize("n", [11, 20, 21, 57, 99, 100, 101, 250, 1000, 1009])
def test_tail_percentile_leaves_ten_samples_above(n):
    xs = list(range(n, 0, -1))          # unsorted input on purpose
    got = metrics.tail_percentile(xs)
    if got is None:
        assert n <= 20                  # nothing above the median qualifies
        return
    p, value = got
    assert sum(1 for x in xs if x > value) >= 10
    # the next whole percentile would leave fewer than ten above it
    nxt = sorted(xs)[math.ceil(n * (p + 1) / 100) - 1]
    assert sum(1 for x in xs if x > nxt) < 10


def test_tail_percentile_known_values():
    xs = [float(i) for i in range(1, 101)]
    assert metrics.tail_percentile(xs) == (90, 90.0)
    assert metrics.tail_percentile(xs[:57]) == (82, 47.0)
    assert metrics.tail_percentile(xs[:20]) is None
    assert metrics.tail_percentile([]) is None


def test_summary_reports_count_median_and_tail():
    s = metrics.summary([float(i) for i in range(1, 101)])
    assert s == {"n": 100, "p50": 50.5, "p90": 90.0}


# ---------------------------------------------------------------- geomean
def test_geomean():
    assert metrics.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert metrics.geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
    assert metrics.geomean(v for v in (4.0, 1.0)) == pytest.approx(2.0)
    for bad in ([], [1.0, 0.0], [1.0, -2.0], [math.inf]):
        with pytest.raises(ValueError):
            metrics.geomean(bad)


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_union_of_children():
    parent = spans.Span(0, "p", 0.0, 10.0, None)
    kids = [
        spans.Span(1, "a", 1.0, 3.0, 0),
        spans.Span(2, "b", 2.0, 5.0, 0),    # overlaps a: the union counts once
        spans.Span(3, "c", 8.0, 12.0, 0),   # runs past the parent: clipped
        spans.Span(4, "g", 1.5, 2.5, 1),    # grandchild: only a's business
    ]
    selfs = spans.self_times([parent, *kids])
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nests_and_totals():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    assert [s.parent for s in tr.spans] == [None, 0, 0]
    tot = tr.totals()
    assert tot["inner"]["calls"] == 2
    assert tot["outer"]["self_s"] == pytest.approx(
        tot["outer"]["total_s"] - tot["inner"]["total_s"], abs=1e-9)


def test_patches_are_restored():
    class Box:
        def f(self):
            return 1

    tr = spans.Tracer()
    p = spans.Patches()
    original = Box.f
    p.wrap(Box, "f", spans._spanned(tr, "Box.f"))
    assert Box().f() == 1 and tr.calls("Box.f") == 1
    p.restore()
    assert Box.f is original


# ---------------------------------------------------------------- failures
def _system():
    a = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]))
    x = np.array([1.0, -2.0, 0.5])
    return a, x, a @ x


def test_gate_counts_a_wrong_solution_as_failed():
    a, x, b = _system()
    gate = metrics.Gate()
    assert gate.check("right", a, x, b)
    assert not gate.check("wrong", a, x + np.array([0.0, 1e-3, 0.0]), b)
    assert not gate.check("nan", a, np.full(3, np.nan), b)
    assert not gate.check("far from splu", a, x, b, reference=x * (1 + 1e-3))
    assert gate.check("near splu", a, x, b, reference=x * (1 + 1e-12))
    assert (gate.attempted, gate.failed) == (5, 3)
    assert len(gate.reasons) == 3 and "backward error" in gate.reasons[0]


def test_backward_error_of_panel_is_worst_column():
    a, x, b = _system()
    xs = np.column_stack([x, x])
    bs = np.column_stack([b, b])
    assert metrics.backward_error(a, xs, bs) < 1e-15
    xs[0, 1] += 1.0
    assert metrics.backward_error(a, xs, bs) == pytest.approx(
        metrics.backward_error(a, xs[:, 1], b))


def test_raising_request_is_counted_and_the_run_completes():
    class Flaky(workloads.Workload):
        name = "flaky"
        min_requests = 4

        def request(self, run, j, recorder):
            if j % 2:
                raise ArithmeticError("boom")
            a, x, b = _system()
            run.gate.check("ok", a, x, b)

    run = workloads.Run()
    Flaky(0).drive(run, 0.0)
    assert (run.requests, run.gate.attempted, run.gate.failed) == (4, 4, 2)
    assert "ArithmeticError: boom" in run.gate.reasons[0]


# ---------------------------------------------------------------- seeded inputs
def test_same_seed_same_inputs():
    one = workloads.Instance("ASIC_680k", 0.1, None, 7, 0)
    two = workloads.Instance("ASIC_680k", 0.1, None, 7, 0)
    assert np.array_equal(one.a.indptr, two.a.indptr)
    assert np.array_equal(one.a.indices, two.a.indices)
    assert np.array_equal(one.a.data, two.a.data)
    assert np.array_equal(one.b, two.b)
    assert np.array_equal(inputs.perturb(one.a, one.values).data,
                          inputs.perturb(two.a, two.values).data)


def test_other_seed_new_values_on_the_same_pattern():
    one = workloads.Instance("Hook_1498", 0.1, None, 1, 0)
    two = workloads.Instance("Hook_1498", 0.1, None, 2, 0)
    assert np.array_equal(one.a.indices, two.a.indices)
    assert not np.array_equal(one.a.data, two.a.data)
    assert not np.array_equal(one.b, two.b)
    # the Newton perturbation of one matrix under two seeds
    p1 = inputs.perturb(one.a, inputs.stream(1, inputs.PERTURB, 0))
    p2 = inputs.perturb(one.a, inputs.stream(2, inputs.PERTURB, 0))
    for p in (p1, p2):
        assert np.array_equal(p.indptr, one.a.indptr)
        assert np.array_equal(p.indices, one.a.indices)
        assert np.all(np.sign(p.data) == np.sign(one.a.data))
        ratio = p.data / one.a.data
        assert ratio.min() >= 1 - inputs.PERTURB_AMPLITUDE
        assert ratio.max() <= 1 + inputs.PERTURB_AMPLITUDE
    assert not np.array_equal(p1.data, p2.data)


def test_newton_topology_is_fixed_and_the_seed_draws_values():
    one = workloads.Instance("ASIC_680k", 0.1, 0, 1, 0)
    two = workloads.Instance("ASIC_680k", 0.1, 0, 2, 0)
    assert np.array_equal(one.a.indptr, two.a.indptr)
    assert np.array_equal(one.a.indices, two.a.indices)
    assert not np.array_equal(one.a.data, two.a.data)


def test_streams_are_independent():
    s = 5
    assert inputs.matrix_seed(s, 0) != inputs.matrix_seed(s, 1)
    assert inputs.matrix_seed(s, 0) != inputs.matrix_seed(s + 1, 0)
    r = inputs.stream(s, inputs.RHS, 0).standard_normal(4)
    p = inputs.stream(s, inputs.PERTURB, 0).standard_normal(4)
    assert not np.array_equal(r, p)

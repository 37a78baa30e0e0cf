"""The A/B summariser of ``scripts/bench_ab.py`` on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "lat", "unit": "x", "better": "lower", "bound": 0.25},
    {"name": "tput", "unit": "op/s", "better": "higher", "bound": 0.10},
]


def _run(lat: float, tput: float, failed: int = 0) -> dict:
    return {"failed": failed,
            "metrics": {"lat": {"value": lat, "unit": "x"},
                        "tput": {"value": tput, "unit": "op/s"}}}


def test_medians_quartiles_and_wins():
    base = [_run(10.0, 100.0), _run(12.0, 100.0), _run(14.0, 100.0), _run(16.0, 100.0)]
    change = [_run(9.0, 120.0), _run(13.0, 90.0), _run(13.0, 110.0), _run(15.0, 130.0)]
    out = bench_ab.summarise(base, change, END_TO_END)
    lat, tput = out["metrics"]
    assert (lat["base_median"], lat["change_median"]) == (13.0, 13.0)
    assert (lat["base_q1"], lat["base_q3"]) == (11.5, 14.5)
    assert lat["wins"] == 3 and lat["pairs"] == 4
    assert lat["worse_frac"] == 0.0 and not lat["over_bound"]
    # "higher is better": a larger change value wins
    assert tput["wins"] == 3
    assert tput["worse_frac"] == pytest.approx(-0.15)
    assert out["failed"] == {"base": 0, "change": 0}


def test_bound_is_relative_and_directional():
    base = [_run(10.0, 100.0), _run(10.0, 100.0)]
    worse = [_run(13.0, 89.0, failed=2), _run(13.0, 89.0, failed=1)]
    out = bench_ab.summarise(base, worse, END_TO_END)
    lat, tput = out["metrics"]
    assert lat["worse_frac"] == pytest.approx(0.30) and lat["over_bound"]
    assert tput["worse_frac"] == pytest.approx(0.11) and tput["over_bound"]
    assert (lat["wins"], tput["wins"]) == (0, 0)
    assert out["failed"] == {"base": 0, "change": 3}
    lines = bench_ab.format_summary(out)
    assert lines[0].startswith("lat [x]: base 10 ") and lines[0].endswith("YES")
    assert lines[-1] == "failed: base 0, change 3"

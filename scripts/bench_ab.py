"""A/B benchmark: the working tree against a base git ref, in alternating pairs.

Run from anywhere inside the repository::

    python3 scripts/bench_ab.py --base HEAD~1 --workload many_rhs --pairs 5 \\
        --seconds 15 --seed 3

The base ref is exported (``git archive``) into a temporary directory,
which is always removed afterwards.  Each pair runs
``perfbench/run.py --trace 0`` once on each side, alternating which side
goes first, and reads the JSON object on the last line of its output.
For every end-to-end metric of ``BENCHMARK.json`` the summary gives both
medians, the base's interquartile range, how many pairs the change won,
and whether the change is worse than the base by more than the metric's
``bound``; then the failed-request counts of both sides.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced perfbench run in ``checkout``; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(base: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of two or more paired runs (``base[i]`` with
    ``change[i]``).

    ``worse_frac`` is how much worse the change's median is than the
    base's, relative to the base median, in the metric's ``better``
    direction (negative when the change is better).
    """
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        b_med, c_med = statistics.median(b), statistics.median(c)
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
        worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
        rows.append({
            "name": name, "unit": spec["unit"],
            "base_median": b_med, "change_median": c_med,
            "base_q1": q1, "base_q3": q3,
            "wins": sum(sign * (ci - bi) < 0 for bi, ci in zip(b, c)),
            "pairs": len(b),
            "worse_frac": worse, "over_bound": worse > spec["bound"],
        })
    return {
        "metrics": rows,
        "failed": {"base": sum(r["failed"] for r in base),
                   "change": sum(r["failed"] for r in change)},
    }


def format_summary(summary: dict) -> list[str]:
    lines = []
    for m in summary["metrics"]:
        lines.append(
            f"{m['name']} [{m['unit']}]: base {m['base_median']:.4g} "
            f"(Q1-Q3 {m['base_q1']:.4g}-{m['base_q3']:.4g}), "
            f"change {m['change_median']:.4g} ({abs(m['worse_frac']):.1%} "
            f"{'worse' if m['worse_frac'] > 0 else 'better'}), "
            f"change wins {m['wins']}/{m['pairs']}, "
            f"over bound: {'YES' if m['over_bound'] else 'no'}")
    f = summary["failed"]
    lines.append(f"failed: base {f['base']}, change {f['change']}")
    return lines


def export_ref(ref: str, dest: Path) -> None:
    """Write the committed files of ``ref`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        export_ref(args.base, Path(tmp))
        sides = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res = run_once(sides[side], args.workload, args.seconds, args.seed)
                runs[side].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"pair {i + 1} {side:6s} {vals} failed={res['failed']}", flush=True)
    for line in format_summary(summarise(runs["base"], runs["change"], spec["end_to_end"])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

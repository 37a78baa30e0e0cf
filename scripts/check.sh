#!/bin/sh
# Repo-wide check: project lint (always) + ruff (when available) + the
# tier-1 test suite.  This is what CI and `make check` run; keep it in
# sync with ROADMAP.md.
set -eu

cd "$(dirname "$0")/.."

echo "== repro.devtools.lint (project rules) =="
PYTHONPATH=src python -m repro.devtools.lint src

echo "== repro.devtools flow analyses (whole-program) =="
PYTHONPATH=src python -m repro.devtools.lint src --flow \
    --baseline analysis-baseline.json --sarif analysis.sarif

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping generic lint =="
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== benchmark harness tests (perfbench) =="
PYTHONPATH=src python -m pytest -q perfbench

echo "== benchmarks still import (collect only) =="
PYTHONPATH=src python -m pytest --collect-only -q benchmarks

.PHONY: check lint analyze test bench-tier2 bench-e2e bench-ab

check:
	sh scripts/check.sh

# the project-specific AST lint needs only the stdlib, so it always runs;
# ruff adds the generic rules wherever it is installed
lint:
	PYTHONPATH=src python -m repro.devtools.lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; generic lint skipped"; \
	fi

# whole-program flow analyses (lock-order, dtype-flow, payload-escape)
# plus the per-module rules; gates on zero findings beyond the committed
# baseline and leaves a SARIF report for CI annotation
analyze:
	PYTHONPATH=src python -m repro.devtools.lint src --flow \
		--baseline analysis-baseline.json --sarif analysis.sarif

# tier-1 suite, then the benchmark harness's own tests (a change to the
# engine signature or the stats fields perfbench reads fails here, not
# in the benchmark run), then a collect-only pass over benchmarks/ so a
# deleted symbol a bench imports fails here too
test:
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python -m pytest -q perfbench
	PYTHONPATH=src python -m pytest --collect-only -q benchmarks

# regenerate BENCH_kernels.json (stamped with git SHA + timestamp +
# matrix set); absolute numbers are machine-dependent — the ratios are
# what reviews look at
bench-tier2:
	python benchmarks/run_tier2.py

# end-to-end benchmark (BENCHMARK.json): each workload untraced for the
# end-to-end metrics, then traced for the per-layer ones; BENCH_SEED and
# BENCH_SECONDS may be overridden on the command line
BENCH_SEED ?= 1
BENCH_SECONDS ?= 30
bench-e2e:
	for w in cold16 newton many_rhs; do \
		python3 perfbench/run.py --workload $$w --seed $(BENCH_SEED) --seconds $(BENCH_SECONDS) --trace 0 || exit 1; \
	done
	for w in cold16 newton many_rhs; do \
		python3 perfbench/run.py --workload $$w --seed $(BENCH_SEED) --seconds $(BENCH_SECONDS) --trace 1 || exit 1; \
	done

# alternating A/B pairs of the working tree against BENCH_BASE on one
# workload (scripts/bench_ab.py): both medians, the base's Q1-Q3, the
# change's wins and the bound check for every end-to-end metric
BENCH_BASE ?= HEAD
BENCH_WORKLOAD ?= many_rhs
BENCH_PAIRS ?= 5
bench-ab:
	python3 scripts/bench_ab.py --base $(BENCH_BASE) --workload $(BENCH_WORKLOAD) \
		--pairs $(BENCH_PAIRS) --seconds $(BENCH_SECONDS) --seed $(BENCH_SEED)

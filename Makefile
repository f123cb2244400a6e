# Development gate for the bitmap-vs-invlist reproduction.
#
#   make check   — ruff → mypy → contract analyzer → tier-1 tests
#   make e2e     — BENCHMARK.json's harness, quick: seven workloads,
#                  every end-to-end metric by name, answers checked (~1 min)
#   make e2e-compare A=parent.json B=change.json
#                — the pipeline's gate over two `run.py --out` files:
#                  per workload × metric medians, bound, verdict
#
# ruff/mypy are optional locally (install with `pip install -e .[lint]`);
# when absent those steps are skipped with a notice so the contract
# analyzer and the test suite still gate every change.  CI runs all four.

PY ?= python
export PYTHONPATH := src

.PHONY: check lint type analyze witness test bench e2e e2e-compare

check: lint type analyze test
	@echo "check: all gates passed"

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (pip install -e .[lint])"; \
	fi

type:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "type: mypy not installed, skipping (pip install -e .[lint])"; \
	fi

analyze:
	$(PY) -m repro.analysis --strict-noqa src/repro

witness:
	$(PY) -m repro.analysis.runtime_witness

test:
	$(PY) -m pytest -x -q

# The full pytest-benchmark sweep (~9 min).  CI's `check` job runs only
# the drivers that call repro.ops.evaluate, once per codec, timing off
# (144 tests, ~5 s) — so a change to the evaluator cannot break them
# unnoticed:
#   $(PY) -m pytest benchmarks/bench_fig4_ssb.py benchmarks/bench_fig5_tpch.py \
#       benchmarks/bench_fig6_web.py --benchmark-disable -q
bench:
	$(PY) -m pytest benchmarks -q

e2e:
	$(PY) benchmarks/e2e/run.py --quick

e2e-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make e2e-compare A=parent.json B=change.json"; exit 2; }
	$(PY) benchmarks/e2e/run.py --compare $(A) $(B)

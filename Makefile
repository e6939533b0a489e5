# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-output numbers examples lint coverage fault-matrix e2e-selftest profile ab ci clean

# Editable install with the consolidated dev dependency list — the same
# `[project.optional-dependencies] dev` extra every CI job installs from.
install:
	$(PYTHON) -m pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Regenerate every simulated number the repo reports (Table 1, Figs 9/10,
# A1-A8, the extension studies) into this scale's section of
# benchmarks/paper_numbers.json: half a minute at the default scale, minutes
# with REPRO_SCALE=full. The numbers are seed-deterministic, so the gate is
#   make numbers && git diff --exit-code benchmarks/paper_numbers.json
numbers:
	PYTHONPATH=src $(PYTHON) -m benchmarks.numbers

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

# Lint/typecheck exactly as the CI lint job does; skipped with a notice when
# the tools are not installed (they are not part of the runtime deps).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro benchmarks scripts tests; \
	else echo "ruff not installed; skipping (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# Tier-1 suite under coverage, enforcing the same floor as the CI tests job
# (py3.12 leg); writes the HTML report to htmlcov/. Skipped with a notice
# when pytest-cov is not installed (it is a dev-extra tool, not a runtime dep).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PYTHON) -m pytest -x -q \
			--cov=repro --cov-report=term-missing:skip-covered \
			--cov-report=html --cov-fail-under=70; \
	else echo "pytest-cov not installed; skipping (CI runs it)"; fi

# The CI fault-matrix smoke job: three seeded fault plans (loss burst,
# partition heal, crash/restart) at small n under the convergence auditor.
fault-matrix:
	PYTHONPATH=src $(PYTHON) scripts/run_fault_matrix.py --audit-dir benchmarks/out

# The end-to-end benchmark's self-test: every workload traced and untraced at
# smoke scale — the guard that the tracer's patch points survive a refactor.
e2e-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/tests/selftest.py -q

# Where a workload's time goes: cProfile over one untraced 5 s run of the
# end-to-end benchmark. Two tables: the top 30 functions by own time over the
# whole run (set-up and the harness's calibration kernel included), then the
# measured rounds' stage split — top 30 by cumulative time among the layers a
# round runs (routing, services, membership, state, traffic, faults, the
# event engine), which leaves the fixture build out — except for
# `construct_2k`, whose rounds *are* the build: there the second table is the
# construction layers. `make profile W=route_2k`.
W ?= engine_16k
ifeq ($(W),construct_2k)
PROFILE_LAYERS = repro/(coords|cluster|overlay|graph|netsim/(topology|physical))
else
PROFILE_LAYERS = repro/(routing|services|membership|state|traffic|faults|netsim/(eventsim|shard))
endif
profile:
	mkdir -p benchmarks/out
	$(PYTHON) -m cProfile -o benchmarks/out/$(W).pstats benchmarks/e2e/run.py --workload $(W) --seconds 5 --trace 0
	$(PYTHON) -c "import pstats; s = pstats.Stats('benchmarks/out/$(W).pstats'); s.sort_stats('tottime').print_stats(30); s.sort_stats('cumtime').print_stats('$(PROFILE_LAYERS)', 30)"

# Alternating A/B of the end-to-end benchmark against a reference commit (or
# a directory holding a checkout): medians, quartiles, pairs won and the
# BENCHMARK.json bound per workload and metric.
# `make ab REF=<commit> [W=<workload>] [PAIRS=10] [SEED=11]`; without W, every
# workload. RECORD=benchmarks/history.jsonl appends the comparison to the
# committed trajectory (one JSON line per run).
PAIRS ?= 10
SEED ?= 11
ab:
	$(PYTHON) scripts/ab_e2e.py $(REF) --pairs $(PAIRS) --seed $(SEED) $(if $(filter command% environment%,$(origin W)),--workload $(W)) $(if $(RECORD),--record $(RECORD))

# Mirror the full CI workflow locally: tier-1 tests, e2e self-test, lint,
# fault matrix, the simulated numbers and their exact gate.
ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) e2e-selftest
	$(MAKE) lint
	$(MAKE) fault-matrix
	$(MAKE) numbers
	git diff --exit-code benchmarks/paper_numbers.json

clean:
	rm -rf build *.egg-info benchmarks/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

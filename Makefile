# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-output numbers examples lint coverage fault-matrix e2e-selftest profile scale ab ci clean

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

# The CI fault-matrix smoke job: seeded fault plans (loss burst, partition
# heal, crash/restart wiped and warm, super-border crash) at small n under the
# convergence auditor; the two crash/restart plans also run under traffic.
fault-matrix:
	PYTHONPATH=src $(PYTHON) scripts/run_fault_matrix.py --audit-dir benchmarks/out

# The end-to-end benchmark's self-test: every workload traced and untraced at
# smoke scale — the guard that the tracer's patch points survive a refactor.
e2e-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/tests/selftest.py -q

# Where a workload's time goes: cProfile over one untraced 5 s run of the
# end-to-end benchmark (scripts/profile_e2e.py). Three tables: the top 30
# functions by own time over the whole run, the measured rounds' stage split
# by layer, and the cyclic collector's collections and seconds per generation
# (which cProfile cannot see); for route_2k also a single route's stage means
# and its numpy and Python calls, and the warm batch's ms per 1,000 requests
# by stage, timed around each stage. `make profile W=route_2k`.
W ?= engine_16k
profile:
	$(PYTHON) scripts/profile_e2e.py --workload $(W)

# What a cold build costs as n grows (scripts/build_scale.py): one
# HFCFramework.build(seed=11) per size, each in a fresh subprocess, printing
# build_s, the construct.* span split, shortest-path rows and relaxation
# rounds, peak RSS and the construction digest — the table ROADMAP item 4
# reads. `make scale N="2000 6000 10000"`. LIFECYCLE=1 adds, per size, the
# protocol to convergence, a traffic burst and an audited crash/restart on
# one simulator, in a second table (ROADMAP item 1's gate).
N ?= 2000 6000 10000
scale:
	$(PYTHON) scripts/build_scale.py $(if $(LIFECYCLE),--lifecycle) $(N)

# Alternating A/B of the end-to-end benchmark against a reference commit (or
# a directory holding a checkout): medians, quartiles, pairs won and the
# BENCHMARK.json bound per workload and metric.
# `make ab REF=<commit> [W="<workload> ..."] [PAIRS=10] [SEED=11]`; without W,
# every workload. RECORD=benchmarks/history.jsonl appends the comparison to the
# committed trajectory (one JSON line per run).
PAIRS ?= 10
SEED ?= 11
ab:
	$(PYTHON) scripts/ab_e2e.py $(REF) --pairs $(PAIRS) --seed $(SEED) $(if $(filter command% environment%,$(origin W)),$(foreach w,$(W),--workload $(w))) $(if $(RECORD),--record $(RECORD))

# Mirror the full CI workflow locally: tier-1 tests, e2e self-test, the
# profiling script at smoke size, the build-scale script at n=300 with its
# lifecycle table, one A/B pair of four
# workloads against HEAD, lint, fault matrix, the simulated numbers and their
# exact gate.
ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) e2e-selftest
	$(PYTHON) scripts/profile_e2e.py --workload engine_16k --scale smoke
	$(PYTHON) scripts/profile_e2e.py --workload churn_2k --scale smoke
	$(PYTHON) scripts/profile_e2e.py --workload route_2k --scale smoke
	$(PYTHON) scripts/profile_e2e.py --workload lifecycle_120 --scale smoke
	$(PYTHON) scripts/profile_e2e.py --workload construct_2k --scale smoke
	$(MAKE) scale N=300 LIFECYCLE=1
	$(MAKE) ab REF=HEAD W="route_2k churn_2k construct_2k lifecycle_120" PAIRS=1 RECORD=benchmarks/out/ab_smoke.jsonl
	$(MAKE) lint
	$(MAKE) fault-matrix
	$(MAKE) numbers
	git diff --exit-code benchmarks/paper_numbers.json

clean:
	rm -rf build *.egg-info benchmarks/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

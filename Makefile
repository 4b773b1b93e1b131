# Developer/CI entry points. `make lint test` is the same gate CI runs.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# `make sweep` knobs
JOBS ?= 4
SCALE ?= smoke
RESULTS_DIR ?= results

.PHONY: all lint analyze typecheck test test-fast test-contracts \
	baseline rules bench bench-quick bench-figures sweep chaos \
	fabric-smoke chaos-fleet validate perfbench-test

all: lint analyze test

## simlint over the library; exits nonzero on any non-baselined finding
lint:
	$(PYTHON) -m repro.analysis src --format json

## simlint + simflow (whole-program effect/dataflow/pickle analysis)
analyze:
	$(PYTHON) -m repro.analysis --whole-program src --format json

## mypy --strict over the typed core; skipped (exit 0) when mypy is not
## installed so offline checkouts are never blocked by an optional tool
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro/core src/repro/analysis; \
	else \
		echo "typecheck: mypy not installed, skipping"; \
	fi

## tier-1 test suite
test:
	$(PYTHON) -m pytest -x -q

## tier-1 minus the @pytest.mark.slow golden-trace replays (~3x faster
## edit loop; CI and `make test` still run everything)
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## tier-1 suite with runtime invariant contracts active
test-contracts:
	REPRO_CONTRACTS=1 $(PYTHON) -m pytest -x -q

## seeded property harness + analytic bound checker (reproducible fuzz)
validate:
	$(PYTHON) -m repro.validate --scenarios 25 --seed 0

## regenerate simlint-baseline.json (policy: keep it empty — fix findings)
baseline:
	$(PYTHON) -m repro.analysis src --write-baseline

## print the simlint rule table
rules:
	$(PYTHON) -m repro.analysis --list-rules

## simulator throughput benchmark; writes BENCH_sim.json and fails on a
## >15% events/sec regression against the committed baseline
bench:
	$(PYTHON) -m repro.bench --baseline benchmarks/perf/baseline.json

## CI smoke variant of `bench` (shorter runs, fewer repeats)
bench-quick:
	$(PYTHON) -m repro.bench --quick \
		--baseline benchmarks/perf/baseline.json

## the layered benchmark's own tests (~15 s): its workloads import
## simulator entry points, so a break there fails here, not mid-benchmark
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

## paper-figure microbenchmarks (pytest-benchmark; the old `make bench`)
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

## seeded fault-injection suite + checkpoint/resume selfcheck
chaos:
	$(PYTHON) -m repro.resilience --chaos --seed 7 --selfcheck

## campaign-service acceptance run: serial drain vs two concurrent
## worker pools with one killed mid-campaign; merged DBs must be
## bit-identical (same scenario CI's fabric-smoke job runs)
fabric-smoke:
	$(PYTHON) -m repro.fabric selfcheck --workdir .fabric-smoke \
		--num-jobs 24 --cycles 3000

## supervised-fleet acceptance run: a poisoned campaign drained on real
## storage and again behind a seeded FaultyFS with one pool hard-killed;
## both must end complete-degraded with identical fingerprints (same
## scenario CI's chaos-fleet job runs)
chaos-fleet:
	$(PYTHON) -m repro.fabric fleetcheck --workdir .fabric-fleet \
		--num-jobs 24 --cycles 1200

## run every experiment in parallel; a sweep that must survive
## interruption is `python -m repro.experiments --all --campaign DIR`
sweep:
	$(PYTHON) -m repro.experiments --all --jobs $(JOBS) --scale $(SCALE) \
		--save-dir $(RESULTS_DIR)

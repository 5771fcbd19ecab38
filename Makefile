# Convenience targets; everything also works as plain pytest invocations.

.PHONY: install test lint bench bench-only bench-kernel bench-service campaign-smoke dist-smoke serve-smoke workloads-smoke perfbench-smoke trace-demo experiments examples clean

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

# Config lives in pyproject.toml ([tool.ruff]).
lint:
	ruff check src tests benchmarks examples

bench:
	PYTHONPATH=src pytest benchmarks/

bench-only:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# Event-kernel vs tick-kernel speedups; --check gates against the
# committed BENCH_kernel.json, --obs-check gates disabled-instrumentation
# overhead (see docs/PERF.md and docs/OBSERVABILITY.md).
bench-kernel:
	PYTHONPATH=src python benchmarks/bench_kernel.py --quick --check --obs-check

# Campaign runner end to end (see docs/CAMPAIGN.md): run the Theorem-1
# grid (logp-on-bsp RunRequest points on the request target) on 2
# workers, kill it after 8 points, resume from the store, and gate the
# residual fits against the committed baseline.  The resumed run must
# report the first 8 points as cached.
campaign-smoke:
	PYTHONPATH=src python -m repro.experiments campaign th1-grid \
		--store campaigns/th1-grid --parallel 2 --force --stop-after 8
	PYTHONPATH=src python -m repro.experiments campaign th1-grid \
		--store campaigns/th1-grid --parallel 2 --metrics \
		--gate benchmarks/baselines/campaign_th1.json

# Real-process socket backend end to end (see docs/DIST.md): 2 worker
# processes, one injected SIGKILL at superstep 1.  The CLI exits
# nonzero unless the run matches the in-process reference AND the
# merged Lamport-log audit is clean; the follow-up check asserts the
# kill really fired (>= 1 restart), so recovery — not luck — passed.
dist-smoke:
	PYTHONPATH=src python -m repro.experiments dist ring --p 2 --rounds 3 \
		--seed 1 --kill 1:1 --json > dist-smoke.out
	PYTHONPATH=src python -c "import json; \
		doc = json.loads(open('dist-smoke.out').read().strip().splitlines()[-1]); \
		assert doc['reference_match'] and doc['audit']['clean'], doc['audit']; \
		assert doc['result']['restarts'] >= 1, 'kill never fired'; \
		print('dist-smoke ok:', doc['result'])"

# Simulation service end to end (see docs/SERVICE.md): start a real
# TCP server on an ephemeral port, drive 15 requests through real
# sockets (3 unique points x 4 concurrent copies, then 3 repeats), and
# self-check the counters: 3 misses, 9 in-flight dedups, 3 cache hits,
# pool saw exactly the 3 unique points, stats reconcile.  Each run uses
# a fresh temporary store, so it can be repeated.
serve-smoke:
	PYTHONPATH=src python -m repro.experiments serve --smoke

# Workload library end to end (see docs/WORKLOADS.md): every registered
# entry, every supported quick-grid point, run through the RunRequest
# path with its analytic cost model folded into the ledger check and
# its reference output validated.  Exits nonzero on any out-of-bound
# residual; writes the per-point JSON artifact.
workloads-smoke:
	PYTHONPATH=src python -m repro.experiments workloads run --all --quick \
		--out workloads-smoke.json

# End-to-end benchmark, correctness only (see perfbench/README.md): 5 s
# of each simulator workload and of serve-hot.  perfbench/run.py exits
# nonzero if any request's simulated statistics differ from
# perfbench/digests.json, or on any cost-check, validator or
# reconciliation failure; for serve-hot also on a response that is not
# ok or a warm point not served as a hit.  Speed is not gated here.
perfbench-smoke:
	python3 perfbench/run.py --workload sim-theorems --seconds 5 --trace 0
	python3 perfbench/run.py --workload sim-network --seconds 5 --trace 0
	python3 perfbench/run.py --workload serve-hot --seconds 5 --trace 0

# Served-requests/sec at 0/50/95% cache hit rate; asserts the counters
# reconcile and the hit path never reaches the pool (docs/SERVICE.md).
bench-service:
	PYTHONPATH=src python benchmarks/bench_service.py --quick

# Three-layer run with metrics + a Perfetto-loadable trace (trace.json).
trace-demo:
	PYTHONPATH=src python -m repro.experiments inspect bsp-on-logp-on-network --metrics --trace trace.json

# Every committed table, a few seconds: the ids T1, TH1, P1, TH2, TH3,
# ST, OB1, WP, AB, APP, BF, FR, SRT, PS and NS print every file that
# `make bench` writes to benchmarks/results/ (`run FR` alone gives the
# fault-resilience tables).
experiments:
	PYTHONPATH=src python -m repro.experiments run all

examples:
	for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src python $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis campaigns build *.egg-info dist-smoke.out workloads-smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +

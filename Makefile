# Developer entry points. `test` is the tier-1 gate; `lint` uses ruff when
# installed and a built-in unused-import checker otherwise; `bench-smoke`
# regenerates the two speed-critical results (Table II and the
# amortisation ablation) as a quick performance regression check.

PYTHONPATH := src

.PHONY: test test-all lint bench bench-smoke bench-json bench-service \
	bench-service-chaos bench-service-sharded bench-service-fleet-chaos \
	bench-config-derivation bench-plot

# Unit tests only: benchmarks (with their timing assertions) live in the
# separate bench targets so a loaded CI runner cannot flake the test gate.
test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q tests/

# The repo's full tier-1 gate: unit tests plus benchmark reproductions.
test-all:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

lint:
	python tools/lint.py

bench-smoke:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_table2_speed.py benchmarks/test_ablation_amortization.py

# Perf trajectory: mapper, energy-search, value-sim, and config-derivation
# throughput benchmarks write BENCH_*.json snapshots (mappings/s, values/s,
# configs/s, wall time) at the repo root, then each snapshot is appended —
# stamped with the git SHA — to BENCH_history.jsonl for the per-commit
# trend.  `make bench-plot` renders that trend (text fallback without
# matplotlib).
bench-json:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_mapper_throughput.py \
		benchmarks/test_energy_search_throughput.py \
		benchmarks/test_value_sim_throughput.py \
		benchmarks/test_config_derivation.py
	python tools/bench_record.py BENCH_mapper.json BENCH_energy_search.json \
		BENCH_value_sim.json BENCH_config_derivation.json \
		BENCH_config_derivation_warm.json

# Config-axis derivation only: the cold DSE-grid throughput benchmark and
# the warm near-duplicate-family scenario (a one-axis-perturbed family
# against a primed term cache must re-derive only the changed terms and
# land >= 5x faster than cold, bitwise identical).  Writes
# BENCH_config_derivation.json + BENCH_config_derivation_warm.json and
# appends the git-SHA-stamped snapshots to BENCH_history.jsonl.
bench-config-derivation:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_config_derivation.py
	python tools/bench_record.py BENCH_config_derivation.json \
		BENCH_config_derivation_warm.json

# Service replay: a 1k-request trace (>= 60% duplicates, 3 config
# families) through the coalescing scheduler vs serial per-request
# evaluation; asserts >= 5x and identical energies, writes
# BENCH_service.json, and appends the git-SHA-stamped snapshot to
# BENCH_history.jsonl.
bench-service:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_service_replay.py
	python tools/bench_record.py BENCH_service.json

# Service chaos replay: the same 1k-request trace under the standard
# fault-injection preset (corrupted store entries, quarantined and
# recomputed); asserts 100% correct results, no hung futures, <= 1.5x
# work amplification, and a chaos wall time no shorter than the cold
# fault-free replay's.  Writes BENCH_service_chaos.json and appends the
# git-SHA-stamped snapshot to BENCH_history.jsonl.
bench-service-chaos:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_service_chaos.py
	python tools/bench_record.py BENCH_service_chaos.json

# Sharded service replay: a 4k-request hotspot trace through a 4-shard
# fleet (consistent-hash routing, one scheduler process per shard,
# shared disk result tier) vs the single coalescing scheduler; asserts
# bitwise-identical energies and, on >= 4 cores, >= 2.5x throughput.
# Writes BENCH_service_sharded.json and appends the git-SHA-stamped
# snapshot to BENCH_history.jsonl.
bench-service-sharded:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_service_sharded.py
	python tools/bench_record.py BENCH_service_sharded.json

# Fleet chaos: the 4k-request hotspot trace through 4 shards with whole
# shard workers SIGKILLed at scheduled points mid-replay (plus frame
# corruption); asserts 4000/4000 results bitwise-identical to the
# fault-free sharded replay, zero hung futures, every crash detected and
# re-dispatched, and <= 1.5x re-dispatch amplification.  Writes
# BENCH_service_fleet_chaos.json.
bench-service-fleet-chaos:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only \
		benchmarks/test_service_fleet_chaos.py
	python tools/bench_record.py BENCH_service_fleet_chaos.json

bench-plot:
	python tools/bench_plot.py --text

bench:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -q --benchmark-only benchmarks/

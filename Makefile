# Convenience targets; verify is the pre-merge gate (see ROADMAP.md).
#
# Benchmark targets:
#   bench        — full-length microbenchmarks (benchtime=100x) of the vm,
#                  cache and engine hot paths, then the repository benchmark
#                  (benchmark/run.sh: every workload, seed 1). Comparing two
#                  commits is ./bench-compare.sh BASE_REF's job.
#   bench-smoke  — 1-iteration pass over every benchmark (benchtime=1x):
#                  proves they still compile and run; numbers meaningless.
# verify.sh's BENCH=1 / OBS=1 blocks call these targets, so the recipe lives
# in exactly one place.

.PHONY: build test race lint lint-bench verify bench bench-smoke fuzz-smoke obs-smoke chaos-smoke shard-smoke runtimeobs-smoke shootdown-smoke churn-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	go run ./cmd/spcdlint ./...

# Times a full-module spcdlint run (build excluded) and fails when it
# exceeds LINT_BUDGET seconds. The interprocedural rules type-check the
# whole module and build the call graph on every run; this target is the
# regression tripwire that keeps the linter cheap enough for pre-commit use.
LINT_BUDGET ?= 30

lint-bench:
	go build -o /tmp/spcdlint-bench ./cmd/spcdlint
	@start=$$(date +%s%N); \
	/tmp/spcdlint-bench ./... ; status=$$?; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	end=$$(date +%s%N); \
	elapsed_ms=$$(( (end - start) / 1000000 )); \
	echo "spcdlint full-module run: $${elapsed_ms} ms (budget $(LINT_BUDGET)s)"; \
	if [ $$elapsed_ms -gt $$(( $(LINT_BUDGET) * 1000 )) ]; then \
		echo "lint-bench: exceeded $(LINT_BUDGET)s budget" >&2; exit 1; \
	fi

verify:
	./verify.sh

bench:
	go test -run '^$$' -bench=. -benchmem -benchtime=100x \
		./internal/vm ./internal/cache ./internal/engine
	bash benchmark/run.sh

bench-smoke:
	go test -run '^$$' -bench=. -benchmem -benchtime=1x ./...

# Bounded native fuzzing, one target per `go test -fuzz` invocation.
# FuzzApplyStreams checks the sharded engine's barrier merge of per-thread
# cache event streams against a sort-and-apply reference. FuzzReadMatrixCSV
# checks that the matrix CSV reader never panics and accepts only
# communication matrices that round-trip. FuzzHierarchy checks the cache
# hierarchy's MESI invariants and counter identities under random access
# sequences. FuzzMaxWeightMatching checks Edmonds' matching against an
# exhaustive search on graphs of up to ten vertices. FuzzTable checks the
# SPCD hash table against a model of its overwrite-on-collision rules.
# FuzzAddressSpace checks the MMU's accesses, present-bit clears, page
# migrations and unmaps against a model of pages, TLBs and shootdown
# sharers. Each seed corpus is the package's testdata/fuzz; a crasher the
# fuzzer finds lands there too and then runs on every `go test`.
# FuzzAddressSpace minimizes each new input for at most 1s instead of the
# default 60s: in 3 of 3 paired 10s runs it then executed 2-4.5x more
# inputs. FuzzHierarchy and FuzzTable did not gain in every pair, so they
# keep the default (EXPERIMENTS.md, "Shrink each run's fixed state").
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzApplyStreams -fuzztime 20s ./internal/cache
	go test -run '^$$' -fuzz FuzzReadMatrixCSV -fuzztime 10s ./internal/commmatrix
	go test -run '^$$' -fuzz FuzzHierarchy -fuzztime 10s ./internal/cache
	go test -run '^$$' -fuzz FuzzMaxWeightMatching -fuzztime 10s ./internal/matching
	go test -run '^$$' -fuzz FuzzTable -fuzztime 10s ./internal/hashtab
	go test -run '^$$' -fuzz FuzzAddressSpace -fuzztime 10s -fuzzminimizetime 1s ./internal/vm

# The smoke grids, each defined once and shared by the targets below.
# OBS_GRID is the traced spcdobs run (obs-smoke, runtimeobs-smoke add the
# class); CHAOS_GRID is the chaossweep fault grid on ClassSmall (chaos-smoke,
# shootdown-smoke): a fixed fault plan, seed 42, intensity axis 0/0.5/1.
OBS_GRID = -bench CG -threads 8 -policies os,spcd
CHAOS_GRID = -bench CG -class small -threads 8 -policies os,spcd \
	-intensities 0,0.5,1 -seed 42 -reps 2

# OBS_DIR overrides where the trace/CSV artifacts land (CI uploads them).
OBS_DIR ?= .obs-smoke

obs-smoke:
	mkdir -p $(OBS_DIR)
	go run ./cmd/spcdobs $(OBS_GRID) -class test -dir $(OBS_DIR) -check

# -check reruns the whole CHAOS_GRID at parallelism 1 and 8 and requires
# byte-identical reports, so this both exercises every degradation path and
# proves the determinism contract holds under fault load.
chaos-smoke:
	go run ./cmd/chaossweep $(CHAOS_GRID) -check

# Host-side runtime observability end to end: a ClassSmall sharded run with
# -runtimeobs, then -check re-reads runtime_trace.json / runtime_summary.json
# and validates them (trace parses with >= 1 complete event; summary carries
# finite barrier-stall / imbalance / merge-share diagnostics for the sharded
# engine). RUNTIMEOBS_DIR overrides where the artifacts land (CI uploads).
RUNTIMEOBS_DIR ?= .runtimeobs-smoke

runtimeobs-smoke:
	mkdir -p $(RUNTIMEOBS_DIR)
	go run ./cmd/spcdobs $(OBS_GRID) -class small -shards 4 \
		-dir $(RUNTIMEOBS_DIR) -runtimeobs $(RUNTIMEOBS_DIR) -check

# Translation-coherence cost model under both schemes at ClassSmall scale:
# CHAOS_GRID runs once per mode in SHOOTDOWN_MODES, and each leg must be
# byte-identical at parallelism 1 vs 8 (-check) AND at shards 1 vs 4
# (-checkshards) — shootdown charging is canonical, so worker count and
# shard count cannot leak into the honest remap costs. The comparison CSVs
# land in SHOOTDOWN_DIR (CI uploads them as artifacts).
SHOOTDOWN_DIR ?= .shootdown-smoke
SHOOTDOWN_MODES = ipi hatric

shootdown-smoke:
	mkdir -p $(SHOOTDOWN_DIR)
	for mode in $(SHOOTDOWN_MODES); do \
		go run ./cmd/chaossweep $(CHAOS_GRID) -shootdown $$mode -check -checkshards \
			-csv $(SHOOTDOWN_DIR)/shootdown_$$mode.csv || exit 1; \
	done

# The long-running serving scenario under churn at ClassSmall scale: a
# two-tenant schedule (arrival, phase switch) across the fault-intensity
# axis, compared against its churn-free baseline. -check reruns the whole
# grid at parallelism 1 vs 8 and -checkshards at shards 1 vs 4; both must be
# byte-identical, proving the scenario loop, admission retries and churn
# governor stay on the deterministic path. The SLO CSV lands in CHURN_DIR
# (CI uploads it as an artifact).
CHURN_DIR ?= .churn-smoke

churn-smoke:
	mkdir -p $(CHURN_DIR)
	go run ./cmd/chaossweep -churn -tenants 2 -class small \
		-intensities 0,0.5,1 -seed 42 -reps 2 -check -checkshards \
		-csv $(CHURN_DIR)/slo_under_churn.csv

# The epoch-sharded engine's byte-identity gate at full ClassSmall scale:
# the complete kernel x policy grid must be identical at shards 1/2/4/8,
# plus the chaos leg (canonical fault plan at shards 1 vs 4). The same
# tests run at ClassTest inside ./verify.sh; this is the CI-scale tier.
shard-smoke:
	SWEEP_CLASS=small go test -run 'TestEngineSharding' -timeout 30m -v .

# Mirrors .github/workflows/ci.yml: `make ci` is the full gate.

GO ?= go

.PHONY: all build test bench bench-gen bench-trajectory bench-sweep bench-cache bench-traffic bench-failures bench-kernels bench-check staticcheck lint fmt ci

all: build

build:
	$(GO) build ./...

# The bench/ module sits outside the root ./... pattern; its tests pin
# the CLI paths to the benchmark replay.
test:
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark matrix (E1-E12 plus the engine comparisons); one
# iteration each, the CI smoke configuration. For real measurements
# drop -benchtime or raise it.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x ./...

# Generator smoke: one iteration of the sharded-vs-sequential 10k-node
# BA/GLP/PFP and econ rows, the CI gate for the sharded kernels. For
# real speedup numbers (100k rows, multi-core) run
#   go test -run '^$$' -bench 'Gen.*100k' -benchmem .
bench-gen:
	$(GO) test -run '^$$' -bench 'GenBA10k|GenGLP10k|GenPFP10k|GenEcon' -benchmem -benchtime=1x .

# Trajectory acceptance: the same 100k-node BA growth run observed at
# 100 epochs, measured via delta-refreshed snapshots (refresh) vs a
# full freeze per epoch (refreeze), plus the path-metric rows (the
# delta-repaired distance map vs cold pivot BFS per epoch) and the
# routing rows (shortest-path tree repair vs cold rebuild). Timings
# land in BENCH_trajectory.json; the CI smoke runs the 10k variant
# under -race.
bench-trajectory:
	$(GO) test -run TestTrajectoryBenchJSON -trajectory-bench-out BENCH_trajectory.json .

# Sweep smoke: the (ba,glp,pfp) × 4-seed grid at 2000 nodes, cells run
# sequentially vs fanned across the pool, byte-identical summaries
# checked and timings recorded in BENCH_sweep.json. The CI smoke runs a
# smaller grid; for real speedups raise -sweep-bench-n.
bench-sweep:
	$(GO) test -run TestSweepBenchJSON -sweep-bench-out BENCH_sweep.json .

# Cache acceptance: one BA topology fanned out to 8 workload variants,
# swept cold (artifact cache disabled) vs warm (all stages served from
# a primed cache), summaries asserted byte-identical, cold/warm rows
# merged into BENCH_sweep.json at the 10k smoke and 100k acceptance
# sizes. The warm row's speedup is gated by the sweep-cache-warm floor;
# the CI smoke runs a 2k variant under -race.
bench-cache:
	$(GO) test -run TestCacheBenchJSON -cache-bench-out BENCH_sweep.json .

# Workload acceptance: the flow-level simulator over a frozen BA map
# at 10k (smoke) and 100k (acceptance) nodes, epoch engine vs event
# engine over pre-routed flows, event-engine pool widths checked
# byte-identical and cross-engine per-flow completion times asserted,
# timings recorded in BENCH_traffic.json. The CI smoke runs a 2k
# variant under -race, once per engine.
bench-traffic:
	$(GO) test -run TestTrafficBenchJSON -traffic-bench-out BENCH_traffic.json .

# Failure acceptance: an outage/repair replay (2 random links down per
# epoch, revived two epochs later) over a 100k-node BA map, warm
# routing trees and a warm distance map maintained via the delta-scoped
# removal-repair paths (repair) vs cold rebuilds per failure epoch
# (rebuild). Timings land in BENCH_failures.json; the CI smoke runs
# the 10k variant under -race.
bench-failures:
	$(GO) test -run TestFailuresBenchJSON -failures-bench-out BENCH_failures.json .

# Kernel acceptance: the zero-alloc hot-path rows. Cold shortest-path
# tree builds over a degree-8 BA map, classic queue BFS vs the
# direction-optimizing hybrid (10k smoke row plus the acceptance size,
# 100k by default, where the hybrid must clear its 2x floor), then the
# steady-state rows the allocation ceilings gate: per-epoch marginal
# allocations of both simulation engines and per-refresh allocations of
# the warm distance map and routing state under edge churn. Rows land
# in BENCH_kernels.json; the CI smoke runs the 10k variant under -race.
bench-kernels:
	$(GO) test ./internal/traffic/ -run TestKernelsBenchJSON -kernels-bench-out $(CURDIR)/BENCH_kernels.json

# Benchmark-regression gate: the speedup fields of the BENCH_*.json
# files in the working tree must clear the committed floors in
# bench_floors.json. Floors scoped by min_n/min_cores skip rows from
# smoke configs and few-core boxes; required floors must find their
# acceptance-scale row.
bench-check:
	$(GO) run ./cmd/benchcheck -floors bench_floors.json

# staticcheck is pinned in CI (installed into the runner's Go bin);
# locally this uses whatever staticcheck is on PATH and explains how
# to get one when absent.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; run:" >&2; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2025.1.1" >&2; exit 1; }
	staticcheck ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

fmt:
	gofmt -w .

ci: build lint test bench bench-check

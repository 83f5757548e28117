# Mirrors .github/workflows/ci.yml: `make ci` is the full gate.

GO ?= go

.PHONY: all build test examples bench bench-json bench-check staticcheck lint fmt ci

all: build

build:
	$(GO) build ./...

# The bench/ module sits outside the root ./... pattern; its tests pin
# the CLI paths to the benchmark replay.
test:
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every program under examples/ run to completion (~10 s in total, the
# workload example most of it); stdout is discarded, a failing example
# stops the target.
examples:
	@for d in examples/*/; do \
		echo "run $$d"; \
		$(GO) run "./$$d" > /dev/null || exit 1; \
	done

# Full benchmark matrix (E1-E12 plus the engine comparisons); one
# iteration each, the CI smoke configuration. For real measurements
# drop -benchtime or raise it.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x ./...

# BENCH_*.json emission: every scenario of the one harness (sweep
# scaling, cached sweep, engine-vs-engine traffic, trajectory refresh,
# failure repair, plus the kernel speedup and zero-alloc rows) at
# acceptance scale, each asserting its equivalence contract, the five
# files written into the repo root. The combined run outlasts go test's
# 10-minute default timeout. For smoke sizes (the CI step, under -race)
# add -short and point -bench-out at a scratch directory.
bench-json:
	$(GO) test -timeout 90m -run TestBenchJSON . ./internal/traffic/ -bench-out $(CURDIR)

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

ci: build lint test examples bench bench-check

# Mirrors .github/workflows/ci.yml: `make ci` is the full gate.

GO ?= go

.PHONY: all build test examples experiments-check fuzz bench bench-json bench-smoke bench-check bench-verify staticcheck lint fmt ci

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

# The E1-E12 experiment tables (one iteration of each root E*
# benchmark, ~5 s) must match testdata/experiments.golden line for
# line; the timing lines and the goos/goarch/pkg/cpu/PASS/ok framing
# are stripped first. The tables are identical at every -cpu value, so
# a diff means a refactor changed a reported number.
experiments-check:
	@out=$$(mktemp) || exit 1; \
	$(GO) test -run '^$$' -bench 'E[0-9]' -benchtime=1x . > "$$out" 2>&1; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat "$$out"; rm -f "$$out"; exit $$status; fi; \
	grep -Ev '^(Benchmark|goos:|goarch:|pkg:|cpu:|PASS$$|ok )' "$$out" | diff -u testdata/experiments.golden -; \
	status=$$?; rm -f "$$out"; exit $$status

# Every Fuzz* target of every package, each run for 10 s beyond its
# seed corpus (plain `go test` runs only the seeds). -fuzz takes one
# package and one target at a time, so the targets are listed per
# package with `go test -list`; a package that fails to list fails the
# target. For a quick local pass run one target with -fuzztime 1s.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' "$$pkg") || exit 1; \
		for f in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test "$$pkg" -run '^$$' -fuzz "^$$f$$" -fuzztime 10s || exit 1; \
		done; \
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
# 10-minute default timeout. For smoke sizes run bench-smoke.
bench-json:
	$(GO) test -timeout 90m -run TestBenchJSON . ./internal/traffic/ -bench-out $(CURDIR)

# BENCH harness smoke (the CI step of the same name): every bench-json
# scenario at -short sizes under the race detector, each asserting its
# equivalence contract, written to a throwaway directory so the
# committed BENCH_*.json files stay untouched; the fresh rows must then
# trip no floor (benchcheck -lenient skips floors whose acceptance-scale
# rows a smoke run cannot produce).
bench-smoke:
	@dir=$$(mktemp -d) || exit 1; \
	$(GO) test -race -short -run TestBenchJSON . ./internal/traffic/ -bench-out "$$dir" && \
	$(GO) run ./cmd/benchcheck -dir "$$dir" -lenient; \
	status=$$?; rm -rf "$$dir"; exit $$status

# Benchmark-regression gate: the speedup fields of the BENCH_*.json
# files in the working tree must clear the committed floors in
# bench_floors.json. Floors scoped by min_n/min_cores skip rows from
# smoke configs and few-core boxes; required floors must find their
# acceptance-scale row.
bench-check:
	$(GO) run ./cmd/benchcheck -floors bench_floors.json

# bench-check reads the committed rows, so it says nothing about HEAD.
# This re-records every bench-json scenario at acceptance scale into a
# temporary directory and gates those fresh rows against the same
# floors; the committed BENCH_*.json files stay untouched. Long (the
# combined run outlasts go test's default timeout) and outside CI and
# `make ci`.
bench-verify:
	@dir=$$(mktemp -d) || exit 1; \
	$(GO) test -timeout 90m -run TestBenchJSON . ./internal/traffic/ -bench-out "$$dir" && \
	$(GO) run ./cmd/benchcheck -floors bench_floors.json -dir "$$dir"; \
	status=$$?; rm -rf "$$dir"; exit $$status

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

ci: build lint staticcheck test examples experiments-check fuzz bench bench-smoke bench-check

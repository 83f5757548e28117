// Package benchutil is the harness behind the BENCH_*.json files: the
// one row schema cmd/benchcheck reads, the -bench-out flag and the
// writer, the smoke/acceptance scale switch, and the allocation
// helpers. Allocation counts are exact heap-allocation figures around
// a measured region, read from the runtime's monotonic malloc counters;
// the rows record them as allocs_per_op / bytes_per_op, which
// cmd/benchcheck gates from above with max_allocs_per_op /
// max_bytes_per_op ceilings — the enforcement half of the zero-alloc
// steady-state contract.
//
// Every scenario test is named TestBenchJSON, so one command emits
// every file (go test ends its package list at the first flag it does
// not know, so the packages come before -bench-out):
//
//	go test -run TestBenchJSON . ./internal/traffic/ -bench-out DIR
//
// Add -short for the smoke sizes; without it the acceptance sizes run.
package benchutil

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var outDir = flag.String("bench-out", "", "write the BENCH_*.json files into this absolute directory (unset skips the BENCH scenarios)")

// Row is one BENCH_*.json row. Label fields are omitempty, so a row
// carries only the labels its scenario sets. The allocation fields are
// pointers so an explicit measured zero is emitted (omitempty would
// drop it) while rows that measure only time omit the fields — and
// benchcheck fails a ceiling against an absent field rather than
// passing it vacuously.
type Row struct {
	Name          string   `json:"name"`
	Engine        string   `json:"engine,omitempty"`
	Model         string   `json:"model,omitempty"`
	Models        string   `json:"models,omitempty"`
	N             int      `json:"n"`
	Seeds         int      `json:"seeds,omitempty"`
	Cells         int      `json:"cells,omitempty"`
	Epochs        int      `json:"epochs,omitempty"`
	FlowsPerEpoch int      `json:"flows_per_epoch,omitempty"`
	Pivots        int      `json:"pivots,omitempty"`
	Links         int      `json:"links,omitempty"`
	Sources       int      `json:"sources,omitempty"`
	Workers       int      `json:"workers"`
	Cores         int      `json:"cores"`
	NumCPU        int      `json:"num_cpu"`
	NsPerOp       int64    `json:"ns_per_op"`
	AllocsPerOp   *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp    *float64 `json:"bytes_per_op,omitempty"`
	Speedup       float64  `json:"speedup,omitempty"`
	// SpeedupVs names the row the speedup is measured against, so
	// every attribution in a file is explicit.
	SpeedupVs string `json:"speedup_vs,omitempty"`
}

// As returns r named name, measured at workers with the given time per
// op; the labels r already carries are shared by the rows built from it.
func (r Row) As(name string, workers int, perOp time.Duration) Row {
	r.Name, r.Workers, r.NsPerOp = name, workers, perOp.Nanoseconds()
	return r
}

// Against returns r with its speedup over base and base's name as the
// speedup's reference.
func (r Row) Against(base Row) Row {
	r.Speedup, r.SpeedupVs = float64(base.NsPerOp)/float64(r.NsPerOp), base.Name
	return r
}

// WithAllocs returns r with its per-op allocation fields set.
func (r Row) WithAllocs(allocs, bytes float64) Row {
	r.AllocsPerOp, r.BytesPerOp = &allocs, &bytes
	return r
}

// OutDir returns the -bench-out directory, skipping tb when the flag
// is unset. The path must be absolute: go test runs each package's
// binary in its own directory, so a relative path would scatter the
// files.
func OutDir(tb testing.TB) string {
	tb.Helper()
	if *outDir == "" {
		tb.Skip("enable with -bench-out <dir>")
	}
	if !filepath.IsAbs(*outDir) {
		tb.Fatalf("-bench-out %q: want an absolute directory", *outDir)
	}
	return *outDir
}

// Scale picks a scenario parameter: smoke under go test -short, the
// acceptance value otherwise.
func Scale[T any](smoke, acceptance T) T {
	if testing.Short() {
		return smoke
	}
	return acceptance
}

// WriteRows writes rows as an indented JSON array to dir/file, creating
// dir if needed and stamping each row with the cores it ran on
// (GOMAXPROCS) and the machine's CPU count.
func WriteRows(dir, file string, rows []Row) error {
	for i := range rows {
		rows[i].Cores, rows[i].NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644)
}

// Timed runs f once inside a MeasureAllocs window and returns its wall
// time with the allocations it performed. The settling GC runs before
// the clock starts, so the time stays clean and the op of the
// allocation counts is the same whole run.
func Timed(f func()) (elapsed time.Duration, allocs, bytes uint64) {
	allocs, bytes = MeasureAllocs(func() {
		start := time.Now()
		f()
		elapsed = time.Since(start)
	})
	return elapsed, allocs, bytes
}

// MeasureAllocs runs f once and returns the heap allocations (count and
// bytes) it performed, measured by differencing runtime.MemStats before
// and after. The counters are process-wide and monotonic (frees never
// decrease them), so the caller must keep concurrent allocators quiet —
// measured regions should run at workers=1, where the par helpers stay
// inline. A GC runs first so the collector's own bookkeeping settles
// outside the window.
func MeasureAllocs(f func()) (allocs, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	readBaseline(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// readBaseline reads the counters that open a measured window. Reading
// them stops the world, and restarting it may spawn an OS thread, whose
// runtime structures (the m, its g0 and signal g) are heap-allocated
// after the snapshot and would be charged to f — a handful of stray
// allocations, sporadically, under load. So the read repeats until one
// completes without creating a thread. Each retry leaves the new thread
// in the runtime's idle pool, which only grows to peak demand, so the
// loop ends after a read or two.
func readBaseline(m *runtime.MemStats) {
	for {
		threads, _ := runtime.ThreadCreateProfile(nil)
		runtime.ReadMemStats(m)
		if after, _ := runtime.ThreadCreateProfile(nil); after == threads {
			return
		}
	}
}

// MarginalAllocs differences two deterministic runs of the same seeded
// workload — short at ops1 operations, long at ops2 > ops1 — and
// attributes the surplus to the extra operations, returning per-op
// allocation counts. Identical seeding makes the long run's first ops1
// operations replay the short run exactly, so one-time setup costs
// cancel and what remains is the steady-state marginal cost: exactly
// zero when every buffer's high-water mark is reached inside the common
// prefix. run must construct all state fresh on each call (sharing
// warmed state across both calls is fine — it cancels too).
//
// Each arm runs three times and the per-arm minima are differenced. A
// seeded allocation repeats in every window, so the minimum keeps it;
// a stray runtime allocation (a background sweep, a timer) only ever
// adds to the one window it lands in, so the minimum drops it.
func MarginalAllocs(ops1, ops2 int, run func(ops int)) (allocsPerOp, bytesPerOp float64) {
	if ops2 <= ops1 {
		panic("benchutil: MarginalAllocs needs ops2 > ops1")
	}
	minAllocs := func(ops int) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for range 3 {
			a, b := MeasureAllocs(func() { run(ops) })
			allocs, bytes = min(allocs, a), min(bytes, b)
		}
		return allocs, bytes
	}
	a1, b1 := minAllocs(ops1)
	a2, b2 := minAllocs(ops2)
	span := float64(ops2 - ops1)
	// With identical seeding the short run never allocates more than
	// the long one; clamp anyway so a fluke reads 0, not 2^64.
	a1, b1 = min(a1, a2), min(b1, b2)
	return float64(a2-a1) / span, float64(b2-b1) / span
}

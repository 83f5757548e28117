// Package benchutil carries the allocation-measurement helper the
// BENCH_*.json emitters share: exact heap-allocation counts around a
// measured region, read from the runtime's monotonic malloc counters.
// The emitters record the results as allocs_per_op / bytes_per_op rows
// that cmd/benchcheck gates from above with max_allocs_per_op /
// max_bytes_per_op ceilings — the enforcement half of the zero-alloc
// steady-state contract.
package benchutil

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

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

// CountAllocs is MeasureAllocs without the settling GC: it differences
// the malloc counters around f and nothing else, so it can run inside
// a timed loop — accumulating per-epoch windows across a replay —
// without charging a full collection to every window. The trade-off is
// a little background noise (the collector's own bookkeeping is not
// flushed out first), which per-epoch accumulation amortizes away.
func CountAllocs(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	readBaseline(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
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
func MarginalAllocs(ops1, ops2 int, run func(ops int)) (allocsPerOp, bytesPerOp float64) {
	if ops2 <= ops1 {
		panic("benchutil: MarginalAllocs needs ops2 > ops1")
	}
	a1, b1 := MeasureAllocs(func() { run(ops1) })
	a2, b2 := MeasureAllocs(func() { run(ops2) })
	span := float64(ops2 - ops1)
	// The counters are monotonic but the short run can allocate more
	// than the long run's surplus implies never happens with identical
	// seeding; clamp anyway so a fluke reads 0, not 2^64.
	if a2 < a1 {
		a1 = a2
	}
	if b2 < b1 {
		b1 = b2
	}
	return float64(a2-a1) / span, float64(b2-b1) / span
}

// MergeBenchRows writes freshly measured rows into the JSON array at
// path without clobbering rows other emitters own: existing rows whose
// "name" matches an incoming row are replaced in place, new names
// append, everything else survives untouched. This lets several
// emitters (the sweep scaling rows and the artifact-cache rows, say)
// share one BENCH file while each refreshes only its own entries. A
// missing or empty file starts from an empty array; a file that does
// not parse as a JSON array is an error rather than silently replaced.
func MergeBenchRows(path string, rows any) error {
	raw, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("benchutil: encoding rows: %w", err)
	}
	var fresh []map[string]any
	if err := json.Unmarshal(raw, &fresh); err != nil {
		return fmt.Errorf("benchutil: rows must be a JSON array of objects: %w", err)
	}
	var existing []map[string]any
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &existing); err != nil {
			return fmt.Errorf("benchutil: merging into %s: %w", path, err)
		}
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	// Replacement is keyed on (name, n) so one emitter can publish the
	// same row name at several scales (smoke and acceptance) without the
	// scales overwriting each other.
	key := func(m map[string]any) string {
		return fmt.Sprintf("%v|%v", m["name"], m["n"])
	}
	index := make(map[string]int, len(existing))
	for i, row := range existing {
		index[key(row)] = i
	}
	merged := existing
	for _, row := range fresh {
		if i, ok := index[key(row)]; ok {
			merged[i] = row
		} else {
			index[key(row)] = len(merged)
			merged = append(merged, row)
		}
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversAllIndices: every index runs exactly once at any width.
func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 1000
		hits := make([]int32, n)
		For(n, workers, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEdgeSizes: empty, one-index, one-chunk and chunk-and-one loops
// run every index exactly once, also at the default width (0) and with
// more workers than chunks.
func TestForEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 1, Chunk, Chunk + 1, 1000} {
		for _, workers := range []int{0, 1, 4, 64} {
			hits := make([]int32, n)
			For(n, workers, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestForWorkerIndexBounds: the worker index handed to fn always lies
// in [0, Workers(workers)), the bound callers size per-worker scratch by.
func TestForWorkerIndexBounds(t *testing.T) {
	for _, workers := range []int{0, 1, 8, 64} {
		var bad atomic.Int32
		For(500, workers, func(w, _ int) {
			if w < 0 || w >= Workers(workers) {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: worker index out of bounds", workers)
		}
	}
}

// TestForStaticSchedule: the worker that owns an index is a pure
// function of (n, workers) — the property every deterministic merge in
// the toolkit rests on.
func TestForStaticSchedule(t *testing.T) {
	n, workers := 500, 4
	owner1 := make([]int32, n)
	owner2 := make([]int32, n)
	For(n, workers, func(w, i int) { owner1[i] = int32(w) })
	For(n, workers, func(w, i int) { owner2[i] = int32(w) })
	for i := range owner1 {
		if owner1[i] != owner2[i] {
			t.Fatalf("index %d owned by %d then %d", i, owner1[i], owner2[i])
		}
	}
	// Chunked round-robin: index i sits in chunk i/Chunk, assigned mod
	// workers.
	for i := range owner1 {
		if want := (i / Chunk) % workers; owner1[i] != int32(want) {
			t.Fatalf("index %d owned by %d, want %d", i, owner1[i], want)
		}
	}
}

// TestForInOrderWithinWorker: one worker processes its indices in
// ascending order.
func TestForInOrderWithinWorker(t *testing.T) {
	n := 300
	var last [4]int
	for w := range last {
		last[w] = -1
	}
	For(n, 4, func(w, i int) {
		if i <= last[w] {
			t.Errorf("worker %d saw %d after %d", w, i, last[w])
		}
		last[w] = i
	})
}

// TestWorkersNormalization: non-positive requests mean GOMAXPROCS.
func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive request must pass through")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("non-positive request must normalize to >= 1")
	}
}

// TestForEachCoversAllIndices: grain-one scheduling runs every index
// exactly once and actually fans out across workers (the failure mode
// it exists for: For's 16-index grain collapsing coarse loops onto one
// worker).
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 100
		hits := make([]int32, n)
		used := make([]int32, workers)
		ForEach(n, workers, func(w, i int) {
			atomic.AddInt32(&hits[i], 1)
			atomic.StoreInt32(&used[w], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		for w := 0; w < workers; w++ {
			if used[w] != 1 {
				t.Fatalf("workers=%d: worker %d never ran", workers, w)
			}
		}
	}
}

// TestForEachStaticSchedule: index i belongs to worker i % workers.
func TestForEachStaticSchedule(t *testing.T) {
	n, workers := 97, 4
	owner := make([]int32, n)
	ForEach(n, workers, func(w, i int) { owner[i] = int32(w) })
	for i := range owner {
		if owner[i] != int32(i%workers) {
			t.Fatalf("index %d owned by %d, want %d", i, owner[i], i%workers)
		}
	}
}

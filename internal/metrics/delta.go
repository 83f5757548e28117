package metrics

import (
	"math/bits"
	"slices"

	"netmodel/internal/graph"
)

// This file holds the incremental metric kernels behind the engine's
// trajectory mode: metrics that admit cheap delta maintenance are
// refreshed from (previous snapshot, previous value, delta) in time
// proportional to the change, instead of recomputed over the whole
// refreshed snapshot. The degree histogram is returned fresh; the
// triangle counts are updated in place. Every kernel is pinned against
// its full recompute by the equivalence tests in delta_test.go. Two
// kernels keep state across epochs instead of a previous value: the
// k-core lives in coremap.go, where CoreMap maintains a k-order and
// promotes only the nodes whose remaining degree rises; distance-based
// metrics live in dynbfs.go, where the DistMap structure carries
// repaired BFS rows across epochs and derives path lengths and
// closeness from them.

// GrowthStats is the per-epoch observation vector of a growth
// trajectory: the metrics of the paper's growth measurements that
// admit delta maintenance — degree structure, clustering via touched
// wedges, core depth, and (when a DistMap is maintained alongside the
// trajectory) the distance family. The path fields are zero when the
// trajectory runs without path metrics; PathSources > 0 marks an
// observation that carried them.
type GrowthStats struct {
	N, M, Strength int
	AvgDegree      float64
	MaxDegree      int
	Gamma, GammaKS float64 // degree-tail fit from the histogram, 0 when no regime fits
	AvgClustering  float64
	Transitivity   float64
	MaxCore        int

	// Distance family, maintained by the incremental DistMap: the BFS
	// source count (n in exact mode, the pivot count in sampled mode),
	// the mean distance and diameter over reached (source, node) pairs,
	// and closeness averaged over all nodes.
	PathSources   int
	AvgPathLen    float64
	Diameter      int
	MeanCloseness float64
}

// DegreeHistogramFrozen returns hist[k] = number of nodes of degree k,
// the sufficient statistic of the degree-tail fit.
func DegreeHistogramFrozen(s *graph.Snapshot) []int {
	hist := make([]int, s.MaxDegree()+1)
	for u := 0; u < s.N(); u++ {
		hist[s.Degree(u)]++
	}
	return hist
}

// RefreshDegreeHistogram maintains the degree histogram across a
// refresh: touched endpoints move between bins, new nodes enter theirs.
// prevHist must be the histogram of prev; the result equals
// DegreeHistogramFrozen(next).
func RefreshDegreeHistogram(prev, next *graph.Snapshot, d *graph.Delta, prevHist []int) []int {
	size := next.MaxDegree() + 1
	if len(prevHist) > size {
		size = len(prevHist)
	}
	hist := make([]int, size)
	copy(hist, prevHist)
	oldN := prev.N()
	edges := d.Edges()
	touched := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		if e.OldW != 0 && e.NewW != 0 {
			continue // multiplicity change: degrees untouched
		}
		// New nodes are binned below.
		if int(e.U) < oldN {
			touched = append(touched, e.U)
		}
		if int(e.V) < oldN {
			touched = append(touched, e.V)
		}
	}
	slices.Sort(touched)
	for _, u := range slices.Compact(touched) {
		hist[prev.Degree(int(u))]--
		hist[next.Degree(int(u))]++
	}
	for u := oldN; u < next.N(); u++ {
		hist[next.Degree(u)]++
	}
	return hist[:next.MaxDegree()+1]
}

// growRow extends a node-indexed row to n entries, the new tail set to
// fill, for state that follows a growing snapshot. When the capacity
// runs out it doubles, so a row that gains a sliver of nodes each
// epoch is copied O(log n) times over a trajectory rather than once per
// quarter of growth, append's factor for large slices.
func growRow[T any](row []T, n int, fill T) []T {
	old := len(row)
	if n <= old {
		return row
	}
	if n > cap(row) {
		grown := make([]T, old, max(n, 2*cap(row)))
		copy(grown, row)
		row = grown
	}
	row = row[:n]
	tail := row[old:]
	for i := range tail {
		tail[i] = fill
	}
	return row
}

// TriangleScratch is the reusable lookup table of RefreshTriangles: an
// open-addressing map from each changed edge, packed as U<<32|V, to its
// index in the delta. The zero value is ready to use; a caller that
// refreshes every epoch keeps one, so the table is allocated once.
type TriangleScratch struct {
	keys  []uint64
	idx   []int32
	shift uint
}

// emptyKey marks a free slot; packed edges have U < 2^31, so none
// equals it.
const emptyKey = ^uint64(0)

// index loads the delta edges into the table, at most half full.
func (sc *TriangleScratch) index(edges []graph.DeltaEdge) {
	bitsLen := 0
	if len(edges) > 0 {
		bitsLen = bits.Len(uint(2*len(edges) - 1))
	}
	size := 1 << bitsLen
	if cap(sc.keys) < size {
		sc.keys, sc.idx = make([]uint64, size), make([]int32, size)
	}
	sc.keys, sc.idx, sc.shift = sc.keys[:size], sc.idx[:size], uint(64-bitsLen)
	for i := range sc.keys {
		sc.keys[i] = emptyKey
	}
	for i, e := range edges {
		k := uint64(e.U)<<32 | uint64(e.V)
		h := sc.slot(k)
		for sc.keys[h] != emptyKey {
			h = (h + 1) & (size - 1)
		}
		sc.keys[h], sc.idx[h] = k, int32(i)
	}
}

// slot is the home slot of a packed edge (Fibonacci hashing).
func (sc *TriangleScratch) slot(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> sc.shift)
}

// lookup returns the delta index of the simple edge {a, b}, or -1 when
// the edge did not change.
func (sc *TriangleScratch) lookup(a, b int32) int {
	if a > b {
		a, b = b, a
	}
	k := uint64(a)<<32 | uint64(b)
	mask := len(sc.keys) - 1
	for h := sc.slot(k); ; h = (h + 1) & mask {
		switch sc.keys[h] {
		case k:
			return int(sc.idx[h])
		case emptyKey:
			return -1
		}
	}
}

// RefreshTriangles maintains the per-node triangle counts across a
// refresh in O(Σ wedges touched): every removed edge closes its
// triangles on the previous snapshot, every inserted edge on the next.
// Triangles carrying several changed edges of the same kind are
// attributed exactly once, to the one latest in the delta's (U, V)
// order, so batches that close multiple sides of the same triangle stay
// exact. tri must be the triangle vector of prev; it is updated in
// place, grown (growRow) by zero entries for next's new nodes, and
// returned, so a caller that must keep prev's counts passes a copy. sc
// holds the edge lookup table across calls (nil: a private one). The
// result equals TrianglesPerNodeWith(next, w) at any worker count w.
func RefreshTriangles(prev, next *graph.Snapshot, d *graph.Delta, tri []int, sc *TriangleScratch) []int {
	tri = growRow(tri, next.N(), 0)
	edges := d.Edges()
	if sc == nil {
		sc = &TriangleScratch{}
	}
	sc.index(edges)
	// apply credits the triangles of the changes of one sign (removals
	// on prev, insertions on next). A triangle's other changed sides
	// are looked up in sc; a side changed another way, or not at all,
	// does not compete.
	apply := func(s *graph.Snapshot, sign int) {
		earlier := func(a, b int32, i int) bool {
			j := sc.lookup(a, b)
			return j < 0 || edgeSign(edges[j]) != sign || j < i
		}
		for i, e := range edges {
			if edgeSign(e) != sign {
				continue
			}
			u, v := int(e.U), int(e.V)
			// Common neighbors of u and v on s: each is a triangle that
			// this change creates (insertions on next) or destroys
			// (removals on prev).
			a, b := s.Neighbors(u), s.Neighbors(v)
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					w := a[x]
					if earlier(e.U, w, i) && earlier(e.V, w, i) {
						tri[u] += sign
						tri[v] += sign
						tri[w] += sign
					}
					x++
					y++
				}
			}
		}
	}
	apply(prev, -1)
	apply(next, +1)
	return tri
}

// edgeSign classifies a delta edge: +1 inserted, -1 removed, 0 a
// multiplicity change.
func edgeSign(e graph.DeltaEdge) int {
	switch {
	case e.OldW == 0:
		return 1
	case e.NewW == 0:
		return -1
	}
	return 0
}

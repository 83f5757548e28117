package metrics

import "netmodel/internal/graph"

// This file holds the incremental metric kernels behind the engine's
// trajectory mode: metrics that admit cheap delta maintenance are
// refreshed from (previous snapshot, previous value, delta) in time
// proportional to the change, instead of recomputed over the whole
// refreshed snapshot. Every kernel is pinned against its full
// recompute by the equivalence tests in delta_test.go; RefreshKCore
// additionally falls back to the full re-peel whenever the delta shape
// (removals) or the touched region size voids its locality argument.
// Distance-based metrics live in dynbfs.go: the DistMap structure
// carries repaired BFS rows across epochs and derives path lengths,
// closeness and sampled betweenness from them.

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
	touched := make(map[int32]struct{})
	for _, e := range d.Edges() {
		if e.OldW != 0 && e.NewW != 0 {
			continue // multiplicity change: degrees untouched
		}
		touched[e.U] = struct{}{}
		touched[e.V] = struct{}{}
	}
	for ub := range touched {
		u := int(ub)
		if u >= oldN {
			continue // new nodes are binned below
		}
		hist[prev.Degree(u)]--
		hist[next.Degree(u)]++
	}
	for u := oldN; u < next.N(); u++ {
		hist[next.Degree(u)]++
	}
	return hist[:next.MaxDegree()+1]
}

// deltaEdgeKey packs an unordered node pair for the per-edge sequence
// maps of the incremental kernels.
func deltaEdgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// RefreshTriangles maintains the per-node triangle counts across a
// refresh in O(Σ wedges touched): every removed edge closes its
// triangles on the previous snapshot, every inserted edge on the next.
// Triangles carrying several changed edges are attributed exactly once,
// to the change with the highest sequence index, so batches that close
// multiple sides of the same triangle stay exact. prevTri must be the
// triangle vector of prev; the result equals
// TrianglesPerNodeFrozen(next).
func RefreshTriangles(prev, next *graph.Snapshot, d *graph.Delta, prevTri []int) []int {
	tri := make([]int, next.N())
	copy(tri, prevTri)
	var ins, rem []graph.DeltaEdge
	for _, e := range d.Edges() {
		switch {
		case e.OldW == 0:
			ins = append(ins, e)
		case e.NewW == 0:
			rem = append(rem, e)
		}
	}
	apply := func(s *graph.Snapshot, edges []graph.DeltaEdge, sign int) {
		idx := make(map[uint64]int, len(edges))
		for i, e := range edges {
			idx[deltaEdgeKey(int(e.U), int(e.V))] = i
		}
		seq := func(a, b int) int {
			if j, ok := idx[deltaEdgeKey(a, b)]; ok {
				return j
			}
			return -1
		}
		for i, e := range edges {
			u, v := int(e.U), int(e.V)
			// Common neighbors of u and v on s: each is a triangle that
			// this change creates (insertions on next) or destroys
			// (removals on prev). Credit it only when this edge has the
			// highest changed-edge index in the triangle.
			a, b := s.Neighbors(u), s.Neighbors(v)
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					w := int(a[x])
					if seq(u, w) < i && seq(v, w) < i {
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
	apply(prev, rem, -1)
	apply(next, ins, +1)
	return tri
}

// RefreshKCore maintains the k-core decomposition across an
// insertion-only refresh with the subcore traversal algorithm: inserted
// edges are replayed one at a time, and for each, only the region that
// can change — nodes at the smaller endpoint coreness reachable through
// same-coreness nodes — is re-evaluated for promotion to the next
// shell. Deltas with removals, or touched regions whose total size
// rivals a full re-peel, fall back to KCoreFrozen(next); the result
// always equals the full recompute. prevCore must be the decomposition
// of prev.
func RefreshKCore(prev, next *graph.Snapshot, d *graph.Delta, prevCore KCoreResult) KCoreResult {
	n := next.N()
	var ins []graph.DeltaEdge
	for _, e := range d.Edges() {
		if e.NewW == 0 {
			// Removals can deflate whole shells; re-peel.
			return KCoreFrozen(next)
		}
		if e.OldW == 0 {
			ins = append(ins, e)
		}
	}
	cur := make([]int, n)
	copy(cur, prevCore.Coreness)

	// Replay edges in delta order; an edge is "present" while handling
	// edge i when it predates the snapshot or entered the replay already.
	insIdx := make(map[uint64]int, len(ins))
	for i, e := range ins {
		insIdx[deltaEdgeKey(int(e.U), int(e.V))] = i
	}
	present := func(a, b, i int) bool {
		j, ok := insIdx[deltaEdgeKey(a, b)]
		return !ok || j <= i
	}

	// Work budget: once the visited subcores rival the whole graph a
	// full re-peel is cheaper (and trivially correct).
	budget := n + 4*next.M() + 4096
	spent := 0

	inK := make([]int32, n) // round stamp: member of the current subcore
	out := make([]int32, n) // round stamp: evicted from the current subcore
	cd := make([]int32, n)  // support toward the next shell
	var K, queue []int32    // subcore members, eviction queue
	round := int32(0)

	// support counts w's present neighbors at or above level c.
	support := func(w, c, i int) int {
		count := 0
		for _, xb := range next.Neighbors(w) {
			x := int(xb)
			spent++
			if cur[x] >= c && present(w, x, i) {
				count++
			}
		}
		return count
	}

	for i, e := range ins {
		u, v := int(e.U), int(e.V)
		c := cur[u]
		if cur[v] < c {
			c = cur[v]
		}
		// Quick reject: a change must include a promoted endpoint at
		// level c; endpoints without c+1 candidate support cannot rise,
		// and then nothing can.
		rise := false
		for _, w := range [2]int{u, v} {
			if cur[w] == c && support(w, c, i) >= c+1 {
				rise = true
			}
		}
		if !rise {
			if spent > budget {
				return KCoreFrozen(next)
			}
			continue
		}
		round++
		K = K[:0]
		for _, w := range [2]int{u, v} {
			if cur[w] == c && inK[w] != round {
				inK[w] = round
				K = append(K, int32(w))
			}
		}
		// Subcore: nodes at level c reachable from the endpoints
		// through level-c nodes over present edges.
		for head := 0; head < len(K); head++ {
			w := int(K[head])
			for _, xb := range next.Neighbors(w) {
				x := int(xb)
				spent++
				if cur[x] == c && inK[x] != round && present(w, x, i) {
					inK[x] = round
					K = append(K, int32(x))
				}
			}
		}
		if spent > budget {
			return KCoreFrozen(next)
		}
		// Evaluate: members need c+1 supporters among higher-core
		// neighbors and surviving subcore members; evictions cascade.
		queue = queue[:0]
		for _, wb := range K {
			w := int(wb)
			cd[w] = int32(support(w, c, i)) // neighbors with cur >= c
			if cd[w] <= int32(c) {
				out[w] = round
				queue = append(queue, wb)
			}
		}
		for head := 0; head < len(queue); head++ {
			w := int(queue[head])
			for _, xb := range next.Neighbors(w) {
				x := int(xb)
				spent++
				if inK[x] == round && out[x] != round && present(w, x, i) {
					cd[x]--
					if cd[x] <= int32(c) {
						out[x] = round
						queue = append(queue, xb)
					}
				}
			}
		}
		if spent > budget {
			return KCoreFrozen(next)
		}
		for _, wb := range K {
			if out[wb] != round {
				cur[wb] = c + 1
			}
		}
	}
	res := KCoreResult{Coreness: cur}
	for _, c := range cur {
		if c > res.MaxCore {
			res.MaxCore = c
		}
	}
	return res
}

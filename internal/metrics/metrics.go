// Package metrics implements the measurement toolkit of the Internet
// topology literature: degree distributions and correlations, clustering
// spectra, betweenness centrality, k-core decomposition, rich-club
// connectivity, short-cycle counts and shortest-path statistics.
//
// Every metric has exactly one implementation: a CSR kernel over an
// immutable *graph.Snapshot (frozen.go, hybrid.go), plus delta-refresh
// kernels for growth trajectories (delta.go, dynbfs.go). The parallel
// engine in internal/engine shards the per-source kernels across
// workers and composes them into the full metric vector; the *Frozen
// whole-graph functions run the same kernels sequentially. The tests
// pin every kernel against an independent test-only reference: a
// brute-force enumeration or the straightforward implementation over
// the mutable graph.Graph in oracle_test.go.
//
// All measures treat the graph as simple (multiplicities are ignored)
// unless explicitly stated: the published AS-map statistics are defined
// on the simple adjacency structure, with bandwidth analyzed separately
// through node strengths.
package metrics

import "netmodel/internal/graph"

// Snapshot is the full metric vector of a topology — the set of numbers
// the validation literature compares between synthetic and measured
// maps. Expensive measures (betweenness, cycles) are computed on demand
// by their own functions and are not part of the snapshot.
type Snapshot struct {
	N, M          int
	AvgDegree     float64
	MaxDegree     int
	Gamma         float64 // power-law exponent of the degree tail (MLE), 0 if no fit
	GammaKS       float64 // KS distance of the tail fit
	AvgClustering float64
	Transitivity  float64
	Assortativity float64
	AvgPathLen    float64
	Diameter      int
	MaxCore       int
	GiantFrac     float64 // fraction of nodes in the giant component
}

// PathStats summarizes shortest-path structure.
type PathStats struct {
	Distribution map[int]float64 // P(d): fraction of reachable ordered pairs at distance d >= 1
	Avg          float64         // mean distance over reachable pairs
	Diameter     int             // maximum observed distance
	Sources      int             // number of BFS sources used
}

// CycleCounts holds the exact number of simple cycles of length 3, 4 and
// 5 in a graph — the N_h(N) quantities whose scaling with system size
// characterizes AS maps (Bianconi-Caldarelli-Capocci 2005).
type CycleCounts struct {
	C3, C4, C5 int64
}

// RichClubPoint is the rich-club connectivity at one degree threshold.
type RichClubPoint struct {
	K   int     // degree threshold
	N   int     // number of nodes with degree > K
	E   int     // simple edges among them
	Phi float64 // 2E / (N(N-1))
}

// KCoreResult holds the k-core decomposition of a graph.
type KCoreResult struct {
	Coreness []int // shell index of each node
	MaxCore  int   // the coreness of the innermost shell (the "coreness" of the map)
}

// ShellSizes returns the number of nodes in each k-shell, indexed by
// shell number 0..MaxCore.
func (r KCoreResult) ShellSizes() []int {
	out := make([]int, r.MaxCore+1)
	for _, c := range r.Coreness {
		out[c]++
	}
	return out
}

// DegreeStrengthPairs returns (k_i, b_i) for every node with k_i > 0,
// used to verify the k ∝ b^μ scaling between topological degree and
// bandwidth in weighted models.
func DegreeStrengthPairs(g *graph.Graph) (ks, bs []float64) {
	for u := 0; u < g.N(); u++ {
		k := g.Degree(u)
		if k == 0 {
			continue
		}
		ks = append(ks, float64(k))
		bs = append(bs, float64(g.Strength(u)))
	}
	return ks, bs
}

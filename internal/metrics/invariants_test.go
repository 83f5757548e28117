package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// TestMetricInvariantsOnRandomGraphs checks, over a family of random
// graphs, the inequalities and normalizations that hold for every
// undirected simple graph — the cross-metric consistency that catches
// subtle counting bugs no example-based test would.
func TestMetricInvariantsOnRandomGraphs(t *testing.T) {
	r := rng.New(2024)
	prop := func(seed uint16, nRaw, pRaw uint8) bool {
		r.Seed(uint64(seed))
		n := 10 + int(nRaw)%60
		p := 0.02 + float64(pRaw%100)/400
		g := randomGraph(r, n, p)
		s := g.Freeze()

		// Clustering coefficients live in [0,1].
		for _, c := range LocalClusteringFrozen(s) {
			if c < 0 || c > 1 {
				return false
			}
		}
		if tr := TransitivityFrozen(s); tr < 0 || tr > 1 {
			return false
		}

		// Coreness is bounded by degree, and the max-core subgraph is
		// non-empty whenever an edge exists.
		kc := KCoreFrozen(s)
		for u, c := range kc.Coreness {
			if c > g.Degree(u) || c < 0 {
				return false
			}
		}
		if g.M() > 0 && kc.MaxCore < 1 {
			return false
		}

		// Normalized betweenness lies in [0,1]; endpoints excluded means
		// the sum over nodes is bounded by N·(avg internal pairs) — check
		// only the range here.
		for _, b := range BetweennessFrozen(s) {
			if b < -1e-12 || b > 1+1e-12 {
				return false
			}
		}

		// Triangle identities: Σ_u T(u) = 3·C3, and the cycle counter
		// agrees with the per-node counter.
		tri := TrianglesPerNodeFrozen(s)
		sum := 0
		for _, ti := range tri {
			sum += ti
		}
		cc := CountCyclesFrozen(s)
		if int64(sum) != 3*cc.C3 {
			return false
		}

		// Degree moments vs handshake lemma.
		var k1, k2 float64
		for _, k := range DegreesAsFloatsFrozen(s) {
			k1 += k / float64(n)
			k2 += k * k / float64(n)
		}
		if math.Abs(k1-g.AvgDegree()) > 1e-9 {
			return false
		}
		if k2 < k1*k1-1e-9 { // Jensen
			return false
		}

		// Rich-club φ within [0,1], club sizes monotone.
		prevN := g.N() + 1
		for _, pt := range RichClubFrozen(s) {
			if pt.Phi < 0 || pt.Phi > 1 || pt.N >= prevN {
				return false
			}
			prevN = pt.N
		}

		// knn values bounded by max degree.
		maxDeg := float64(g.MaxDegree())
		for _, v := range KnnFrozen(s) {
			if v < 0 || v > maxDeg+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPathAndEccentricityConsistency: the diameter from the path
// statistics equals the max eccentricity (the largest BFS distance from
// any node); average distance is at least 1 on any connected graph with
// an edge.
func TestPathAndEccentricityConsistency(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 60, 0.08)
		giant := giantOf(g).Freeze()
		if giant.N() < 2 {
			continue
		}
		ps, err := PathLengthsFrozen(giant, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		maxEcc := 0
		for u := 0; u < giant.N(); u++ {
			for _, d := range bfsFrozen(giant, u) {
				maxEcc = max(maxEcc, int(d))
			}
		}
		if ps.Diameter != maxEcc {
			t.Fatalf("diameter %d != max eccentricity %d", ps.Diameter, maxEcc)
		}
		if ps.Avg < 1 {
			t.Fatalf("average distance %v below 1", ps.Avg)
		}
	}
}

// TestClosenessBetweennessHubAgreement: on a hub-dominated graph the
// hub must top both centrality rankings.
func TestClosenessBetweennessHubAgreement(t *testing.T) {
	g := graph.New(30)
	for i := 1; i < 30; i++ {
		g.MustAddEdge(0, i)
	}
	// a few peripheral edges
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	bc := BetweennessFrozen(g.Freeze())
	cl := ClosenessFrozen(g.Freeze())
	for u := 1; u < 30; u++ {
		if bc[u] >= bc[0] || cl[u] >= cl[0] {
			t.Fatalf("hub not most central: node %d bc %v vs %v, cl %v vs %v",
				u, bc[u], bc[0], cl[u], cl[0])
		}
	}
}

package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bruteRichClub computes φ(k) directly from the definition.
func bruteRichClub(g *graph.Graph, k int) (int, int, float64) {
	var club []int
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > k {
			club = append(club, u)
		}
	}
	e := 0
	for i, u := range club {
		for _, v := range club[i+1:] {
			if g.HasEdge(u, v) {
				e++
			}
		}
	}
	phi := 0.0
	if len(club) >= 2 {
		phi = 2 * float64(e) / (float64(len(club)) * float64(len(club)-1))
	}
	return len(club), e, phi
}

func TestRichClubMatchesBruteForce(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 80, 0.06)
		for _, p := range RichClubFrozen(g.Freeze()) {
			n, e, phi := bruteRichClub(g, p.K)
			if p.N != n || p.E != e || math.Abs(p.Phi-phi) > 1e-12 {
				t.Fatalf("trial %d k=%d: got (%d,%d,%v), brute (%d,%d,%v)",
					trial, p.K, p.N, p.E, p.Phi, n, e, phi)
			}
		}
	}
}

func TestRichClubCompleteGraph(t *testing.T) {
	pts := RichClubFrozen(complete(6).Freeze())
	for _, p := range pts {
		if p.N >= 2 && math.Abs(p.Phi-1) > 1e-12 {
			t.Fatalf("K6 rich club φ(%d) = %v, want 1", p.K, p.Phi)
		}
	}
}

func TestRichClubHubClique(t *testing.T) {
	// Three mutually connected hubs, each with pendant leaves: high-k
	// club must be a perfect clique (φ=1), whole-graph club much sparser.
	g := graph.New(12)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	leaf := 3
	for h := 0; h < 3; h++ {
		for i := 0; i < 3; i++ {
			g.MustAddEdge(h, leaf)
			leaf++
		}
	}
	pts := RichClubFrozen(g.Freeze())
	// hubs have degree 5, leaves 1; the hub club appears at threshold 4
	// (points are emitted only where membership changes).
	var hubClub *RichClubPoint
	for i := range pts {
		if pts[i].K == 4 {
			hubClub = &pts[i]
		}
	}
	if hubClub == nil {
		t.Fatalf("no point at k=4: %+v", pts)
	}
	if hubClub.N != 3 || math.Abs(hubClub.Phi-1) > 1e-12 {
		t.Fatalf("hub club = %+v, want N=3 φ=1", *hubClub)
	}
}

func TestRichClubTinyGraph(t *testing.T) {
	if pts := RichClubFrozen(graph.New(1).Freeze()); pts != nil {
		t.Fatal("single node graph should yield no points")
	}
}

func TestRichClubMonotoneThresholds(t *testing.T) {
	g := randomGraph(rng.New(43), 100, 0.05)
	pts := RichClubFrozen(g.Freeze())
	for i := 1; i < len(pts); i++ {
		if pts[i].K <= pts[i-1].K {
			t.Fatal("thresholds not strictly increasing")
		}
		if pts[i].N >= pts[i-1].N {
			t.Fatal("club size must shrink as threshold rises")
		}
	}
}

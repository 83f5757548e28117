package graph

import (
	"reflect"
	"testing"

	"netmodel/internal/rng"
)

// randomMultigraph builds a graph with random simple edges and random
// extra multiplicity, plus a few isolated nodes, so snapshots cover
// weights > 1 and disconnected pieces.
func randomMultigraph(t *testing.T, seed uint64, n, edges int) *Graph {
	t.Helper()
	r := rng.New(seed)
	g := New(n)
	for i := 0; i < edges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		g.MustAddEdge(u, v)
		if r.Float64() < 0.2 {
			g.MustAddEdge(u, v) // bump multiplicity
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotMirrorsGraph(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := randomMultigraph(t, seed, 60, 150)
		s := g.Freeze()
		if s.N() != g.N() || s.M() != g.M() || s.TotalStrength() != g.TotalStrength() {
			t.Fatalf("seed %d: size mismatch: snapshot (%d,%d,%d) vs graph (%d,%d,%d)",
				seed, s.N(), s.M(), s.TotalStrength(), g.N(), g.M(), g.TotalStrength())
		}
		if s.MaxDegree() != g.MaxDegree() {
			t.Fatalf("seed %d: max degree %d vs %d", seed, s.MaxDegree(), g.MaxDegree())
		}
		if s.AvgDegree() != g.AvgDegree() {
			t.Fatalf("seed %d: avg degree %v vs %v", seed, s.AvgDegree(), g.AvgDegree())
		}
		for u := 0; u < g.N(); u++ {
			if s.Degree(u) != g.Degree(u) {
				t.Fatalf("seed %d: degree(%d) %d vs %d", seed, u, s.Degree(u), g.Degree(u))
			}
			want := g.NeighborList(u)
			got := s.Neighbors(u)
			if len(got) != len(want) {
				t.Fatalf("seed %d: neighbors(%d) length %d vs %d", seed, u, len(got), len(want))
			}
			for i, v := range got {
				if int(v) != want[i] {
					t.Fatalf("seed %d: neighbors(%d)[%d] = %d, want %d (sorted)", seed, u, i, v, want[i])
				}
				if w := s.Weights(u)[i]; int(w) != g.EdgeWeight(u, int(v)) {
					t.Fatalf("seed %d: weight(%d,%d) = %d, want %d", seed, u, v, w, g.EdgeWeight(u, int(v)))
				}
			}
		}
		if !reflect.DeepEqual(s.EdgeList(), g.EdgeList()) {
			t.Fatalf("seed %d: edge lists differ", seed)
		}
		if !reflect.DeepEqual(s.DegreeSequence(), g.DegreeSequence()) {
			t.Fatalf("seed %d: degree sequences differ", seed)
		}
	}
}

func TestSnapshotHasEdge(t *testing.T) {
	g := randomMultigraph(t, 7, 40, 100)
	s := g.Freeze()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if s.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) disagrees", u, v)
			}
			if s.EdgeWeight(u, v) != g.EdgeWeight(u, v) {
				t.Fatalf("EdgeWeight(%d,%d) disagrees", u, v)
			}
		}
	}
	if s.HasEdge(-1, 0) || s.HasEdge(0, g.N()) {
		t.Fatal("out-of-range HasEdge must be false")
	}
	if s.EdgeWeight(-1, 0) != 0 {
		t.Fatal("out-of-range EdgeWeight must be 0")
	}
}

func TestSnapshotArcEdgeIDs(t *testing.T) {
	g := randomMultigraph(t, 13, 40, 90)
	s := g.Freeze()
	ids := s.ArcEdgeIDs()
	edges := s.EdgeList()
	seen := make([]bool, s.M())
	for u := 0; u < s.N(); u++ {
		lo, _ := s.ArcRange(u)
		for j, v := range s.Neighbors(u) {
			id := ids[int(lo)+j]
			if id < 0 || int(id) >= s.M() {
				t.Fatalf("arc (%d,%d): id %d out of range", u, v, id)
			}
			e := edges[id]
			lo2, hi2 := u, int(v)
			if lo2 > hi2 {
				lo2, hi2 = hi2, lo2
			}
			if e.U != lo2 || e.V != hi2 {
				t.Fatalf("arc (%d,%d) mapped to edge %+v", u, v, e)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("edge id %d never referenced", id)
		}
	}
}

func TestSnapshotEmptyAndTiny(t *testing.T) {
	s := New(0).Freeze()
	if s.N() != 0 || s.M() != 0 || s.AvgDegree() != 0 {
		t.Fatal("empty snapshot malformed")
	}
	one := New(1).Freeze()
	if one.N() != 1 || one.Degree(0) != 0 || len(one.Neighbors(0)) != 0 {
		t.Fatal("single-node snapshot malformed")
	}
}

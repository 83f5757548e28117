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

func TestSnapshotComponents(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		// Sparse: guaranteed disconnected pieces.
		g := randomMultigraph(t, seed, 80, 40)
		s := g.Freeze()
		o := oracleOf(g)
		if !reflect.DeepEqual(s.Components(), o.Components()) {
			t.Fatalf("seed %d: components differ", seed)
		}
		gs, gmap := o.GiantComponent()
		ss, smap := s.GiantComponent()
		if !reflect.DeepEqual(gmap, smap) {
			t.Fatalf("seed %d: giant mappings differ", seed)
		}
		if !reflect.DeepEqual(gs.EdgeList(), ss.EdgeList()) {
			t.Fatalf("seed %d: giant edge lists differ", seed)
		}
	}
}

func TestSnapshotInduced(t *testing.T) {
	g := randomMultigraph(t, 11, 50, 120)
	s := g.Freeze()
	nodes := []int{3, 7, 8, 12, 20, 33, 41, 49}
	gSub, gMap, err := oracleOf(g).InducedSubgraph(nodes)
	if err != nil {
		t.Fatal(err)
	}
	sSub, sMap, err := s.Induced(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gMap, sMap) {
		t.Fatal("induced mappings differ")
	}
	if !reflect.DeepEqual(gSub.EdgeList(), sSub.EdgeList()) {
		t.Fatal("induced edge lists differ")
	}
	if sSub.M() != gSub.M() || sSub.TotalStrength() != gSub.TotalStrength() {
		t.Fatalf("induced counters differ: (%d,%d) vs (%d,%d)",
			sSub.M(), sSub.TotalStrength(), gSub.M(), gSub.TotalStrength())
	}
	if _, _, err := s.Induced([]int{0, 0}); err == nil {
		t.Fatal("duplicate node must error")
	}
	if _, _, err := s.Induced([]int{-1}); err == nil {
		t.Fatal("out-of-range node must error")
	}
}

// TestSnapshotInducedEdgeCases covers the degenerate inputs: an empty
// node list, a singleton graph, and a giant component that is the whole
// graph.
func TestSnapshotInducedEdgeCases(t *testing.T) {
	g := randomMultigraph(t, 19, 30, 70)
	s := g.Freeze()

	empty, mapping, err := s.Induced(nil)
	if err != nil {
		t.Fatalf("empty node list: %v", err)
	}
	if empty.N() != 0 || empty.M() != 0 || len(mapping) != 0 {
		t.Fatalf("empty induced snapshot: N=%d M=%d mapping=%v", empty.N(), empty.M(), mapping)
	}
	if comps := empty.Components(); len(comps) != 0 {
		t.Fatalf("empty induced snapshot has %d components", len(comps))
	}

	single := New(1).Freeze()
	sub, mapping, err := single.Induced([]int{0})
	if err != nil {
		t.Fatalf("singleton: %v", err)
	}
	if sub.N() != 1 || sub.M() != 0 || sub.Degree(0) != 0 || mapping[0] != 0 {
		t.Fatal("singleton induced snapshot malformed")
	}
	giant, gm := single.GiantComponent()
	if giant.N() != 1 || gm[0] != 0 {
		t.Fatal("singleton giant component malformed")
	}

	// A connected graph's giant component is the whole graph.
	conn := New(6)
	for u := 1; u < 6; u++ {
		conn.MustAddEdge(u-1, u)
	}
	conn.MustAddEdge(0, 5)
	cs := conn.Freeze()
	whole, wm, err := cs.Induced([]int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "whole-induced", whole, cs)
	for i, u := range wm {
		if i != u {
			t.Fatalf("identity mapping broken at %d -> %d", i, u)
		}
	}
	gsub, gmap := cs.GiantComponent()
	assertSnapshotsEqual(t, "whole-giant", gsub, cs)
	if len(gmap) != 6 {
		t.Fatalf("giant mapping %v", gmap)
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
	if comps := s.Components(); len(comps) != 0 {
		t.Fatalf("empty snapshot has %d components", len(comps))
	}
	giant, mapping := s.GiantComponent()
	if giant.N() != 0 || mapping != nil {
		t.Fatal("empty giant component malformed")
	}
	one := New(1).Freeze()
	if one.N() != 1 || one.Degree(0) != 0 || len(one.Neighbors(0)) != 0 {
		t.Fatal("single-node snapshot malformed")
	}
}

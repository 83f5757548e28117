package traffic

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// requirePairMatchesTree checks pairPath against the tree oracle for
// src and every destination, appending onto a non-empty prefix so the
// append contract is pinned too, and returns how many destinations
// were unreachable.
func requirePairMatchesTree(t *testing.T, label string, ps *pairScratch, s *graph.Snapshot, arcEdge []int32, src int) (unreachable int) {
	t.Helper()
	tree := buildTree(s, src)
	prefix := []int32{-7}
	for dst := 0; dst < s.N(); dst++ {
		want, wantOK := walkPath(s, arcEdge, tree, slices.Clone(prefix), dst)
		got, gotOK := ps.pairPath(s, arcEdge, src, dst, slices.Clone(prefix))
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("%s: %d→%d: pair path %v (reachable %v), tree path %v (reachable %v)",
				label, src, dst, got, gotOK, want, wantOK)
		}
		if !gotOK {
			unreachable++
		}
	}
	return unreachable
}

// pairSources picks the oracle's origins: the highest-degree hub plus
// a fixed spread of nodes.
func pairSources(s *graph.Snapshot, k int) []int {
	hub := 0
	for v := 1; v < s.N(); v++ {
		if s.Degree(v) > s.Degree(hub) {
			hub = v
		}
	}
	srcs := []int{hub}
	for i := 0; i < k; i++ {
		srcs = append(srcs, i*s.N()/k)
	}
	return srcs
}

// TestPairPathMatchesTree is the pair-search oracle: across the
// preferential-attachment families and sparse disconnected GNP, over
// three seeds, every sampled (src, dst) pair — adjacent pairs, the hub
// as either endpoint, unreachable pairs — resolves to exactly the
// canonical tree path. Refreshed snapshots whose rows no longer tile
// the arc arena (mixed insertions and removals) are held to the same
// property. One scratch serves every map, so it also regrows across
// node counts and wraps its stamp counter.
func TestPairPathMatchesTree(t *testing.T) {
	const n = 300
	models := []gen.Generator{
		gen.BA{N: n, M: 2},
		gen.GLP{N: n, M: 1, P: 0.45, Beta: 0.64},
		gen.DefaultPFP(n),
		gen.GNP{N: n, P: 1.5 / n},
	}
	// The stamp counter starts one short of wrapping, so the second
	// search exercises the wrap that must clear every stale stamp.
	ps := pairScratch{round: math.MaxUint32 - 1}
	unreachable := 0
	for _, m := range models {
		for seed := uint64(1); seed <= 3; seed++ {
			top, err := m.Generate(rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			g := top.G.Copy()
			s, err := g.FreezeChecked()
			if err != nil {
				t.Fatal(err)
			}
			arcEdge := s.ArcEdgeIDs()
			for _, src := range pairSources(s, 12) {
				unreachable += requirePairMatchesTree(t, m.Name(), &ps, s, arcEdge, src)
			}

			// Churn: remove and insert edges, then refresh the snapshot.
			r := rng.New(seed + 100)
			edges := s.EdgeList()
			for i := 0; i < 20; i++ {
				e := edges[r.Intn(len(edges))]
				if g.HasEdge(e.U, e.V) {
					if err := g.RemoveEdge(e.U, e.V); err != nil {
						t.Fatal(err)
					}
				}
				if u, v := r.Intn(g.N()), r.Intn(g.N()); u != v {
					g.MustAddEdge(u, v)
				}
			}
			next, d, err := g.Refreeze(s)
			if err != nil {
				t.Fatal(err)
			}
			if d == nil {
				t.Fatalf("%s seed %d: churn expected a delta refresh", m.Name(), seed)
			}
			if next.ArcSpace() == 2*next.M() {
				t.Fatalf("%s seed %d: refreshed rows still tile the arena", m.Name(), seed)
			}
			nextArcEdge := next.ArcEdgeIDs()
			for _, src := range pairSources(next, 6) {
				requirePairMatchesTree(t, m.Name()+"/refreshed", &ps, next, nextArcEdge, src)
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("oracle sampled no unreachable pair")
	}
}

// FuzzPairPath decodes a small edge list — first byte the node count,
// then one byte pair per edge — and checks pairPath against the tree
// oracle for every ordered pair. Property: it never panics and always
// matches. Plain `go test` runs the seeds; explore further with
//
//	go test ./internal/traffic -run '^$' -fuzz FuzzPairPath
func FuzzPairPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})                   // path
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})       // two triangles
	f.Add([]byte{8, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 4, 6}) // diamonds and a tail
	f.Add([]byte{12, 0, 5, 5, 11, 11, 3, 3, 0, 0, 7, 7, 11, 2, 9, 9, 10, 10, 2, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := 1 + int(in[0])%16
		g := graph.New(n)
		for i := 1; i+1 < len(in); i += 2 {
			if u, v := int(in[i])%n, int(in[i+1])%n; u != v {
				g.MustAddEdge(u, v)
			}
		}
		s := g.Freeze()
		arcEdge := s.ArcEdgeIDs()
		var ps pairScratch
		for src := 0; src < n; src++ {
			requirePairMatchesTree(t, "fuzz", &ps, s, arcEdge, src)
		}
	})
}

// TestPairGateEquivalence runs whole simulations with the pair-search
// gate firing (a tree budget far below the epoch's origin count) and
// with it off (a budget above every origin), for both engines and
// several worker counts: reports and flow traces must be identical.
func TestPairGateEquivalence(t *testing.T) {
	top, err := gen.BA{N: 240, M: 2}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := top.G.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	masses := make([]float64, s.N())
	for v := range masses {
		masses[v] = float64(s.Degree(v))
	}
	for _, eng := range bothEngines {
		spec := WorkloadSpec{Engine: eng, LoadFactor: 0.6, Epochs: 10}
		var base *SimReport
		for _, budget := range []int{s.N() + 1, 4} {
			for _, workers := range []int{1, 2, 4} {
				rt := NewRouting(s)
				rt.max = budget
				rep, err := Simulate(s, masses, spec, rng.New(3), workers, WithRouting(rt), WithFlowTrace())
				if err != nil {
					t.Fatal(err)
				}
				if fired := rt.pair.round > 0; fired != (budget < s.N()) {
					t.Fatalf("%s budget %d: pair searches ran = %v", eng, budget, fired)
				}
				if len(rep.Flows) == 0 {
					t.Fatalf("%s: no flows admitted", eng)
				}
				if base == nil {
					base = rep
				} else if !reflect.DeepEqual(rep, base) {
					t.Fatalf("%s budget %d workers %d: report differs from the tree-only run", eng, budget, workers)
				}
			}
		}
	}
}

package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// hybridCases builds the equivalence topologies: every trajectory
// family (ER/BA/GLP/PFP) at two seeds, a denser ER whose middle levels
// force the bottom-up sweep, and a disconnected variant of each — the
// generated map plus a detached clique and two isolated nodes.
func hybridCases(t *testing.T) map[string]*graph.Snapshot {
	t.Helper()
	cases := make(map[string]*graph.Snapshot)
	gens := append(trajectoryFamilies(), struct {
		name string
		g    gen.Generator
	}{"er-dense", gen.GNP{N: 400, P: 0.04}})
	for _, fam := range gens {
		for seed := uint64(1); seed <= 2; seed++ {
			top, err := fam.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", fam.name, seed, err)
			}
			g := top.G
			cases[fam.name+"/conn"] = g.Freeze()
			split := g.Copy()
			base := split.N()
			for i := 0; i < 6; i++ {
				split.AddNode()
			}
			for i := base; i < base+4; i++ {
				for j := i + 1; j < base+4; j++ {
					split.MustAddEdge(i, j)
				}
			}
			cases[fam.name+"/split"] = split.Freeze()
		}
	}
	return cases
}

// TestBFSHybridMatchesClassic pins the tentpole equivalence: the
// hybrid kernel's distance vector is bit-identical to BFSFrozen's from
// every source of every case, connected or not, through one shared
// scratch whose stamped epochs must never leak between calls.
func TestBFSHybridMatchesClassic(t *testing.T) {
	sc := NewBFSScratch(0)
	for name, s := range hybridCases(t) {
		n := s.N()
		want := make([]int32, n)
		queue := make([]int32, n)
		got := make([]int32, n)
		for src := 0; src < n; src++ {
			order := BFSFrozen(s, src, want, queue)
			reach := BFSHybrid(s, src, got, sc)
			if reach != len(order) {
				t.Fatalf("%s src %d: hybrid reached %d nodes, classic %d", name, src, reach, len(order))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s src %d: dist[%d] = %d, classic %d", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

// TestBFSHybridOutOfRange pins the classic kernel's out-of-range
// contract: every entry -1, nothing reached.
func TestBFSHybridOutOfRange(t *testing.T) {
	top, err := gen.BA{N: 50, M: 2}.Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := top.G.Freeze()
	sc := NewBFSScratch(s.N())
	dist := make([]int32, s.N())
	for _, src := range []int{-1, s.N(), s.N() + 7} {
		if reach := BFSHybrid(s, src, dist, sc); reach != 0 {
			t.Fatalf("src %d: reached %d nodes", src, reach)
		}
		for v, d := range dist {
			if d != -1 {
				t.Fatalf("src %d: dist[%d] = %d, want -1", src, v, d)
			}
		}
	}
}

// TestBFSHybridWorkerInvariance shards sources across worker counts
// {1, 2, 4, 8} with one scratch per worker: the assembled distance
// matrix must be bit-identical at every width — the adoption contract
// of the parallel call sites (DistMap rebuilds, routing-tree builds).
func TestBFSHybridWorkerInvariance(t *testing.T) {
	top, err := gen.BA{N: 400, M: 2}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s := top.G.Freeze()
	n := s.N()
	var ref [][]int32
	for _, workers := range []int{1, 2, 4, 8} {
		rows := make([][]int32, n)
		scratch := make([]*BFSScratch, workers)
		par.ForEach(n, workers, func(w, src int) {
			if scratch[w] == nil {
				scratch[w] = NewBFSScratch(n)
			}
			rows[src] = make([]int32, n)
			BFSHybrid(s, src, rows[src], scratch[w])
		})
		if ref == nil {
			ref = rows
			continue
		}
		for src := range rows {
			for v := range rows[src] {
				if rows[src][v] != ref[src][v] {
					t.Fatalf("workers %d: dist[%d][%d] diverged", workers, src, v)
				}
			}
		}
	}
}

// checkComponentLabels pins one ComponentsHybrid labeling against the
// components oracle: same partition, and the id holding the maximal
// size (first on ties) names exactly the component the oracle ranks
// first — the giant-selection contract of the failure layer and of the
// engine's giant path statistics.
func checkComponentLabels(t *testing.T, name string, s *graph.Snapshot, comp, sizes []int32) {
	t.Helper()
	comps := components(s)
	if len(sizes) != len(comps) {
		t.Fatalf("%s: %d labeled components, the oracle gives %d", name, len(sizes), len(comps))
	}
	// Partition equality: every oracle member set maps to one label, and
	// the label's size matches.
	for _, c := range comps {
		id := comp[c[0]]
		if int(sizes[id]) != len(c) {
			t.Fatalf("%s: component of %d has size %d, labeled size %d", name, c[0], len(c), sizes[id])
		}
		for _, u := range c {
			if comp[u] != id {
				t.Fatalf("%s: node %d labeled %d, expected %d", name, u, comp[u], id)
			}
		}
	}
	if len(comps) == 0 {
		return
	}
	giant := int32(0)
	for id := range sizes {
		if sizes[id] > sizes[giant] {
			giant = int32(id)
		}
	}
	if comp[comps[0][0]] != giant {
		t.Fatalf("%s: giant label %d does not name the oracle's first component", name, giant)
	}
}

// TestComponentsHybridMatchesSnapshot checks the labeling of every
// equivalence case against the oracle, then scans again through the
// same scratch.
func TestComponentsHybridMatchesSnapshot(t *testing.T) {
	sc := NewBFSScratch(0)
	for name, s := range hybridCases(t) {
		n := s.N()
		comp := make([]int32, n)
		sizes := ComponentsHybrid(s, sc, comp, nil)
		checkComponentLabels(t, name, s, comp, sizes)
		// Steady-state reuse: a second scan through the same scratch and
		// a recycled sizes buffer must reproduce the labels.
		comp2 := make([]int32, n)
		sizes2 := ComponentsHybrid(s, sc, comp2, sizes[:0])
		for v := range comp {
			if comp[v] != comp2[v] {
				t.Fatalf("%s: label of %d moved across reuse", name, v)
			}
		}
		if len(sizes2) != len(sizes) {
			t.Fatalf("%s: size count moved across reuse", name)
		}
	}
}

// TestComponentsHybridSparseRandom checks sparse random multigraphs
// (80 nodes, at most 40 distinct edges): many small components, many
// equal-size ties for the giant rule to break.
func TestComponentsHybridSparseRandom(t *testing.T) {
	sc := NewBFSScratch(0)
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g := graph.New(80)
		for i := 0; i < 40; i++ {
			u, v := r.Intn(80), r.Intn(80)
			if u == v {
				continue
			}
			g.MustAddEdge(u, v)
			if r.Float64() < 0.2 {
				g.MustAddEdge(u, v) // bump multiplicity
			}
		}
		s := g.Freeze()
		comp := make([]int32, s.N())
		sizes := ComponentsHybrid(s, sc, comp, nil)
		checkComponentLabels(t, fmt.Sprintf("seed %d", seed), s, comp, sizes)
	}
}

// TestComponentsHybridHandBuilt: a path 0-1-2, an edge 3-4 and an
// isolated node 5 give three components, the oracle ranks them by size,
// and the giant label names {0, 1, 2}.
func TestComponentsHybridHandBuilt(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	s := g.Freeze()
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if got := components(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle components = %v, want %v", got, want)
	}
	comp := make([]int32, s.N())
	sizes := ComponentsHybrid(s, NewBFSScratch(0), comp, nil)
	if len(sizes) != 3 {
		t.Fatalf("%d labeled components, want 3", len(sizes))
	}
	if sizes[comp[0]] != 3 || sizes[comp[3]] != 2 || sizes[comp[5]] != 1 {
		t.Fatalf("labeled sizes %v, labels %v", sizes, comp)
	}
	checkComponentLabels(t, "hand-built", s, comp, sizes)
}

// TestBFSHybridEmpty covers the degenerate snapshots.
func TestBFSHybridEmpty(t *testing.T) {
	g := graph.New(0)
	s := g.Freeze()
	sc := NewBFSScratch(0)
	if reach := BFSHybrid(s, 0, nil, sc); reach != 0 {
		t.Fatalf("empty graph reached %d", reach)
	}
	if sizes := ComponentsHybrid(s, sc, nil, nil); len(sizes) != 0 {
		t.Fatalf("empty graph has %d components", len(sizes))
	}
	one := graph.New(1)
	s1 := one.Freeze()
	dist := make([]int32, 1)
	if reach := BFSHybrid(s1, 0, dist, sc); reach != 1 || dist[0] != 0 {
		t.Fatalf("singleton: reach %d dist %v", reach, dist)
	}
}

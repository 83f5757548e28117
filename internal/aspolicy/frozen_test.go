package aspolicy

import (
	"reflect"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// annotatedTestTopology builds a BA-family topology with the standard
// degree-hierarchy annotation, the setup of the routing experiments.
func annotatedTestTopology(t *testing.T, seed uint64, n int) *Annotated {
	t.Helper()
	top, err := (gen.BA{N: n, M: 2, A: -1.6}).Generate(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnnotateByDegree(top.G, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFrozenMirrorsAnnotation(t *testing.T) {
	a := annotatedTestTopology(t, 1, 200)
	f := a.Freeze()
	if !f.Complete() {
		t.Fatal("degree annotation must freeze complete")
	}
	s := f.S
	for u := 0; u < s.N(); u++ {
		lo, _ := s.ArcRange(u)
		for j, v := range s.Neighbors(u) {
			if got, want := f.rel[int(lo)+j], a.RelOf(u, int(v)); got != want {
				t.Fatalf("rel(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	// An unannotated edge must freeze incomplete.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	partial := NewAnnotated(g)
	if err := partial.SetRel(0, 1, P2C); err != nil {
		t.Fatal(err)
	}
	if partial.Freeze().Complete() {
		t.Fatal("partial annotation must freeze incomplete")
	}
}

func TestFrozenCustomerConeMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := annotatedTestTopology(t, seed, 300)
		if got, want := a.Freeze().CustomerCone(), a.CustomerCone(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: customer cones differ", seed)
		}
	}
}

func TestFrozenValleyFreeDistancesMatchesMap(t *testing.T) {
	a := annotatedTestTopology(t, 2, 250)
	f := a.Freeze()
	for src := 0; src < f.S.N(); src += 17 {
		want, err := a.ValleyFreeDistances(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ValleyFreeDistances(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("src %d: valley-free distances differ", src)
		}
	}
	if _, err := f.ValleyFreeDistances(-1); err == nil {
		t.Fatal("out-of-range source must error")
	}
	// Incomplete annotations must surface the same error.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	partial := NewAnnotated(g)
	if err := partial.SetRel(0, 1, P2C); err != nil {
		t.Fatal(err)
	}
	if _, err := partial.Freeze().ValleyFreeDistances(0); err == nil {
		t.Fatal("incomplete annotation must error")
	}
}

func TestFrozenInflationMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		a := annotatedTestTopology(t, seed, 250)
		f := a.Freeze()
		for _, sources := range []int{0, 40} {
			want, err := a.MeasureInflation(rng.New(9), sources)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				f.Workers = workers
				got, err := f.MeasureInflation(rng.New(9), sources)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d sources %d workers %d:\n got %+v\nwant %+v", seed, sources, workers, got, want)
				}
			}
		}
	}
	small := NewAnnotated(graph.New(1))
	if _, err := small.Freeze().MeasureInflation(nil, 0); err == nil {
		t.Fatal("tiny graph must error")
	}
	a := annotatedTestTopology(t, 5, 100)
	if _, err := a.Freeze().MeasureInflation(nil, 10); err == nil {
		t.Fatal("sampling without generator must error")
	}
}

// TestFreezeWithSharesEngineCache: policy metrics bound to an engine
// land in its per-snapshot memo — computed once, shared across repeated
// calls, and identical to the unbound path.
func TestFreezeWithSharesEngineCache(t *testing.T) {
	a := annotatedTestTopology(t, 3, 300)
	eng := engine.New(a.G.Freeze(), engine.WithWorkers(4))
	f, err := a.FreezeWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Complete() {
		t.Fatal("degree annotation must freeze complete")
	}
	cones := f.CustomerCone()
	if !reflect.DeepEqual(cones, a.CustomerCone()) {
		t.Fatal("bound cones differ from the sequential reference")
	}
	// Memoized: the second call returns the same backing slice.
	again := f.CustomerCone()
	if &cones[0] != &again[0] {
		t.Fatal("customer cones not memoized through the engine")
	}
	// And a second frozen view over the same engine shares the result.
	f2, err := a.FreezeWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	shared := f2.CustomerCone()
	if &cones[0] != &shared[0] {
		t.Fatal("sibling frozen view recomputed the cones")
	}

	// Exact inflation memoizes too, and matches the unbound sweep.
	inf, err := f.MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Freeze().MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inf != want {
		t.Fatalf("bound inflation %+v, want %+v", inf, want)
	}
	inf2, err := f2.MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inf2 != inf {
		t.Fatal("memoized inflation differs")
	}
	// Sampled runs stay un-memoized (they depend on the caller's
	// generator state).
	s1, err := f.MeasureInflation(rng.New(5), 50)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.MeasureInflation(rng.New(6), 50)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("sampled inflation suspiciously identical across different samples")
	}
}

// TestFreezeWithRejectsForeignEngine: binding to an engine over a
// different topology must fail loudly.
func TestFreezeWithRejectsForeignEngine(t *testing.T) {
	a := annotatedTestTopology(t, 3, 300)
	other := engine.New(graph.New(10).Freeze())
	if _, err := a.FreezeWith(other); err == nil {
		t.Fatal("mismatched engine accepted")
	}
}

// TestFreezeWithDistinctAnnotationsDoNotShareCache: two annotations of
// the same graph bound to one engine must keep separate memo entries.
func TestFreezeWithDistinctAnnotationsDoNotShareCache(t *testing.T) {
	top, err := (gen.BA{N: 300, M: 2, A: -1.6}).Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := AnnotateByDegree(top.G, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AnnotateByDegree(top.G, 3.0) // much more peering
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(top.G.Freeze(), engine.WithWorkers(4))
	f1, err := a1.FreezeWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := a2.FreezeWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := f1.CustomerCone(), f2.CustomerCone()
	if !reflect.DeepEqual(c1, a1.CustomerCone()) {
		t.Fatal("first annotation's cones wrong")
	}
	if !reflect.DeepEqual(c2, a2.CustomerCone()) {
		t.Fatal("second annotation served the first annotation's cached cones")
	}
	i1, err := f1.MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := f2.MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if i1 == i2 {
		t.Fatal("distinct annotations returned identical memoized inflation")
	}
}

// TestFreezeWithRefreshedSnapshot: the per-arc relationship array must
// be indexed by real arc indices, which in refreshed snapshots do not
// tile 2M (slack rows, relocation gaps). Policy metrics bound to an
// engine that advanced along a trajectory must match the sequential
// reference on the final graph.
func TestFreezeWithRefreshedSnapshot(t *testing.T) {
	top, err := (gen.BA{N: 200, M: 2, A: -1.6}).Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Grow a copy in two stages so the engine ends on a refreshed
	// snapshot with relocated and slack-bearing rows.
	g := graph.New(0)
	edges := top.G.EdgeList()
	half := len(edges) / 2
	add := func(es []graph.Edge) {
		for _, e := range es {
			for g.N() <= e.V || g.N() <= e.U {
				g.AddNode()
			}
			for w := 0; w < e.W; w++ {
				g.MustAddEdge(e.U, e.V)
			}
		}
	}
	add(edges[:half])
	prev := g.Freeze()
	eng := engine.New(prev, engine.WithWorkers(4))
	eng.TrianglesPerNode() // warm the memo across the refresh
	add(edges[half:])
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	if err := eng.Advance(next, d); err != nil {
		t.Fatal(err)
	}

	a, err := AnnotateByDegree(g, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.FreezeWith(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Complete() {
		t.Fatal("degree annotation must freeze complete over a refreshed snapshot")
	}
	if got, want := f.CustomerCone(), a.CustomerCone(); !reflect.DeepEqual(got, want) {
		t.Fatal("cones over a refreshed snapshot differ from the sequential reference")
	}
	got, err := f.MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Freeze().MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("inflation over a refreshed snapshot %+v, want %+v", got, want)
	}
}

package engine

import (
	"math"
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// replayTrajectory replays a generated topology's edge list as a
// growth trajectory, advancing one engine along refreshed snapshots
// and handing each epoch to check.
func replayTrajectory(t *testing.T, top *gen.Topology, every int,
	check func(eng *Engine, g *graph.Graph, d *graph.Delta)) {
	t.Helper()
	g := graph.New(0)
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(prev, WithWorkers(testWorkers))
	edges := top.G.EdgeList()
	for i, e := range edges {
		for g.N() <= e.V || g.N() <= e.U {
			g.AddNode()
		}
		for w := 0; w < e.W; w++ {
			g.MustAddEdge(e.U, e.V)
		}
		if (i+1)%every == 0 || i == len(edges)-1 {
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Advance(next, d); err != nil {
				t.Fatal(err)
			}
			check(eng, g, d)
			prev = next
		}
	}
}

// TestAdvanceStaleEntryNeverServed is the cache-identity regression:
// an entry memoized before a refresh must never satisfy a lookup after
// Advance, for engine metrics and namespaced sibling keys alike.
func TestAdvanceStaleEntryNeverServed(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	s := g.Freeze()
	eng := New(s, WithWorkers(testWorkers))

	staleTri := eng.TrianglesPerNode()
	calls := 0
	first := eng.Cached("test:probe", func() any { calls++; return "v1" })
	if first != "v1" || calls != 1 {
		t.Fatalf("probe seed: %v calls=%d", first, calls)
	}
	// Memoized: second demand must not recompute.
	if got := eng.Cached("test:probe", func() any { calls++; return "v2" }); got != "v1" || calls != 1 {
		t.Fatalf("probe not memoized: %v calls=%d", got, calls)
	}

	g.MustAddEdge(0, 2) // closes a triangle
	next, d, err := g.Refreeze(s)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	if err := eng.Advance(next, d); err != nil {
		t.Fatal(err)
	}
	if got := eng.Cached("test:probe", func() any { calls++; return "v2" }); got != "v2" || calls != 2 {
		t.Fatalf("stale probe entry served after Advance: %v calls=%d", got, calls)
	}
	freshTri := eng.TrianglesPerNode()
	if reflect.DeepEqual(staleTri, freshTri) {
		t.Fatal("triangle counts did not change after closing a triangle")
	}
	if want := metrics.TrianglesPerNodeWith(next, 1); !reflect.DeepEqual(freshTri, want) {
		t.Fatalf("advanced triangles %v, want %v", freshTri, want)
	}
}

// TestAdvanceErrors pins the validation surface.
func TestAdvanceErrors(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	eng := New(s)
	if err := eng.Advance(nil, nil); err == nil {
		t.Fatal("nil snapshot must error")
	}
	g.MustAddEdge(1, 2)
	next, d, err := g.Refreeze(s)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	other := graph.New(3).Freeze()
	engOther := New(other)
	if err := engOther.Advance(next, d); err == nil {
		t.Fatal("delta against a foreign engine snapshot must error")
	}
	if err := eng.Advance(next, d); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceTrajectoryMatchesFreshEngines is the engine-level
// equivalence property across generator families × seeds × epoch
// schedules: at every epoch, the advanced engine's delta-maintained
// metrics and MeasureGrowth vector must equal those of a cold engine
// on a fresh freeze of the same graph.
func TestAdvanceTrajectoryMatchesFreshEngines(t *testing.T) {
	families := []struct {
		name string
		g    gen.Generator
	}{
		{"ba", gen.BA{N: 260, M: 2}},
		{"glp", gen.GLP{N: 260, M: 1, P: 0.45, Beta: 0.64}},
		{"pfp", gen.DefaultPFP(220)},
	}
	for _, fam := range families {
		for seed := uint64(1); seed <= 3; seed++ {
			top, err := fam.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", fam.name, seed, err)
			}
			for _, every := range []int{29, 113} {
				replayTrajectory(t, top, every, func(eng *Engine, g *graph.Graph, d *graph.Delta) {
					cold := New(g.Copy().Freeze(), WithWorkers(testWorkers))
					if got, want := eng.TrianglesPerNode(), cold.TrianglesPerNode(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d every=%d n=%d: triangles diverged", fam.name, seed, every, g.N())
					}
					if got, want := eng.KCore(), cold.KCore(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d every=%d n=%d: k-core diverged", fam.name, seed, every, g.N())
					}
					if got, want := eng.DegreeHistogram(), cold.DegreeHistogram(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d every=%d n=%d: histogram diverged", fam.name, seed, every, g.N())
					}
					got, want := eng.MeasureGrowth(), cold.MeasureGrowth()
					if got != want {
						t.Fatalf("%s/%d every=%d n=%d: growth stats %+v vs %+v",
							fam.name, seed, every, g.N(), got, want)
					}
					// And against the sequential kernels.
					seq := sequentialMeasureGrowth(g.Freeze())
					if got.N != seq.N || got.M != seq.M || got.MaxCore != seq.MaxCore ||
						math.Abs(got.AvgClustering-seq.AvgClustering) > 1e-12 ||
						math.Abs(got.Gamma-seq.Gamma) > 1e-9 {
						t.Fatalf("%s/%d every=%d: engine %+v vs sequential %+v", fam.name, seed, every, got, seq)
					}
				})
			}
		}
	}
}

// TestAdvanceWithoutDelta: a nil delta (full-freeze fallback) rebases
// with no inheritance but stays correct.
func TestAdvanceWithoutDelta(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	eng := New(s, WithWorkers(testWorkers))
	eng.TrianglesPerNode()
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	next := g.Freeze() // full freeze, no delta
	if err := eng.Advance(next, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.TrianglesPerNode(), metrics.TrianglesPerNodeWith(next, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("triangles %v, want %v", got, want)
	}
}

// TestAdvanceKCoreRidesCoreMap pins the k-core wiring: the cold KCore
// is a plain peel with no order state, the first Advance after it
// builds the CoreMap, later epochs refresh it in place without a
// re-peel, and a result a caller already holds never changes.
func TestAdvanceKCoreRidesCoreMap(t *testing.T) {
	top, err := gen.GLP{N: 400, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var (
		held   metrics.KCoreResult
		kept   []int
		epochs int
		cm     *metrics.CoreMap
	)
	replayTrajectory(t, top, 40, func(eng *Engine, g *graph.Graph, d *graph.Delta) {
		epochs++
		got := eng.KCore()
		if want := metrics.KCoreFrozen(eng.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: k-core diverged", epochs)
		}
		v, ok := eng.peek("coremap")
		switch {
		case epochs == 1:
			// The replay's engine started cold, with nothing memoized.
			if ok {
				t.Fatal("cold KCore built order state")
			}
			held, kept = got, append([]int(nil), got.Coreness...)
		case !ok:
			t.Fatalf("epoch %d: no order state after Advance", epochs)
		case cm == nil:
			cm = v.(*metrics.CoreMap)
		case v.(*metrics.CoreMap) != cm:
			t.Fatalf("epoch %d: order state rebuilt instead of refreshed", epochs)
		}
	})
	if !reflect.DeepEqual(held.Coreness, kept) {
		t.Fatal("a held KCore result changed under later epochs")
	}
	if cm == nil {
		t.Fatal("no order state")
	}
	if cm.Rebuilds() != 0 || cm.Refreshes() != epochs-2 {
		t.Fatalf("%d rebuilds, %d refreshes over %d epochs; want 0 and %d",
			cm.Rebuilds(), cm.Refreshes(), epochs, epochs-2)
	}
}

// TestAdvanceHeldResultsNeverChange: the triangle counts and the
// k-order are engine-owned state refreshed in place across Advance,
// so the TrianglesPerNode, LocalClustering and KCore results a caller
// holds from epoch t must be copies that later refreshes never touch.
// Every epoch's results are held and compared against their snapshots
// after the whole trajectory.
func TestAdvanceHeldResultsNeverChange(t *testing.T) {
	top, err := gen.GLP{N: 500, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		tri, triCopy     []int
		local, localCopy []float64
		core             metrics.KCoreResult
		coreCopy         []int
	}
	var all []held
	replayTrajectory(t, top, 60, func(eng *Engine, g *graph.Graph, d *graph.Delta) {
		eng.MeasureGrowth() // the observer's reads: refreshed triangles and k-order
		h := held{tri: eng.TrianglesPerNode(), local: eng.LocalClustering(), core: eng.KCore()}
		h.triCopy = append([]int(nil), h.tri...)
		h.localCopy = append([]float64(nil), h.local...)
		h.coreCopy = append([]int(nil), h.core.Coreness...)
		all = append(all, h)
	})
	if len(all) < 5 {
		t.Fatalf("trajectory too short: %d epochs", len(all))
	}
	for i, h := range all {
		if !reflect.DeepEqual(h.tri, h.triCopy) || !reflect.DeepEqual(h.local, h.localCopy) ||
			!reflect.DeepEqual(h.core.Coreness, h.coreCopy) {
			t.Fatalf("epoch %d: a held result changed under later refreshes", i+1)
		}
	}
}

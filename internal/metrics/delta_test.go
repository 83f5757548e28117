package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// trajectoryFamilies builds the generator matrix of the equivalence
// requirement: ≥3 families × 3 seeds, replayed as growth trajectories.
func trajectoryFamilies() []struct {
	name string
	g    gen.Generator
} {
	return []struct {
		name string
		g    gen.Generator
	}{
		{"ba", gen.BA{N: 300, M: 2}},
		{"glp", gen.GLP{N: 300, M: 1, P: 0.45, Beta: 0.64}},
		{"pfp", gen.DefaultPFP(250)},
		{"er", gen.GNP{N: 300, P: 4.2 / 299}},
	}
}

// replayEpochs replays a generated topology's edge list into a growing
// graph, calling check(prev, next, delta, g) at every epoch of the
// given stride. Node ids appear densely in generated maps, so growing
// the node set to each edge's endpoints reproduces a plausible arrival
// order.
func replayEpochs(t *testing.T, top *gen.Topology, every int,
	check func(prev, next *graph.Snapshot, d *graph.Delta, g *graph.Graph)) {
	t.Helper()
	g := graph.New(0)
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
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
			if d == nil {
				t.Fatal("replay expected a delta refresh")
			}
			check(prev, next, d, g)
			prev = next
		}
	}
}

// TestRefreshKernelsMatchFullRecompute pins every incremental kernel
// against its full recompute at every epoch of every family × seed
// trajectory.
func TestRefreshKernelsMatchFullRecompute(t *testing.T) {
	for _, fam := range trajectoryFamilies() {
		for seed := uint64(1); seed <= 3; seed++ {
			top, err := fam.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", fam.name, seed, err)
			}
			tri := []int(nil)
			hist := []int(nil)
			var core *CoreMap
			var sc TriangleScratch // reused across epochs, as the engine does
			replayEpochs(t, top, 37, func(prev, next *graph.Snapshot, d *graph.Delta, g *graph.Graph) {
				tri = RefreshTriangles(prev, next, d, tri, &sc)
				if want := TrianglesPerNodeWith(next, 1); !reflect.DeepEqual(tri, want) {
					t.Fatalf("%s/%d n=%d: triangles diverged", fam.name, seed, next.N())
				}
				hist = RefreshDegreeHistogram(prev, next, d, hist)
				if want := DegreeHistogramFrozen(next); !reflect.DeepEqual(hist, want) {
					t.Fatalf("%s/%d n=%d: degree histogram diverged: %v vs %v",
						fam.name, seed, next.N(), hist, want)
				}
				if core == nil {
					core = NewCoreMap(prev)
				}
				core.Refresh(next, d)
				requireCoreMap(t, fmt.Sprintf("%s/%d n=%d", fam.name, seed, next.N()), core)
			})
		}
	}
}

// TestRefreshKernelsUnderChurn drives inserts, multiplicity changes and
// removals through the kernels; CoreMap must detect the removals and
// re-peel, RefreshTriangles must stay exact on both sides.
func TestRefreshKernelsUnderChurn(t *testing.T) {
	r := rng.New(5)
	g := graph.New(30)
	for i := 0; i < 120; i++ {
		u, v := r.Intn(30), r.Intn(30)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	prev := g.Freeze()
	tri := TrianglesPerNodeWith(prev, 1)
	hist := DegreeHistogramFrozen(prev)
	core := NewCoreMap(prev)
	for epoch := 0; epoch < 40; epoch++ {
		for i := 0; i < 15; i++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u == v {
				continue
			}
			switch x := r.Float64(); {
			case x < 0.3 && g.HasEdge(u, v):
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			default:
				g.MustAddEdge(u, v)
			}
		}
		if epoch%5 == 0 {
			g.AddNode()
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		tri = RefreshTriangles(prev, next, d, tri, nil)
		if want := TrianglesPerNodeWith(next, 1); !reflect.DeepEqual(tri, want) {
			t.Fatalf("epoch %d: triangles diverged", epoch)
		}
		hist = RefreshDegreeHistogram(prev, next, d, hist)
		if want := DegreeHistogramFrozen(next); !reflect.DeepEqual(hist, want) {
			t.Fatalf("epoch %d: histogram diverged", epoch)
		}
		core.Refresh(next, d)
		requireCoreMap(t, fmt.Sprintf("epoch %d", epoch), core)
		prev = next
	}
}

// TestRefreshKCoreCycleClosure pins the subtle insertion case: closing
// a long path into a cycle promotes every interior node 1 → 2 even
// though only the endpoints touch the delta.
func TestRefreshKCoreCycleClosure(t *testing.T) {
	g := graph.New(12)
	for u := 1; u < 12; u++ {
		g.MustAddEdge(u-1, u)
	}
	prev := g.Freeze()
	cm := NewCoreMap(prev)
	g.MustAddEdge(0, 11)
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	cm.Refresh(next, d)
	requireCoreMap(t, "cycle closure", cm)
	core := cm.Result()
	want := KCoreFrozen(next)
	if !reflect.DeepEqual(core, want) {
		t.Fatalf("cycle closure: %v vs %v", core.Coreness, want.Coreness)
	}
	for u, c := range core.Coreness {
		if c != 2 {
			t.Fatalf("node %d coreness %d after cycle closure, want 2", u, c)
		}
	}
}

// TestMeasureGrowthSequentialReference checks the growth reference
// against its parts on a generated map.
func TestMeasureGrowthSequentialReference(t *testing.T) {
	top, err := gen.BA{N: 400, M: 2}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G
	s := g.Freeze()
	st := measureGrowth(g)
	if st.N != g.N() || st.M != g.M() || st.Strength != g.TotalStrength() ||
		st.MaxDegree != g.MaxDegree() || st.AvgDegree != g.AvgDegree() {
		t.Fatalf("size fields wrong: %+v", st)
	}
	if st.AvgClustering != avgClusteringOf(s) || st.Transitivity != transitivityOf(s) {
		t.Fatal("clustering fields wrong")
	}
	if st.MaxCore != KCoreFrozen(s).MaxCore {
		t.Fatal("core field wrong")
	}
	if !reflect.DeepEqual(degreeHistogram(g), DegreeHistogramFrozen(s)) {
		t.Fatal("degree histograms differ")
	}
	fit, err := stats.FitPowerLawHistogram(DegreeHistogramFrozen(s))
	if err != nil {
		t.Fatal(err)
	}
	if st.Gamma != fit.Alpha || st.GammaKS != fit.KS {
		t.Fatal("fit fields wrong")
	}
	if empty := (measureGrowth(graph.New(0))); empty.N != 0 || empty.Gamma != 0 {
		t.Fatalf("empty growth stats %+v", empty)
	}
}

package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// replayChurnEpochs drives a generated family topology through mixed
// insert+remove epochs: each epoch removes a handful of surviving
// edges, re-inserts fresh ones, and occasionally grows the node set,
// so every delta carries removals and insertions at once. check runs
// on each refreeze.
func replayChurnEpochs(t *testing.T, fam string, seed uint64, epochs int,
	check func(prev, next *graph.Snapshot, d *graph.Delta)) {
	t.Helper()
	var base *graph.Graph
	for _, f := range trajectoryFamilies() {
		if f.name == fam {
			top, err := f.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			base = top.G
		}
	}
	if base == nil {
		t.Fatalf("unknown family %q", fam)
	}
	replayChurn(t, base, seed, epochs, check)
}

// replayChurn runs replayChurnEpochs' mixed epochs over a copy of base.
func replayChurn(t *testing.T, base *graph.Graph, seed uint64, epochs int,
	check func(prev, next *graph.Snapshot, d *graph.Delta)) {
	t.Helper()
	g := base.Copy()
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for epoch := 0; epoch < epochs; epoch++ {
		edges := prev.EdgeList()
		for i := 0; i < 8 && len(edges) > 0; i++ {
			e := edges[r.Intn(len(edges))]
			if g.HasEdge(e.U, e.V) {
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 10; i++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
		if epoch%4 == 3 {
			u := g.AddNode()
			g.MustAddEdge(u, r.Intn(u))
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("churn epoch expected a delta refresh")
		}
		rem := false
		for _, de := range d.Edges() {
			if de.NewW < de.OldW {
				rem = true
				break
			}
		}
		if !rem {
			t.Fatalf("epoch %d: churn delta carries no removals", epoch)
		}
		check(prev, next, d)
		prev = next
	}
}

// TestDistMapRefreshUnderChurn pins the removal-repair contract across
// the full matrix: families × seeds × workers {1,2,4,8}, mixed
// insert+remove deltas every epoch, bit-identity against the cold
// build at every step.
func TestDistMapRefreshUnderChurn(t *testing.T) {
	for _, fam := range []string{"ba", "glp", "er"} {
		for seed := uint64(1); seed <= 2; seed++ {
			var maps []*DistMap
			replayChurnEpochs(t, fam, seed, 12, func(prev, next *graph.Snapshot, d *graph.Delta) {
				if maps == nil {
					for range distMapWorkers {
						maps = append(maps, NewDistMap(prev, nil, 1))
					}
				}
				cold := NewDistMap(next, nil, 1)
				for wi, w := range distMapWorkers {
					maps[wi].Refresh(next, d, w)
					requireDistMapEqual(t, fam, maps[wi], cold)
				}
				ps := RefreshPathLengths(maps[0])
				want, err := PathLengthsFrozen(next, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ps, want) {
					t.Fatalf("%s/%d: churned path stats diverged", fam, seed)
				}
			})
		}
	}
}

// TestDistMapChurnBudgetFallback forces every churn repair over budget
// so the cold-rebuild fallback runs under mixed deltas and must still
// land exactly on the reference.
func TestDistMapChurnBudgetFallback(t *testing.T) {
	var dm *DistMap
	replayChurnEpochs(t, "ba", 3, 10, func(prev, next *graph.Snapshot, d *graph.Delta) {
		if dm == nil {
			dm = NewDistMap(prev, nil, 1)
			dm.maxScan = 1
		}
		dm.Refresh(next, d, 4)
		requireDistMapEqual(t, "churn-budget", dm, NewDistMap(next, nil, 1))
	})
}

// TestDistMapSampledUnderChurn runs the pivot mode through the same
// mixed deltas: the sampled repair must match a cold sampled build
// over the identical pivot set.
func TestDistMapSampledUnderChurn(t *testing.T) {
	var dm *DistMap
	replayChurnEpochs(t, "glp", 5, 10, func(prev, next *graph.Snapshot, d *graph.Delta) {
		if dm == nil {
			dm = NewDistMap(prev, PivotSources(rng.New(17), prev.N(), 20), 2)
			return
		}
		dm.Refresh(next, d, 4)
		cold := NewDistMap(next, dm.Sources(), 1)
		requireDistMapEqual(t, "sampled-churn", dm, cold)
	})
}

// TestRefreshKernelsUnderChurnFamilies drives the structural kernels —
// triangles, degree histogram, k-core — through the family × seed
// churn matrix, pinning each against its full recompute.
func TestRefreshKernelsUnderChurnFamilies(t *testing.T) {
	for _, fam := range []string{"ba", "glp", "pfp", "er"} {
		for seed := uint64(1); seed <= 2; seed++ {
			var (
				tri  []int
				hist []int
				core *CoreMap
				init bool
			)
			replayChurnEpochs(t, fam, seed, 12, func(prev, next *graph.Snapshot, d *graph.Delta) {
				if !init {
					tri = TrianglesPerNodeWith(prev, 1)
					hist = DegreeHistogramFrozen(prev)
					core = NewCoreMap(prev)
					init = true
				}
				tri = RefreshTriangles(prev, next, d, tri, nil)
				if want := TrianglesPerNodeWith(next, 1); !reflect.DeepEqual(tri, want) {
					t.Fatalf("%s/%d: churned triangles diverged", fam, seed)
				}
				hist = RefreshDegreeHistogram(prev, next, d, hist)
				if want := DegreeHistogramFrozen(next); !reflect.DeepEqual(hist, want) {
					t.Fatalf("%s/%d: churned histogram diverged", fam, seed)
				}
				core.Refresh(next, d)
				requireCoreMap(t, fmt.Sprintf("%s/%d churned", fam, seed), core)
			})
		}
	}
}

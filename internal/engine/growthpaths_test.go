package engine

import (
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// TestGrowthPathsInheritedAcrossAdvance is the engine-level equivalence
// of the incremental distance map: an engine advanced along a
// trajectory — whose "distmap" entry is repaired in place by the
// inherit hook — must produce the same distance rows, growth-path
// vector and betweenness as a cold engine over a fresh freeze, at every
// epoch.
func TestGrowthPathsInheritedAcrossAdvance(t *testing.T) {
	top, err := gen.BA{N: 280, M: 2}.Generate(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	replayTrajectory(t, top, 43, func(eng *Engine, g *graph.Graph, d *graph.Delta) {
		epochs++
		cold := New(g.Copy().Freeze(), WithWorkers(testWorkers))
		got, want := eng.MeasureGrowthPaths(nil), cold.MeasureGrowthPaths(nil)
		if got != want {
			t.Fatalf("n=%d: growth path stats %+v vs %+v", g.N(), got, want)
		}
		if got.PathSources != g.N() || got.Diameter <= 0 || got.AvgPathLen <= 0 {
			t.Fatalf("n=%d: degenerate path fields %+v", g.N(), got)
		}
		dm, cm := eng.GrowthDistMap(nil), cold.GrowthDistMap(nil)
		for i := 0; i < dm.SourceCount(); i++ {
			if !reflect.DeepEqual(dm.Dist(i), cm.Dist(i)) {
				t.Fatalf("n=%d: distance row %d diverged", g.N(), i)
			}
		}
	})
	if epochs < 5 {
		t.Fatalf("trajectory too short: %d epochs", epochs)
	}
}

// TestGrowthPathsSampledPivots pins sampled mode through the engine: a
// fixed pivot set bound on the first build survives Advance, and the
// estimators match a cold sampled map over the same pivots.
func TestGrowthPathsSampledPivots(t *testing.T) {
	top, err := gen.GLP{N: 260, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	var pivots []int32
	replayTrajectory(t, top, 71, func(eng *Engine, g *graph.Graph, d *graph.Delta) {
		if pivots == nil {
			pivots = metrics.PivotSources(rng.New(9), eng.Snapshot().N(), 16)
		}
		st := eng.MeasureGrowthPaths(pivots)
		if st.PathSources != 16 {
			t.Fatalf("pivot count %d, want 16", st.PathSources)
		}
		dm := eng.GrowthDistMap(pivots)
		if !reflect.DeepEqual(dm.Sources(), pivots) {
			t.Fatal("pivot set drifted across Advance")
		}
		cold := metrics.NewDistMap(g.Copy().Freeze(), pivots, 1)
		if got, want := eng.GrowthPathStats(pivots), metrics.RefreshPathLengths(cold); !reflect.DeepEqual(got, want) {
			t.Fatalf("sampled path stats %+v vs %+v", got, want)
		}
		if !reflect.DeepEqual(eng.GrowthCloseness(pivots), metrics.RefreshCloseness(cold)) {
			t.Fatal("sampled closeness diverged")
		}
	})
}

// TestMeasureGrowthPathsEmpty: the zero-node engine keeps the empty
// growth vector, no path fields.
func TestMeasureGrowthPathsEmpty(t *testing.T) {
	eng := New(graph.New(0).Freeze(), WithWorkers(1))
	if st := eng.MeasureGrowthPaths(nil); st.N != 0 || st.PathSources != 0 {
		t.Fatalf("empty engine growth stats %+v", st)
	}
}

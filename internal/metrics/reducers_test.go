package metrics_test

import (
	"fmt"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// TestTrajectoryReducersMatchVectorOracles pins every scalar a
// trajectory epoch reads against the per-node vector it replaces, with
// ==, at every epoch of GLP and BA growth runs: the fused mean
// closeness against the in-order mean of RefreshCloseness, the fused
// average clustering against AvgClusteringFromLocal over
// LocalClusteringFromTriangles, and the maintained CoreMap.MaxCore
// against a cold KCoreFrozen peel. The observation vector of
// MeasureGrowthPaths must carry the same values. Each run goes through
// an engine advanced across refreshed snapshots, at one and four
// workers, with an exact and with a 64-pivot distance map.
func TestTrajectoryReducersMatchVectorOracles(t *testing.T) {
	families := []struct {
		name string
		g    gen.TrajectoryGenerator
	}{
		{"glp", gen.GLP{N: 1200, M: 1, P: 0.45, Beta: 0.64}},
		{"ba", gen.BA{N: 1200, M: 2}},
	}
	for _, fam := range families {
		for _, workers := range []int{1, 4} {
			for _, pivots := range []int{0, 64} {
				name := fmt.Sprintf("%s/w%d/pivots%d", fam.name, workers, pivots)
				t.Run(name, func(t *testing.T) {
					epochs := observeReducers(t, fam.g, workers, pivots)
					if epochs < 8 {
						t.Fatalf("only %d epochs observed", epochs)
					}
				})
			}
		}
	}
}

// observeReducers runs one growth trajectory observed every 120 nodes,
// checks the reducers at every epoch and returns the epoch count.
func observeReducers(t *testing.T, g gen.TrajectoryGenerator, workers, pivots int) int {
	t.Helper()
	var (
		prev     *graph.Snapshot
		eng      *engine.Engine
		cm       *metrics.CoreMap
		pivotSet []int32
		epochs   int
	)
	observe := func(live *graph.Graph, n int) error {
		var next *graph.Snapshot
		if prev == nil {
			next = live.Freeze()
			eng = engine.New(next, engine.WithWorkers(workers))
			cm = metrics.NewCoreMap(next)
			if pivots > 0 {
				pivotSet = metrics.PivotSources(rng.New(3), next.N(), pivots)
			}
		} else {
			var d *graph.Delta
			var err error
			if next, d, err = live.Refreeze(prev); err != nil {
				return err
			}
			if err := eng.Advance(next, d); err != nil {
				return err
			}
			cm.Refresh(next, d)
		}
		prev = next
		epochs++
		st := eng.MeasureGrowthPaths(pivotSet)

		clo := metrics.RefreshCloseness(eng.GrowthDistMap(pivotSet))
		sum := 0.0
		for _, c := range clo {
			sum += c
		}
		wantClo := sum / float64(len(clo))
		if got := metrics.RefreshMeanCloseness(eng.GrowthDistMap(pivotSet)); got != wantClo || st.MeanCloseness != wantClo {
			t.Fatalf("n=%d: mean closeness %v, observed %v, vector oracle %v", n, got, st.MeanCloseness, wantClo)
		}

		tri := eng.TrianglesPerNode()
		wantAvg := metrics.AvgClusteringFromLocal(next, metrics.LocalClusteringFromTriangles(next, tri))
		if got := metrics.AvgClusteringFromTriangles(next, tri); got != wantAvg || st.AvgClustering != wantAvg {
			t.Fatalf("n=%d: avg clustering %v, observed %v, vector oracle %v", n, got, st.AvgClustering, wantAvg)
		}

		wantCore := metrics.KCoreFrozen(next).MaxCore
		if got := cm.MaxCore(); got != wantCore || st.MaxCore != wantCore {
			t.Fatalf("n=%d: max core %d, observed %d, cold peel %d", n, got, st.MaxCore, wantCore)
		}
		return nil
	}
	if _, err := g.GenerateTrajectory(rng.New(7), workers, gen.Trajectory{Every: 120, Observe: observe}); err != nil {
		t.Fatal(err)
	}
	return epochs
}

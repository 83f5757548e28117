package netmodel

import (
	"bytes"
	"fmt"
	"testing"

	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// runTrajectoryPathsObserved drives one BA growth run (sequential
// generation, so every call replays the identical arrival sequence) and
// returns the observer's epochs measured with path metrics at the given
// engine pool width.
func runTrajectoryPathsObserved(tb testing.TB, n, every, workers, pivots int) []core.TrajectoryPoint {
	tb.Helper()
	obs := core.NewTrajectoryObserver(workers)
	if err := obs.EnablePathMetrics(pivots, 1); err != nil {
		tb.Fatal(err)
	}
	_, err := gen.BA{N: n, M: 2}.GenerateTrajectory(rng.New(1), 1, gen.Trajectory{
		Every:   every,
		Observe: obs.Observe,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return obs.Points()
}

// TestTrajectoryPathsByteIdentity is the end-to-end determinism and
// equivalence gate of the incremental distance engine: the rendered
// trajectory table with path metrics must be byte-identical at every
// worker count, and every epoch's stats must equal a full recompute —
// a cold engine on a fresh freeze — of the same graph.
func TestTrajectoryPathsByteIdentity(t *testing.T) {
	n, every := 2000, 320
	if testing.Short() {
		n, every = 800, 130
	}

	render := func(points []core.TrajectoryPoint) string {
		var buf bytes.Buffer
		if err := core.WriteTrajectory(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := runTrajectoryPathsObserved(t, n, every, 1, 0)
	if len(ref) < 4 {
		t.Fatalf("only %d epochs observed", len(ref))
	}
	refTable := render(ref)
	for _, w := range []int{2, 4, 8} {
		if got := render(runTrajectoryPathsObserved(t, n, every, w, 0)); got != refTable {
			t.Fatalf("trajectory table at %d workers differs from 1 worker:\n%s\nvs\n%s", w, got, refTable)
		}
	}

	// Full-recompute baseline: replay the identical growth run, cold
	// engine + exact distance map per epoch, and compare stats epoch by
	// epoch.
	i := 0
	_, err := gen.BA{N: n, M: 2}.GenerateTrajectory(rng.New(1), 1, gen.Trajectory{
		Every: every,
		Observe: func(g *graph.Graph, nn int) error {
			eng := engine.New(g.Copy().Freeze(), engine.WithWorkers(2))
			want := eng.MeasureGrowthPaths(nil)
			if i >= len(ref) {
				return fmt.Errorf("baseline observed more epochs than the trajectory run")
			}
			if got := ref[i].Stats; got != want {
				return fmt.Errorf("epoch %d (n=%d): refreshed stats %+v vs full recompute %+v", i, nn, got, want)
			}
			i++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("baseline replay observed %d epochs, trajectory %d", i, len(ref))
	}
}

// TestTrajectoryPathsSampledWorkerInvariance repeats the worker matrix
// in sampled-pivot mode, where betweenness-style group merges and the
// pivot draw could otherwise smuggle in pool-width dependence.
func TestTrajectoryPathsSampledWorkerInvariance(t *testing.T) {
	n, every := 1200, 200
	if testing.Short() {
		n, every = 600, 100
	}
	ref := runTrajectoryPathsObserved(t, n, every, 1, 48)
	for _, p := range ref {
		if p.Stats.PathSources != 48 {
			t.Fatalf("epoch pivot count %d, want 48", p.Stats.PathSources)
		}
	}
	for _, w := range []int{2, 4, 8} {
		got := runTrajectoryPathsObserved(t, n, every, w, 48)
		if len(got) != len(ref) {
			t.Fatalf("%d workers: %d epochs vs %d", w, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: epoch %d diverged: %+v vs %+v", w, i, got[i], ref[i])
			}
		}
	}
}

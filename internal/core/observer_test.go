package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// sequentialTrajectory observes a growth run with a synchronous
// Refreeze → Advance → Measure loop, the observer's reference, and
// returns its points and final snapshot.
func sequentialTrajectory(t *testing.T, model string, n, every, workers int, paths bool, pivots int) ([]TrajectoryPoint, *graph.Snapshot) {
	t.Helper()
	g, err := BuildModel(model, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		prev   *graph.Snapshot
		eng    *engine.Engine
		pivs   []int32
		points []TrajectoryPoint
	)
	observe := func(gr *graph.Graph, _ int) error {
		var next *graph.Snapshot
		var d *graph.Delta
		var err error
		if prev == nil {
			if next, err = gr.FreezeChecked(); err != nil {
				return err
			}
			eng = engine.New(next, engine.WithWorkers(workers))
			if paths && pivots > 0 {
				pivs = metrics.PivotSources(rng.New(7), next.N(), pivots)
			}
		} else {
			if next, d, err = gr.Refreeze(prev); err != nil {
				return err
			}
			if err = eng.Advance(next, d); err != nil {
				return err
			}
		}
		prev = next
		var st metrics.GrowthStats
		if paths {
			st = eng.MeasureGrowthPaths(pivs)
		} else {
			st = eng.MeasureGrowth()
		}
		points = append(points, TrajectoryPoint{N: next.N(), M: next.M(), Refreshed: d != nil, Stats: st})
		return nil
	}
	if _, err := gen.GenerateTrajectoryWith(g, rng.New(3), workers, gen.Trajectory{Every: every, Observe: observe}); err != nil {
		t.Fatal(err)
	}
	return points, prev
}

// samePoints compares trajectories field for field; %+v renders every
// float64 exactly, so a NaN matches itself.
func samePoints(t *testing.T, label string, got, want []TrajectoryPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if g, w := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); g != w {
			t.Fatalf("%s: epoch %d\n got %s\nwant %s", label, i, g, w)
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines remain, want <= %d", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObserverMatchesSequentialObservation pins the pipelined observer
// to the synchronous loop: the same points field for field, the engine
// on the last epoch's snapshot, and Points/Engine safe to call
// repeatedly — also after an observer error aborted the generation —
// with no goroutine left behind.
func TestObserverMatchesSequentialObservation(t *testing.T) {
	const n, every = 1200, 150
	base := runtime.NumGoroutine()
	for _, model := range []string{"glp", "ba"} {
		for _, workers := range []int{1, 2, 4} {
			for _, mode := range []struct {
				name   string
				paths  bool
				pivots int
			}{{"off", false, 0}, {"exact", true, 0}, {"pivots", true, 48}} {
				label := fmt.Sprintf("%s workers=%d paths=%s", model, workers, mode.name)
				want, last := sequentialTrajectory(t, model, n, every, workers, mode.paths, mode.pivots)
				if len(want) < 5 {
					t.Fatalf("%s: reference has only %d epochs", label, len(want))
				}

				newObserver := func() *TrajectoryObserver {
					obs := NewTrajectoryObserver(workers)
					if mode.paths {
						if err := obs.EnablePathMetrics(mode.pivots, 7, n); err != nil {
							t.Fatal(err)
						}
					}
					return obs
				}
				g, err := BuildModel(model, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				obs := newObserver()
				top, err := gen.GenerateTrajectoryWith(g, rng.New(3), workers, gen.Trajectory{Every: every, Observe: obs.Observe})
				if err != nil {
					t.Fatal(err)
				}
				for range 2 {
					samePoints(t, label, obs.Points(), want)
					snap := obs.Engine().Snapshot()
					if snap != obs.prev || snap.N() != top.G.N() || !reflect.DeepEqual(snap.EdgeList(), last.EdgeList()) {
						t.Fatalf("%s: engine is not on the last epoch's snapshot", label)
					}
				}
				settleGoroutines(t, label, base)

				// Abort the generation from the observer after its third
				// epoch: the three started measurements still land.
				g, err = BuildModel(model, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				obs = newObserver()
				stop := errors.New("stop")
				epochs := 0
				_, err = gen.GenerateTrajectoryWith(g, rng.New(3), workers, gen.Trajectory{Every: every, Observe: func(gr *graph.Graph, nn int) error {
					if err := obs.Observe(gr, nn); err != nil {
						return err
					}
					if epochs++; epochs == 3 {
						return stop
					}
					return nil
				}})
				if !errors.Is(err, stop) {
					t.Fatalf("%s: aborted run returned %v", label, err)
				}
				for range 2 {
					samePoints(t, label+" aborted", obs.Points(), want[:3])
					if obs.Engine().Snapshot() != obs.prev {
						t.Fatalf("%s aborted: engine is not on the third epoch's snapshot", label)
					}
				}
				settleGoroutines(t, label+" aborted", base)
			}
		}
	}
}

// TestEnablePathMetricsAfterFirstEpoch: the measurement mode is fixed
// by the first epoch, so a late call is refused and changes nothing —
// the trajectory stays without path metrics.
func TestEnablePathMetricsAfterFirstEpoch(t *testing.T) {
	g, err := BuildModel("glp", 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewTrajectoryObserver(1)
	var lateErr error
	epochs := 0
	_, err = gen.GenerateTrajectoryWith(g, rng.New(1), 1, gen.Trajectory{Every: 1000, Observe: func(gr *graph.Graph, nn int) error {
		if err := obs.Observe(gr, nn); err != nil {
			return err
		}
		if epochs++; epochs == 1 {
			lateErr = obs.EnablePathMetrics(8, 1, 3000)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if lateErr == nil {
		t.Fatal("EnablePathMetrics after the first epoch was accepted")
	}
	if obs.pathsOn || obs.pathPivots != 0 || obs.pathSeed != 0 {
		t.Fatalf("refused call changed the observer: paths %v pivots %d seed %d", obs.pathsOn, obs.pathPivots, obs.pathSeed)
	}
	pts := obs.Points()
	if len(pts) < 2 {
		t.Fatalf("only %d epochs", len(pts))
	}
	for i, p := range pts {
		if p.Stats.PathSources != 0 {
			t.Fatalf("epoch %d recorded %d path sources after a refused EnablePathMetrics", i, p.Stats.PathSources)
		}
	}
}

// TestObserverRefusesExactFallback: a sampled run whose first epoch has
// no more nodes than pivots falls back to exact path metrics for the
// whole trajectory. Over a final node count beyond the exact envelope
// the first Observe refuses it with one line, before the engine or any
// distance row exists; within the envelope the run proceeds exactly as
// an exact one.
func TestObserverRefusesExactFallback(t *testing.T) {
	g, err := BuildModel("glp", 200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewTrajectoryObserver(1)
	if err := obs.EnablePathMetrics(64, 1, 200000); err != nil {
		t.Fatal(err)
	}
	_, err = gen.GenerateTrajectoryWith(g, rng.New(1), 1, gen.Trajectory{Every: 50, Observe: obs.Observe})
	if err == nil || !strings.Contains(err.Error(), "-path-sources") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("exact fallback over 200000 nodes: err %v", err)
	}
	if obs.Engine() != nil || len(obs.Points()) != 0 {
		t.Fatalf("refused first epoch left an engine (%v) or %d points", obs.Engine() != nil, len(obs.Points()))
	}

	observe := func(pivots int) []TrajectoryPoint {
		g, err := BuildModel("glp", 3000, nil)
		if err != nil {
			t.Fatal(err)
		}
		obs := NewTrajectoryObserver(2)
		if err := obs.EnablePathMetrics(pivots, 1, 3000); err != nil {
			t.Fatal(err)
		}
		if _, err := gen.GenerateTrajectoryWith(g, rng.New(1), 1, gen.Trajectory{Every: 30, Observe: obs.Observe}); err != nil {
			t.Fatal(err)
		}
		return obs.Points()
	}
	sampled, exact := observe(64), observe(0)
	if sampled[0].N > 64 || !reflect.DeepEqual(sampled, exact) {
		t.Fatalf("a 64-pivot run from a %d-node first epoch diverged from the exact run", sampled[0].N)
	}
}

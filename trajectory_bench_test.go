package netmodel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"netmodel/internal/benchutil"
	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// The trajectory benchmarks are the acceptance surface of incremental
// freeze: the same BA growth run observed at every epoch, measured
// either by delta-refreshing the previous CSR snapshot and advancing
// one version-aware engine (refresh), or by a full Freeze and a cold
// engine per epoch (refreeze — what every trajectory study cost before
// this change). The measured vector is engine.MeasureGrowth: degree
// histogram and tail fit, clustering from triangle counts, k-core
// depth. The 10k rows are the smoke; the 100k × 100-epoch rows are
// the acceptance scale (target ≥ 5x):
//
//	go test -run TestBenchJSON/trajectory . -bench-out DIR   # BENCH_trajectory.json rows
//	go test -bench Trajectory .                              # standard benchmark rows

// trajBenchPivots is the pivot sample size of the path-metric rows.
const trajBenchPivots = 64

// runTrajectory drives one BA growth run of n nodes observed every
// n/epochs arrivals and returns the number of epochs measured. With
// refresh, epochs ride the incremental path; without, every epoch pays
// a full freeze and a cold engine, metrics recomputed from scratch.
// pivots > 0 turns the distance family on: the refresh arm observes
// through a path-enabled TrajectoryObserver (the engine's distance map
// is repaired across Advance), the recompute arm pays cold pivot BFS
// per epoch. Both arms measure the same pivot sample, drawn once on the
// first epoch.
func runTrajectory(tb testing.TB, n, epochs, workers, pivots int, refresh bool) int {
	tb.Helper()
	every := n / epochs
	if every < 1 {
		every = 1
	}
	measured := 0
	var observe func(g *graph.Graph, nn int) error
	if refresh {
		obs := core.NewTrajectoryObserver(workers)
		if pivots > 0 {
			obs.EnablePathMetrics(pivots, 1)
		}
		observe = func(g *graph.Graph, nn int) error {
			if err := obs.Observe(g, nn); err != nil {
				return err
			}
			measured++
			return nil
		}
	} else {
		var pivotList []int32
		observe = func(g *graph.Graph, nn int) error {
			snap, err := g.FreezeChecked()
			if err != nil {
				return err
			}
			eng := engine.New(snap, engine.WithWorkers(workers))
			var st metrics.GrowthStats
			if pivots > 0 {
				if pivotList == nil {
					pivotList = metrics.PivotSources(rng.New(1), snap.N(), pivots)
				}
				st = eng.MeasureGrowthPaths(pivotList)
			} else {
				st = eng.MeasureGrowth()
			}
			if st.N != nn {
				return fmt.Errorf("measured %d nodes, want %d", st.N, nn)
			}
			measured++
			return nil
		}
	}
	_, err := gen.BA{N: n, M: 2}.GenerateTrajectory(rng.New(1), workers, gen.Trajectory{
		Every:   every,
		Observe: observe,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return measured
}

// routingBenchSources is the warm tree set of the routing rows: enough
// trees that repair work dominates bookkeeping, few enough to stay
// under the cache budget at 100k nodes.
const routingBenchSources = 24

// runRoutingBench replays one BA map as a growth trajectory and keeps a
// set of shortest-path trees warm at every epoch — by Routing.Refresh
// on a shared state (refresh) or a cold NewRouting + Ensure per epoch
// (rebuild). Only the routing maintenance is timed; the replay and
// Refreeze cost is common to both arms and excluded, so the row is a
// clean attribution of tree repair vs tree rebuild.
func runRoutingBench(tb testing.TB, n, epochs, workers int, refresh bool) time.Duration {
	tb.Helper()
	top, err := gen.BA{N: n, M: 2}.Generate(rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	edges := top.G.EdgeList()
	every := len(edges) / epochs
	if every < 1 {
		every = 1
	}
	sources := make([]int, routingBenchSources)
	for i := range sources {
		sources[i] = i
	}
	g := graph.New(0)
	prev, err := g.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	var rt *traffic.Routing
	var spent time.Duration
	for i, e := range edges {
		for g.N() <= e.V || g.N() <= e.U {
			g.AddNode()
		}
		for w := 0; w < e.W; w++ {
			g.MustAddEdge(e.U, e.V)
		}
		if (i+1)%every != 0 && i != len(edges)-1 {
			continue
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			tb.Fatal(err)
		}
		prev = next
		if next.N() <= routingBenchSources {
			continue
		}
		start := time.Now()
		if refresh {
			if rt == nil {
				rt = traffic.NewRouting(next)
			} else {
				rt.Refresh(next, d, workers)
			}
			rt.Ensure(sources, workers)
		} else {
			cold := traffic.NewRouting(next)
			cold.Ensure(sources, workers)
		}
		spent += time.Since(start)
	}
	return spent
}

func benchTrajectory(b *testing.B, n, epochs, pivots int, refresh bool) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := runTrajectory(b, n, epochs, genBenchWorkers, pivots, refresh); got < epochs {
			b.Fatalf("measured %d epochs, want >= %d", got, epochs)
		}
	}
}

func BenchmarkTrajectoryRefresh10k(b *testing.B)  { benchTrajectory(b, 10000, 20, 0, true) }
func BenchmarkTrajectoryRefreeze10k(b *testing.B) { benchTrajectory(b, 10000, 20, 0, false) }

// The 100k-node, 100-epoch rows are the acceptance-criterion scale.
func BenchmarkTrajectoryRefresh100k(b *testing.B)  { benchTrajectory(b, 100000, 100, 0, true) }
func BenchmarkTrajectoryRefreeze100k(b *testing.B) { benchTrajectory(b, 100000, 100, 0, false) }

func BenchmarkTrajectoryPathsRefresh10k(b *testing.B) {
	benchTrajectory(b, 10000, 20, trajBenchPivots, true)
}
func BenchmarkTrajectoryPathsRecompute10k(b *testing.B) {
	benchTrajectory(b, 10000, 20, trajBenchPivots, false)
}

func benchRouting(b *testing.B, n, epochs int, refresh bool) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRoutingBench(b, n, epochs, genBenchWorkers, refresh)
	}
}

func BenchmarkRoutingRefresh10k(b *testing.B) { benchRouting(b, 10000, 20, true) }
func BenchmarkRoutingRebuild10k(b *testing.B) { benchRouting(b, 10000, 20, false) }

// trajectoryScenario times both arms of the growth trajectory, of its
// path-metric variant and of the routing replay, each arm checked to
// have measured every epoch.
func trajectoryScenario(t *testing.T, sz benchSize) []benchutil.Row {
	var rows []benchutil.Row
	for _, n := range sz.Ns {
		arm := func(pivots int, refresh bool) time.Duration {
			elapsed, _, _ := benchutil.Timed(func() {
				if got := runTrajectory(t, n, sz.Epochs, genBenchWorkers, pivots, refresh); got < sz.Epochs {
					t.Fatalf("measured %d epochs (pivots=%d), want >= %d", got, pivots, sz.Epochs)
				}
			})
			return elapsed
		}
		row := benchutil.Row{Model: "ba", N: n, Epochs: sz.Epochs}
		pathRow := row
		pathRow.Pivots = trajBenchPivots
		refreeze := row.As("trajectory-refreeze", genBenchWorkers, arm(0, false))
		refresh := row.As("trajectory-refresh", genBenchWorkers, arm(0, true)).Against(refreeze)
		recompute := pathRow.As("trajectory-paths-recompute", genBenchWorkers, arm(trajBenchPivots, false))
		paths := pathRow.As("trajectory-paths-refresh", genBenchWorkers, arm(trajBenchPivots, true)).Against(recompute)
		rebuild := row.As("routing-rebuild", genBenchWorkers, runRoutingBench(t, n, sz.Epochs, genBenchWorkers, false))
		repair := row.As("routing-refresh", genBenchWorkers, runRoutingBench(t, n, sz.Epochs, genBenchWorkers, true)).Against(rebuild)
		rows = append(rows, refreeze, refresh, recompute, paths, rebuild, repair)
		t.Logf("n=%d epochs=%d workers=%d: refreeze %.2fx, paths (pivots=%d) %.2fx, routing (%d trees) %.2fx",
			n, sz.Epochs, genBenchWorkers, refresh.Speedup, trajBenchPivots, paths.Speedup, routingBenchSources, repair.Speedup)
	}
	return rows
}

package netmodel

import (
	"runtime"
	"testing"
	"time"

	"netmodel/internal/benchutil"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// The failure benchmarks are the acceptance surface of delta-scoped row
// repair (metrics.RelaxDelta, behind both Refresh paths): the same outage/repair schedule (random links going down
// every epoch and coming back two epochs later — an MTTR-2 on/off
// process) replayed against a warm routing state and a warm distance
// map, measured either by the delta-scoped Refresh paths (repair) or
// by a cold rebuild per failure epoch (what every survivability study
// cost before this change). Only the maintenance work is timed; the
// replay and Refreeze cost is common to both arms. The 10k rows are
// the smoke; the 100k rows are the acceptance scale (target >= 2x):
//
//	go test -run TestBenchJSON/failures . -bench-out DIR   # BENCH_failures.json rows
//	go test -bench Failure .                               # standard benchmark rows

// failBenchLinks is the number of links failed per outage epoch.
const failBenchLinks = 2

// failBenchSources mirrors routingBenchSources: enough warm trees and
// distance rows that repair work dominates bookkeeping at 100k nodes.
const failBenchSources = 24

// failBenchM is the BA edge density of the benchmark map. A row repair
// touches only the nodes a dead arc left without a shortest-path
// support, so its cost follows how much of each warm tree an outage
// cuts. M=4 with 2 links down per epoch is the representative outage
// regime (small simultaneous failure counts on a denser-than-tree map);
// at M=2 half of all links are parent arcs of any given tree, and
// outages cut deep subtrees out of most rows.
const failBenchM = 4

// failureChurn drives one outage/repair replay over a frozen BA map:
// each epoch fails failBenchLinks random live links and revives the links
// failed two epochs earlier, then hands the refrozen snapshot and its
// delta to `maintain`, whose time is the only thing accumulated. The
// schedule is a pure function of the seed, so repair and rebuild arms
// replay identical deltas.
func failureChurn(tb testing.TB, n, epochs int, maintain func(next *graph.Snapshot, d *graph.Delta)) time.Duration {
	tb.Helper()
	top, err := gen.BA{N: n, M: failBenchM}.Generate(rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	g := top.G
	prev, err := g.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(7)
	var downPrev, downCur []graph.Edge
	var spent time.Duration
	for epoch := 0; epoch < epochs; epoch++ {
		// Revive the links failed two epochs ago...
		for _, e := range downPrev {
			g.MustAddEdge(e.U, e.V)
		}
		downPrev = downCur
		// ...and fail a fresh random sample of live links (a fresh
		// slice: downPrev aliases the old backing array).
		edges := prev.EdgeList()
		downCur = make([]graph.Edge, 0, failBenchLinks)
		for len(downCur) < failBenchLinks {
			e := edges[r.Intn(len(edges))]
			if !g.HasEdge(e.U, e.V) {
				continue
			}
			if err := g.RemoveEdge(e.U, e.V); err != nil {
				tb.Fatal(err)
			}
			downCur = append(downCur, e)
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			tb.Fatal(err)
		}
		prev = next
		start := time.Now()
		maintain(next, d)
		spent += time.Since(start)
	}
	return spent
}

// failureArm times one arm of the outage replay over an n-node map for
// epochs, maintained by repair or by rebuild.
type failureArm func(tb testing.TB, n, epochs int, repair bool) time.Duration

// runFailureRoutingBench keeps failBenchSources shortest-path trees
// warm across the outage replay — by scoped Routing.Refresh (repair:
// only trees that lost a parent arc are rebuilt) or by a cold
// NewRouting + Ensure per failure epoch (rebuild).
func runFailureRoutingBench(tb testing.TB, n, epochs int, repair bool) time.Duration {
	tb.Helper()
	sources := make([]int, failBenchSources)
	for i := range sources {
		sources[i] = i
	}
	var rt *traffic.Routing
	return failureChurn(tb, n, epochs, func(next *graph.Snapshot, d *graph.Delta) {
		if repair {
			if rt == nil {
				rt = traffic.NewRouting(next)
			} else {
				rt.Refresh(next, d, genBenchWorkers)
			}
			rt.Ensure(sources, genBenchWorkers)
		} else {
			cold := traffic.NewRouting(next)
			cold.Ensure(sources, genBenchWorkers)
		}
	})
}

// runFailureDistMapBench keeps a failBenchSources-row distance map
// warm across the same replay — by the delta-scoped DistMap.Refresh
// removal path (repair) or a cold NewDistMap per failure epoch
// (rebuild).
func runFailureDistMapBench(tb testing.TB, n, epochs int, repair bool) time.Duration {
	tb.Helper()
	var dm *metrics.DistMap
	return failureChurn(tb, n, epochs, func(next *graph.Snapshot, d *graph.Delta) {
		if repair {
			if dm == nil {
				dm = metrics.NewDistMap(next, metrics.PivotSources(rng.New(3), next.N(), failBenchSources), genBenchWorkers)
			} else {
				dm.Refresh(next, d, genBenchWorkers)
			}
		} else {
			if dm == nil {
				dm = metrics.NewDistMap(next, metrics.PivotSources(rng.New(3), next.N(), failBenchSources), genBenchWorkers)
			} else {
				dm = metrics.NewDistMap(next, dm.Sources(), genBenchWorkers)
			}
		}
	})
}

// benchFailure times one arm of a failure replay as a standard
// benchmark row.
func benchFailure(b *testing.B, run failureArm, repair bool) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, 10000, 10, repair)
	}
}

func BenchmarkFailureRoutingRepair10k(b *testing.B)  { benchFailure(b, runFailureRoutingBench, true) }
func BenchmarkFailureRoutingRebuild10k(b *testing.B) { benchFailure(b, runFailureRoutingBench, false) }
func BenchmarkFailureDistMapRepair10k(b *testing.B)  { benchFailure(b, runFailureDistMapBench, true) }
func BenchmarkFailureDistMapRebuild10k(b *testing.B) { benchFailure(b, runFailureDistMapBench, false) }

// failuresScenario times both arms of both subsystems over the same
// outage replay.
func failuresScenario(t *testing.T, sz benchSize) []benchutil.Row {
	var rows []benchutil.Row
	for _, n := range sz.Ns {
		row := benchutil.Row{Model: "ba", N: n, Epochs: sz.Epochs, Links: failBenchLinks}
		routRebuild := row.As("failure-routing-rebuild", genBenchWorkers, runFailureRoutingBench(t, n, sz.Epochs, false))
		routRepair := row.As("failure-routing-repair", genBenchWorkers, runFailureRoutingBench(t, n, sz.Epochs, true)).Against(routRebuild)
		distRebuild := row.As("failure-distmap-rebuild", genBenchWorkers, runFailureDistMapBench(t, n, sz.Epochs, false))
		distRepair := row.As("failure-distmap-repair", genBenchWorkers, runFailureDistMapBench(t, n, sz.Epochs, true)).Against(distRebuild)
		rows = append(rows, routRebuild, routRepair, distRebuild, distRepair)
		t.Logf("n=%d epochs=%d links=%d workers=%d: routing (%d trees) %.2fx, distmap (%d sources) %.2fx",
			n, sz.Epochs, failBenchLinks, genBenchWorkers, failBenchSources, routRepair.Speedup, failBenchSources, distRepair.Speedup)
	}
	return rows
}

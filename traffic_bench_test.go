package netmodel

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"netmodel/internal/benchutil"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// The traffic benchmarks time the flow-level workload simulator over a
// frozen BA map, engine against engine: the epoch loop (the pinned
// reference, full re-waterfill every epoch) versus the event engine
// (arrival/departure calendar, incremental bottleneck re-solve). The
// event engine also runs at two pool widths, and its runs must be
// byte-identical — the determinism contract at benchmark scale. Every
// pass runs both engines, since their flow-by-flow agreement is checked
// each time, and emits all three rows:
//
//	go test -run TestBenchJSON/traffic . -bench-out DIR   # BENCH_traffic.json rows
//	go test -bench TrafficSim .                           # standard benchmark rows

// trafficBenchSetup freezes a BA map of n nodes and derives the
// workload spec over epochs whose mean flow size puts the aggregate
// arrival rate at roughly flows per epoch (load factor fixed at 0.7).
func trafficBenchSetup(tb testing.TB, n, flows, epochs int) (*graph.Snapshot, []float64, traffic.WorkloadSpec) {
	tb.Helper()
	top, err := gen.GenerateWith(gen.BA{N: n, M: 2}, rng.New(1), genBenchWorkers)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	var capTotal float64
	for _, e := range snap.EdgeList() {
		capTotal += float64(e.W)
	}
	const load = 0.7
	spec := traffic.WorkloadSpec{
		LoadFactor: load,
		Epochs:     epochs,
		MeanSize:   load * capTotal / float64(flows),
	}
	return snap, masses, spec
}

// runTrafficSim simulates the workload with the given engine and
// returns the traced report plus its JSON encoding (aggregate report
// and link loads), the identity worker-invariance is compared on. A
// non-nil rt shares routing state across runs (identical results, BFS
// paid once) so timed rows measure the engines, not the router.
func runTrafficSim(tb testing.TB, snap *graph.Snapshot, masses []float64, spec traffic.WorkloadSpec, engine string, workers int, rt *traffic.Routing) (*traffic.SimReport, []byte) {
	tb.Helper()
	spec.Engine = engine
	opts := []traffic.SimOption{traffic.WithFlowTrace()}
	if rt != nil {
		opts = append(opts, traffic.WithRouting(rt))
	}
	rep, err := traffic.Simulate(snap, masses, spec, rng.New(7), workers, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Arrived == 0 {
		tb.Fatal("benchmark workload admitted no flows")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	links, err := json.Marshal(rep.Links)
	if err != nil {
		tb.Fatal(err)
	}
	return rep, append(data, links...)
}

// checkFlowAgreement asserts the two engines agree on the flow
// population and on every flow's fate and completion time — the
// cross-engine contract the CI smoke runs under the race detector.
func checkFlowAgreement(tb testing.TB, epoch, event *traffic.SimReport) {
	tb.Helper()
	if len(epoch.Flows) != len(event.Flows) {
		tb.Fatalf("engines drew different flow populations: %d vs %d", len(epoch.Flows), len(event.Flows))
	}
	for i := range epoch.Flows {
		a, b := epoch.Flows[i], event.Flows[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Size != b.Size || a.Arrived != b.Arrived {
			tb.Fatalf("flow %d identity diverged: %+v vs %+v", i, a, b)
		}
		if a.Done != b.Done {
			tb.Fatalf("flow %d fate diverged between engines: epoch done=%v, event done=%v", i, a.Done, b.Done)
		}
		if a.Done {
			scale := math.Max(1, math.Abs(a.Finished))
			if math.Abs(a.Finished-b.Finished) > 1e-9*scale {
				tb.Fatalf("flow %d completion time diverged: epoch %v, event %v", i, a.Finished, b.Finished)
			}
		}
	}
}

func benchTrafficSim(b *testing.B, engine string, workers int) {
	snap, masses, spec := trafficBenchSetup(b, 2000, 100, 5)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTrafficSim(b, snap, masses, spec, engine, workers, nil)
	}
}

func BenchmarkTrafficSimSequential(b *testing.B) { benchTrafficSim(b, traffic.EngineEpoch, 1) }
func BenchmarkTrafficSimParallel(b *testing.B) {
	benchTrafficSim(b, traffic.EngineEpoch, genBenchWorkers)
}
func BenchmarkTrafficSimEvent(b *testing.B) {
	benchTrafficSim(b, traffic.EngineEvent, genBenchWorkers)
}

// trafficScenario times the workload simulation engine against engine
// at each map size, checks the event engine is byte-identical across
// pool widths and agrees with the epoch engine flow by flow.
func trafficScenario(t *testing.T, sz benchSize) []benchutil.Row {
	var rows []benchutil.Row
	for _, n := range sz.Ns {
		snap, masses, spec := trafficBenchSetup(t, n, sz.Flows, sz.Epochs)
		// All runs share one routing state, pre-routed by an untimed
		// warmup (both engines draw identical flow populations, so the
		// warmup resolves every OD pair the timed runs will ask for):
		// the timed rows compare the simulation engines, not the
		// shared BFS router both sit on.
		rt := traffic.NewRouting(snap)
		runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, genBenchWorkers, rt)
		var epochRep, eventRep *traffic.SimReport
		var eventSeq, eventPar []byte
		epochTime, _, _ := benchutil.Timed(func() {
			epochRep, _ = runTrafficSim(t, snap, masses, spec, traffic.EngineEpoch, 1, rt)
		})
		eventTime, _, _ := benchutil.Timed(func() {
			eventRep, eventSeq = runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, 1, rt)
		})
		eventParTime, _, _ := benchutil.Timed(func() {
			_, eventPar = runTrafficSim(t, snap, masses, spec, traffic.EngineEvent, genBenchWorkers, rt)
		})
		if !bytes.Equal(eventSeq, eventPar) {
			t.Fatalf("n=%d: event engine at workers=%d diverged from workers=1", n, genBenchWorkers)
		}
		checkFlowAgreement(t, epochRep, eventRep)
		row := benchutil.Row{N: n, Epochs: sz.Epochs, FlowsPerEpoch: sz.Flows}
		epochRow := row.As("traffic-sim-epoch", 1, epochTime)
		epochRow.Engine = traffic.EngineEpoch
		row.Engine = traffic.EngineEvent
		eventRow := row.As("traffic-sim-event", 1, eventTime).Against(epochRow)
		rows = append(rows, epochRow, eventRow,
			row.As("traffic-sim-event-parallel", genBenchWorkers, eventParTime).Against(eventRow))
		t.Logf("n=%d: epoch %v, event %v (%.2fx), event@%d %v (byte-identical, flows agree)",
			n, epochTime, eventTime, eventRow.Speedup, genBenchWorkers, eventParTime)
	}
	return rows
}

package traffic

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// relClose reports |a-b| <= tol·max(1,|a|,|b|).
func relClose(a, b, tol float64) bool {
	scale := 1.0
	if m := math.Abs(a); m > scale {
		scale = m
	}
	if m := math.Abs(b); m > scale {
		scale = m
	}
	return math.Abs(a-b) <= tol*scale
}

// runEngine simulates spec with the given engine over s, tracing flows.
func runEngine(t *testing.T, s *graph.Snapshot, masses []float64, spec WorkloadSpec, engine string, seed uint64, workers int) *SimReport {
	t.Helper()
	spec.Engine = engine
	rep, err := Simulate(s, masses, spec, rng.New(seed), workers, WithFlowTrace())
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	return rep
}

// checkEngineAgreement is the equivalence suite's core assertion: the
// two engines admit the identical flow population and agree on every
// flow's fate and completion time, on the integer epoch trajectory, and
// on the aggregate scalars up to floating-point association order.
func checkEngineAgreement(t *testing.T, epoch, event *SimReport, tol float64) {
	t.Helper()
	if epoch.Arrived != event.Arrived || epoch.Undelivered != event.Undelivered {
		t.Fatalf("admission diverged: epoch arrived %d/undelivered %d, event %d/%d",
			epoch.Arrived, epoch.Undelivered, event.Arrived, event.Undelivered)
	}
	if epoch.Completed != event.Completed || epoch.ResidualFlows != event.ResidualFlows {
		t.Fatalf("completion diverged: epoch completed %d/residual %d, event %d/%d",
			epoch.Completed, epoch.ResidualFlows, event.Completed, event.ResidualFlows)
	}
	if len(epoch.Flows) != len(event.Flows) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(epoch.Flows), len(event.Flows))
	}
	for i := range epoch.Flows {
		a, b := epoch.Flows[i], event.Flows[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Size != b.Size || a.Arrived != b.Arrived {
			t.Fatalf("flow %d identity diverged: %+v vs %+v", i, a, b)
		}
		if a.Done != b.Done {
			t.Fatalf("flow %d fate diverged: epoch done=%v, event done=%v", i, a.Done, b.Done)
		}
		if a.Done && !relClose(a.Finished, b.Finished, tol) {
			t.Fatalf("flow %d completion time diverged: %v vs %v", i, a.Finished, b.Finished)
		}
	}
	if len(epoch.Epochs) != len(event.Epochs) {
		t.Fatalf("epoch rows diverged: %d vs %d", len(epoch.Epochs), len(event.Epochs))
	}
	for i := range epoch.Epochs {
		a, b := epoch.Epochs[i], event.Epochs[i]
		if a.Arrived != b.Arrived || a.Completed != b.Completed || a.Active != b.Active {
			t.Fatalf("epoch %d counts diverged: %+v vs %+v", i, a, b)
		}
		if !relClose(a.MeanUtil, b.MeanUtil, tol) || !relClose(a.MaxUtil, b.MaxUtil, tol) {
			t.Fatalf("epoch %d utilization diverged: %+v vs %+v", i, a, b)
		}
	}
	as, bs := epoch.Scalars(), event.Scalars()
	names := WorkloadMetricNames()
	for i := range as {
		if !relClose(as[i], bs[i], tol) {
			t.Fatalf("%s diverged: %v vs %v", names[i], as[i], bs[i])
		}
	}
	if !relClose(epoch.ResidualSize, event.ResidualSize, 1e-6) {
		t.Fatalf("residual size diverged: %v vs %v", epoch.ResidualSize, event.ResidualSize)
	}
	for i := range epoch.UtilCCDF {
		if !relClose(epoch.UtilCCDF[i].Frac, event.UtilCCDF[i].Frac, tol) {
			t.Fatalf("CCDF bin %v diverged: %v vs %v",
				epoch.UtilCCDF[i].Util, epoch.UtilCCDF[i].Frac, event.UtilCCDF[i].Frac)
		}
	}
}

// TestEventMatchesEpochEngine is the engine-equivalence suite: across
// topologies, arrival processes, size laws, load levels and seeds, the
// event engine must reproduce the epoch engine's trajectory.
func TestEventMatchesEpochEngine(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		masses []float64
		spec   WorkloadSpec
		seeds  []uint64
	}{
		{"mesh-light", meshGraph(40), uniformMasses(40),
			WorkloadSpec{LoadFactor: 0.05, Epochs: 25}, []uint64{1, 2, 3}},
		{"mesh-heavy-tail", meshGraph(60), uniformMasses(60),
			WorkloadSpec{LoadFactor: 0.8, Epochs: 15, TailIndex: 1.2}, []uint64{4, 5}},
		{"mesh-onoff-lognormal", meshGraph(50), uniformMasses(50),
			WorkloadSpec{LoadFactor: 0.6, Epochs: 20, Arrivals: "onoff", Sizes: "lognormal"}, []uint64{6, 7}},
		{"path-overload", pathGraph(12), uniformMasses(12),
			WorkloadSpec{LoadFactor: 3, Epochs: 12, Sizes: "exp"}, []uint64{8, 9}},
		{"two-nodes-persistent", func() *graph.Graph {
			g := graph.New(2)
			g.MustAddEdge(0, 1)
			return g
		}(), uniformMasses(2),
			WorkloadSpec{LoadFactor: 4, Epochs: 10, Sizes: "exp", MeanSize: 5}, []uint64{10}},
		{"disconnected", func() *graph.Graph {
			g := graph.New(6)
			g.MustAddEdge(0, 1)
			g.MustAddEdge(1, 2)
			g.MustAddEdge(3, 4)
			g.MustAddEdge(4, 5)
			return g
		}(), uniformMasses(6),
			WorkloadSpec{LoadFactor: 1, Epochs: 10}, []uint64{11, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.g.Freeze()
			for _, seed := range tc.seeds {
				ep := runEngine(t, s, tc.masses, tc.spec, EngineEpoch, seed, 1)
				evt := runEngine(t, s, tc.masses, tc.spec, EngineEvent, seed, 2)
				checkEngineAgreement(t, ep, evt, 1e-9)
			}
		})
	}
}

// TestEventWorkerInvariance pins the event engine's determinism
// contract: the full report — spec echo, aggregates, epoch rows and
// link loads — is byte-identical at every worker count.
func TestEventWorkerInvariance(t *testing.T) {
	s := meshGraph(60).Freeze()
	spec := WorkloadSpec{Engine: EngineEvent, LoadFactor: 0.7, Epochs: 12,
		Arrivals: "onoff", Sizes: "pareto", TailIndex: 1.4}
	var base []byte
	for _, workers := range []int{1, 2, 4, 8} {
		rep, err := Simulate(s, uniformMasses(60), spec, rng.New(9), workers)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		link, err := json.Marshal(rep.Links)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, link...)
		if base == nil {
			base = data
		} else if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d event-engine report diverged", workers)
		}
	}
}

// TestEventSpecEchoesEngine checks the resolved spec names the engine
// that actually ran, so sweep rows stay attributable.
func TestEventSpecEchoesEngine(t *testing.T) {
	s := meshGraph(20).Freeze()
	rep, err := Simulate(s, uniformMasses(20), WorkloadSpec{Engine: EngineEvent, LoadFactor: 0.3, Epochs: 5}, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Engine != EngineEvent {
		t.Fatalf("spec echo engine %q", rep.Spec.Engine)
	}
	rep, err = Simulate(s, uniformMasses(20), WorkloadSpec{LoadFactor: 0.3, Epochs: 5}, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Engine != EngineEpoch {
		t.Fatalf("default engine %q, want %q", rep.Spec.Engine, EngineEpoch)
	}
}

// TestEventFlowConservation checks the event engine's bookkeeping
// invariants on a bursty heavy-tailed run.
func TestEventFlowConservation(t *testing.T) {
	s := meshGraph(40).Freeze()
	spec := WorkloadSpec{Engine: EngineEvent, LoadFactor: 1.5, Epochs: 20,
		Arrivals: "onoff", TailIndex: 1.3}
	rep, err := Simulate(s, uniformMasses(40), spec, rng.New(21), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if rep.Completed+rep.ResidualFlows != rep.Arrived {
		t.Fatalf("flow conservation: %d completed + %d residual != %d arrived",
			rep.Completed, rep.ResidualFlows, rep.Arrived)
	}
	var arrived, completed int
	for _, e := range rep.Epochs {
		arrived += e.Arrived
		completed += e.Completed
		if e.MaxUtil > 1+1e-9 {
			t.Fatalf("epoch %d max utilization %v exceeds capacity", e.Epoch, e.MaxUtil)
		}
	}
	if arrived != rep.Arrived || completed != rep.Completed {
		t.Fatalf("epoch sums (%d, %d) disagree with totals (%d, %d)",
			arrived, completed, rep.Arrived, rep.Completed)
	}
	if rep.ResidualFlows > 0 && rep.ResidualSize <= 0 {
		t.Fatalf("%d residual flows but residual size %v", rep.ResidualFlows, rep.ResidualSize)
	}
}

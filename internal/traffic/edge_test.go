package traffic

import (
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// The simulator edge cases pinned for both engines: origin-destination
// pairs that straddle disconnected components, and flows that arrive
// and depart inside a single event interval. Each case runs under EngineEpoch and EngineEvent and the
// suite asserts the same behavior of both.

var bothEngines = []string{EngineEpoch, EngineEvent}

// TestDisconnectedODPairs pins cross-component behavior for both
// engines: flows whose destination lies in another component are
// counted undelivered, never admitted, and never distort the rates of
// deliverable traffic; both engines count identically.
func TestDisconnectedODPairs(t *testing.T) {
	g := graph.New(8)
	// Component A: dense square 0-1-2-3; component B: path 4-5-6-7.
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 6)
	g.MustAddEdge(6, 7)
	s := g.Freeze()
	spec := WorkloadSpec{LoadFactor: 0.8, Epochs: 12}
	var reports []*SimReport
	for _, eng := range bothEngines {
		sp := spec
		sp.Engine = eng
		rep, err := Simulate(s, UniformMasses(8), sp, rng.New(11), 2, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Undelivered == 0 {
			t.Fatalf("%s: cross-component flows must count undelivered", eng)
		}
		for i, f := range rep.Flows {
			if (f.Src <= 3) != (f.Dst <= 3) {
				t.Fatalf("%s: cross-component flow %d (%d→%d) was admitted", eng, i, f.Src, f.Dst)
			}
		}
		if rep.Arrived+rep.Undelivered != len(rep.Flows)+rep.Undelivered {
			t.Fatalf("%s: trace covers %d flows, arrived %d", eng, len(rep.Flows), rep.Arrived)
		}
		reports = append(reports, rep)
	}
	if reports[0].Undelivered != reports[1].Undelivered || reports[0].Arrived != reports[1].Arrived {
		t.Fatalf("engines disagree on admission: epoch %d/%d, event %d/%d",
			reports[0].Arrived, reports[0].Undelivered, reports[1].Arrived, reports[1].Undelivered)
	}
}

// TestFlowWithinOneInterval pins the sub-epoch lifecycle: a flow small
// enough to finish inside its arrival epoch completes in that epoch
// with a completion instant strictly inside the interval, in both
// engines.
func TestFlowWithinOneInterval(t *testing.T) {
	// Two nodes, one link: every flow gets the whole link when alone.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	for _, eng := range bothEngines {
		t.Run(eng, func(t *testing.T) {
			// Tiny deterministic-ish sizes: exp with mean far below
			// capacity·dt, light load so flows rarely overlap.
			spec := WorkloadSpec{Engine: eng, LoadFactor: 0.05, Epochs: 10,
				Sizes: "exp", MeanSize: 0.01}
			rep, err := Simulate(s, UniformMasses(2), spec, rng.New(5), 1, WithFlowTrace())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Arrived == 0 {
				t.Skip("no arrivals drawn at this seed")
			}
			intra := 0
			for i, f := range rep.Flows {
				if !f.Done {
					continue
				}
				fct := f.Finished - f.Arrived
				if fct <= 0 {
					t.Fatalf("flow %d has non-positive FCT %v", i, fct)
				}
				if fct < 1 { // inside one epoch interval (dt = 1)
					intra++
					epoch := int(f.Arrived)
					row := rep.Epochs[epoch]
					if row.Completed == 0 {
						t.Fatalf("flow %d finished inside epoch %d but the row records no completion", i, epoch)
					}
				}
			}
			if intra == 0 {
				t.Fatal("no flow completed inside one interval; weak test")
			}
			// The run is light enough that every admitted flow finishes.
			if rep.Completed != rep.Arrived {
				t.Fatalf("completed %d of %d at trivial load", rep.Completed, rep.Arrived)
			}
		})
	}
}

// TestIntraEpochAgreement cross-checks the two engines flow by flow on
// the intra-interval scenario, the sharpest sub-epoch timing case.
func TestIntraEpochAgreement(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	spec := WorkloadSpec{LoadFactor: 0.05, Epochs: 10, Sizes: "exp", MeanSize: 0.01}
	ep := runEngine(t, s, UniformMasses(2), spec, EngineEpoch, 5, 1)
	evt := runEngine(t, s, UniformMasses(2), spec, EngineEvent, 5, 2)
	checkEngineAgreement(t, ep, evt, 1e-9)
}

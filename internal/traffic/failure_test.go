package traffic

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// checkFailureAgreement extends the engine-equivalence assertion to the
// fault-injection surface: per-flow fates (killed, reroutes, retries)
// must match exactly, and the survivability reports must agree — the
// integer counters and topology metrics exactly, the FCT inflation up
// to floating-point association order.
func checkFailureAgreement(t *testing.T, epoch, event *SimReport, tol float64) {
	t.Helper()
	checkEngineAgreement(t, epoch, event, tol)
	for i := range epoch.Flows {
		a, b := epoch.Flows[i], event.Flows[i]
		if a.Killed != b.Killed || a.Reroutes != b.Reroutes || a.Retries != b.Retries {
			t.Fatalf("flow %d failure fate diverged: epoch killed=%v/reroutes=%d/retries=%d, event killed=%v/reroutes=%d/retries=%d",
				i, a.Killed, a.Reroutes, a.Retries, b.Killed, b.Reroutes, b.Retries)
		}
	}
	fa, fb := epoch.Failures, event.Failures
	if (fa == nil) != (fb == nil) {
		t.Fatalf("failure report presence diverged: %v vs %v", fa != nil, fb != nil)
	}
	if fa == nil {
		return
	}
	if fa.LinksFailed != fb.LinksFailed || fa.NodesFailed != fb.NodesFailed ||
		fa.Killed != fb.Killed || fa.Rerouted != fb.Rerouted || fa.Retried != fb.Retried {
		t.Fatalf("survivability counters diverged: %+v vs %+v", fa, fb)
	}
	if fa.DisconnectedOD != fb.DisconnectedOD || fa.MeanGiantCapacity != fb.MeanGiantCapacity ||
		fa.MinGiantCapacity != fb.MinGiantCapacity {
		t.Fatalf("survivability topology metrics diverged: %+v vs %+v", fa, fb)
	}
	if !relClose(fa.FCTInflation, fb.FCTInflation, tol) {
		t.Fatalf("fct inflation diverged: %v vs %v", fa.FCTInflation, fb.FCTInflation)
	}
	for i := range epoch.Epochs {
		a, b := epoch.Epochs[i], event.Epochs[i]
		if a.LinksDown != b.LinksDown || a.NodesDown != b.NodesDown ||
			a.Rerouted != b.Rerouted || a.Killed != b.Killed || a.Retried != b.Retried {
			t.Fatalf("epoch %d failure counts diverged: %+v vs %+v", i, a, b)
		}
	}
}

// failureSpecErrorRows is the failure spec's rejection surface; the
// fuzz target seeds from it too.
var failureSpecErrorRows = []struct {
	name string
	spec FailureSpec
	want string
}{
	{"unknown-mode", FailureSpec{Mode: "meteor"}, "unknown failure mode"},
	{"negative-links", FailureSpec{Mode: FailRandom, Links: -1, MTBF: 1}, "must not be negative"},
	{"negative-retries", FailureSpec{Mode: FailDegree, Links: 1, MaxRetries: -1}, "max retries"},
	{"zero-backoff", FailureSpec{Mode: FailDegree, Links: 1, RetryAfter: -1}, "retry backoff"},
	{"scheduled-empty", FailureSpec{Mode: FailScheduled}, "at least one event"},
	{"scheduled-bad-kind", FailureSpec{Mode: FailScheduled,
		Events: []FailureEvent{{Kind: "router", U: 0, V: 1}}}, "unknown failure event kind"},
	{"scheduled-self-loop", FailureSpec{Mode: FailScheduled,
		Events: []FailureEvent{{Kind: "link", U: 3, V: 3}}}, "distinct endpoints"},
	{"scheduled-neg-epoch", FailureSpec{Mode: FailScheduled,
		Events: []FailureEvent{{Epoch: -1, Kind: "link", U: 0, V: 1}}}, "epoch must not be negative"},
	{"random-no-entities", FailureSpec{Mode: FailRandom, MTBF: 1}, "links or nodes"},
	{"random-no-mtbf", FailureSpec{Mode: FailRandom, Links: 1}, "positive mtbf"},
	{"random-nan-mttr", FailureSpec{Mode: FailRandom, Links: 1, MTBF: 1, MTTR: nan()}, "finite"},
	{"targeted-no-entities", FailureSpec{Mode: FailLoad}, "links or nodes"},
	{"targeted-bad-window", FailureSpec{Mode: FailDegree, Links: 1, FailAt: 3, RepairAt: 2}, "repair epoch"},
}

// TestFailureSpecValidate walks the failure spec's rejection surface.
func TestFailureSpecValidate(t *testing.T) {
	for _, tc := range failureSpecErrorRows {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := (FailureSpec{}).Validate(); err != nil {
		t.Fatalf("zero spec must validate (mode none): %v", err)
	}
}

func nan() float64 { var z float64; return z / z }

// TestCompileFailuresScheduled pins the scheduled mode's compilation:
// per-epoch op counts, distinct-entity counts, horizon clipping, and
// the topology-dependent rejections.
func TestCompileFailuresScheduled(t *testing.T) {
	s := pathGraph(4).Freeze() // 0-1-2-3
	spec := FailureSpec{Mode: FailScheduled, Events: []FailureEvent{
		{Epoch: 1, Kind: "link", U: 1, V: 2},
		{Epoch: 3, Kind: "link", U: 2, V: 1, Up: true}, // same link, reversed endpoints
		{Epoch: 2, Kind: "node", Node: 3},
		{Epoch: 9, Kind: "node", Node: 0}, // beyond the horizon: clipped
	}}
	tl, err := CompileFailures(s, spec, 5, 1, rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.LinksFailed() != 1 || tl.NodesFailed() != 1 {
		t.Fatalf("entity counts = %d links, %d nodes; want 1, 1", tl.LinksFailed(), tl.NodesFailed())
	}
	for epoch, want := range map[int]int{0: 0, 1: 1, 2: 1, 3: 1, 4: 0} {
		if got := tl.Ops(epoch); got != want {
			t.Fatalf("ops at epoch %d = %d, want %d", epoch, got, want)
		}
	}
	if _, err := CompileFailures(s, FailureSpec{Mode: FailScheduled,
		Events: []FailureEvent{{Kind: "link", U: 0, V: 3}}}, 5, 1, rng.New(1), nil); err == nil {
		t.Fatal("missing link must be rejected")
	}
	if _, err := CompileFailures(s, FailureSpec{Mode: FailScheduled,
		Events: []FailureEvent{{Kind: "node", Node: 99}}}, 5, 1, rng.New(1), nil); err == nil {
		t.Fatal("out-of-range node must be rejected")
	}
}

// TestCompileFailuresDeterministic pins that compiling twice from the
// same stream yields the identical timeline (Split is pure), and that
// the random mode respects entity-count bounds.
func TestCompileFailuresDeterministic(t *testing.T) {
	s := meshGraph(30).Freeze()
	spec := FailureSpec{Mode: FailRandom, Links: 5, Nodes: 3, MTBF: 4, MTTR: 2}
	r := rng.New(7)
	a, err := CompileFailures(s, spec, 40, 1, r.Split(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileFailures(s, spec, 40, 1, r.Split(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical streams compiled different timelines")
	}
	if _, err := CompileFailures(s, FailureSpec{Mode: FailRandom, Links: 10000, MTBF: 1},
		10, 1, rng.New(1), nil); err == nil {
		t.Fatal("more failing links than links must be rejected")
	}
}

// TestFailureEnginesAgree is the failure-mode engine-equivalence suite:
// under identical failure timelines both engines must agree on every
// flow's fate — rerouted, killed, retried — and on the survivability
// aggregates.
func TestFailureEnginesAgree(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		n     int
		spec  WorkloadSpec
		seeds []uint64
	}{
		{"scheduled-link-outage", meshGraph(40), 40,
			WorkloadSpec{LoadFactor: 0.6, Epochs: 20, Failures: &FailureSpec{
				Mode: FailScheduled, Events: []FailureEvent{
					{Epoch: 4, Kind: "link", U: 0, V: 1},
					{Epoch: 6, Kind: "link", U: 3, V: 10},
					{Epoch: 12, Kind: "link", U: 0, V: 1, Up: true},
				}}}, []uint64{1, 2}},
		{"scheduled-node-outage", meshGraph(50), 50,
			WorkloadSpec{LoadFactor: 0.8, Epochs: 18, TailIndex: 1.3, Failures: &FailureSpec{
				Mode: FailScheduled, Events: []FailureEvent{
					{Epoch: 3, Kind: "node", Node: 5},
					{Epoch: 5, Kind: "node", Node: 17},
					{Epoch: 11, Kind: "node", Node: 5, Up: true},
				}, MaxRetries: 2}}, []uint64{3, 4}},
		{"random-mtbf-mttr", meshGraph(40), 40,
			WorkloadSpec{LoadFactor: 0.7, Epochs: 30, Arrivals: "onoff", Failures: &FailureSpec{
				Mode: FailRandom, Links: 6, Nodes: 2, MTBF: 8, MTTR: 3,
				MaxRetries: 3, RetryAfter: 2}}, []uint64{5, 6}},
		{"degree-targeted", meshGraph(36), 36,
			WorkloadSpec{LoadFactor: 0.5, Epochs: 16, Failures: &FailureSpec{
				Mode: FailDegree, Links: 3, Nodes: 1, FailAt: 4, RepairAt: 10,
				MaxRetries: 1}}, []uint64{7}},
		{"load-targeted", meshGraph(30), 30,
			WorkloadSpec{LoadFactor: 0.55, Epochs: 14, Sizes: "exp", Failures: &FailureSpec{
				Mode: FailLoad, Links: 4, FailAt: 3}}, []uint64{8}},
		{"path-partition", pathGraph(10), 10,
			WorkloadSpec{LoadFactor: 1.2, Epochs: 15, Sizes: "exp", MeanSize: 4, Failures: &FailureSpec{
				Mode: FailScheduled, Events: []FailureEvent{
					{Epoch: 3, Kind: "link", U: 4, V: 5},
					{Epoch: 8, Kind: "link", U: 4, V: 5, Up: true},
				}, MaxRetries: 4}}, []uint64{9, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.g.Freeze()
			masses := UniformMasses(tc.n)
			for _, seed := range tc.seeds {
				ep := runEngine(t, s, masses, tc.spec, EngineEpoch, seed, 1)
				evt := runEngine(t, s, masses, tc.spec, EngineEvent, seed, 2)
				checkFailureAgreement(t, ep, evt, 1e-9)
				if ep.Failures == nil {
					t.Fatal("failure run must carry a survivability report")
				}
			}
		})
	}
}

// TestFailureWorkerInvariance pins the determinism contract under fault
// injection: for both engines the full report — spec echo, epoch rows
// with failure counts, survivability aggregates, flow fates and link
// loads — is byte-identical at every worker count.
func TestFailureWorkerInvariance(t *testing.T) {
	s := meshGraph(50).Freeze()
	for _, engine := range []string{EngineEpoch, EngineEvent} {
		spec := WorkloadSpec{Engine: engine, LoadFactor: 0.8, Epochs: 20, Failures: &FailureSpec{
			Mode: FailRandom, Links: 5, Nodes: 2, MTBF: 6, MTTR: 2, MaxRetries: 2}}
		var base []byte
		for _, workers := range []int{1, 2, 4, 8} {
			rep, err := Simulate(s, UniformMasses(50), spec, rng.New(11), workers, WithFlowTrace())
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
			flows, err := json.Marshal(rep.Flows)
			if err != nil {
				t.Fatal(err)
			}
			data = append(append(data, link...), flows...)
			if base == nil {
				base = data
			} else if !bytes.Equal(base, data) {
				t.Fatalf("engine %s workers=%d failure report diverged", engine, workers)
			}
		}
	}
}

// TestFailureNonePinned checks the no-failure pinning: a spec with mode
// "none" reproduces the nil-Failures run bit for bit — same flows, same
// epochs, same loads — and emits no survivability report.
func TestFailureNonePinned(t *testing.T) {
	s := meshGraph(40).Freeze()
	for _, engine := range []string{EngineEpoch, EngineEvent} {
		base := WorkloadSpec{Engine: engine, LoadFactor: 0.7, Epochs: 15, TailIndex: 1.4}
		withNone := base
		withNone.Failures = &FailureSpec{Mode: FailNone}
		repNil, err := Simulate(s, UniformMasses(40), base, rng.New(3), 2, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		repNone, err := Simulate(s, UniformMasses(40), withNone, rng.New(3), 2, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if repNone.Failures != nil {
			t.Fatal("mode none must not produce a survivability report")
		}
		repNone.Spec = repNil.Spec // only the echoed spec may differ
		if !reflect.DeepEqual(repNil, repNone) {
			t.Fatalf("engine %s: mode none diverged from the nil-failures run", engine)
		}
	}
}

// TestFailureKillAndRetry runs the deterministic micro-scenario: on a
// path 0-1-2 every flow crosses the cut link (1, 2); when it fails
// there is no alternate path, so live flows die, their retries fail
// while the link is down, and the re-admission after the repair lets
// them finish.
func TestFailureKillAndRetry(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	s := g.Freeze()
	masses := []float64{1, 0, 1} // all traffic is 0 <-> 2
	spec := WorkloadSpec{LoadFactor: 0.5, Epochs: 12, Sizes: "exp", MeanSize: 6,
		Failures: &FailureSpec{Mode: FailScheduled, Events: []FailureEvent{
			{Epoch: 3, Kind: "link", U: 1, V: 2},
			{Epoch: 5, Kind: "link", U: 1, V: 2, Up: true},
		}, MaxRetries: 3, RetryAfter: 1}}
	ep := runEngine(t, s, masses, spec, EngineEpoch, 1, 1)
	evt := runEngine(t, s, masses, spec, EngineEvent, 1, 2)
	checkFailureAgreement(t, ep, evt, 1e-9)
	f := ep.Failures
	if f.Killed == 0 {
		t.Fatal("cutting the only path must kill the live flows")
	}
	if f.Rerouted != 0 {
		t.Fatalf("no alternate path exists, yet %d flows rerouted", f.Rerouted)
	}
	if f.Retried < f.Killed {
		t.Fatalf("killed flows must get retries: killed %d, retried %d", f.Killed, f.Retried)
	}
	if f.LinksFailed != 1 {
		t.Fatalf("LinksFailed = %d, want 1", f.LinksFailed)
	}
	if f.DisconnectedOD <= 0 || f.MinGiantCapacity >= 1 {
		t.Fatalf("partition not reflected: disconnectedOD %v, minGiantCap %v",
			f.DisconnectedOD, f.MinGiantCapacity)
	}
	revived := 0
	for _, fr := range ep.Flows {
		if fr.Retries > 0 && !fr.Killed {
			revived++
		}
	}
	if revived == 0 {
		t.Fatal("the post-repair retry must re-admit at least one killed flow")
	}
	stats := ep.Epochs
	if stats[3].Killed == 0 || stats[3].LinksDown != 1 {
		t.Fatalf("epoch 3 must record the kill wave: %+v", stats[3])
	}
	if stats[4].Retried == 0 {
		t.Fatalf("epoch 4 must record the (failing) retry attempts: %+v", stats[4])
	}
	if stats[5].LinksDown != 0 {
		t.Fatalf("epoch 5 must record the repair: %+v", stats[5])
	}
}

// TestFailureReroute checks graceful degradation on a multipath mesh:
// when a path link dies with alternates available, flows reroute and
// none die.
func TestFailureReroute(t *testing.T) {
	s := meshGraph(24).Freeze()
	spec := WorkloadSpec{LoadFactor: 0.8, Epochs: 12, Sizes: "exp", MeanSize: 4,
		Failures: &FailureSpec{Mode: FailScheduled, Events: []FailureEvent{
			{Epoch: 4, Kind: "link", U: 0, V: 1},
			{Epoch: 5, Kind: "link", U: 7, V: 8},
		}}}
	ep := runEngine(t, s, UniformMasses(24), spec, EngineEpoch, 2, 1)
	evt := runEngine(t, s, UniformMasses(24), spec, EngineEvent, 2, 4)
	checkFailureAgreement(t, ep, evt, 1e-9)
	f := ep.Failures
	if f.Rerouted == 0 {
		t.Fatal("mesh keeps alternates, so some flows must reroute")
	}
	if f.Killed != 0 {
		t.Fatalf("mesh stays connected, yet %d flows were killed", f.Killed)
	}
	if f.DisconnectedOD != 0 || f.MinGiantCapacity >= 1 {
		t.Fatalf("two dead links must dent capacity but not connectivity: %+v", f)
	}
	for i, fr := range ep.Flows {
		if fr.Killed {
			t.Fatalf("flow %d killed on a connected mesh", i)
		}
	}
}

// TestFailureTargetedDegree checks that degree targeting takes down the
// hub of a star and the survivability metrics see the collapse.
func TestFailureTargetedDegree(t *testing.T) {
	n := 12
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	s := g.Freeze()
	spec := WorkloadSpec{LoadFactor: 0.3, Epochs: 8,
		Failures: &FailureSpec{Mode: FailDegree, Nodes: 1, FailAt: 3}}
	ep := runEngine(t, s, UniformMasses(n), spec, EngineEpoch, 4, 1)
	evt := runEngine(t, s, UniformMasses(n), spec, EngineEvent, 4, 2)
	checkFailureAgreement(t, ep, evt, 1e-9)
	f := ep.Failures
	if f.NodesFailed != 1 {
		t.Fatalf("NodesFailed = %d, want 1 (the hub)", f.NodesFailed)
	}
	if f.MinGiantCapacity != 0 {
		t.Fatalf("killing the hub strands every link: minGiantCap %v, want 0", f.MinGiantCapacity)
	}
	for _, es := range ep.Epochs[3:] {
		if es.NodesDown != 1 {
			t.Fatalf("hub must stay down from epoch 3: %+v", es)
		}
	}
	// Every flow alive at the cut dies and, with no retries allowed,
	// stays dead; all post-cut arrivals are undelivered.
	for e := 3; e < 8; e++ {
		if ep.Epochs[e].Arrived != 0 {
			t.Fatalf("no admissions can survive the hub cut: %+v", ep.Epochs[e])
		}
	}
}

// TestFailureSweepLabel pins the spec labels the sweep CSV uses.
func TestFailureSweepLabel(t *testing.T) {
	cases := map[string]FailureSpec{
		"none":                     {},
		"sched:2":                  {Mode: FailScheduled, Events: make([]FailureEvent, 2)},
		"random:l3,n1,mtbf5,mttr2": {Mode: FailRandom, Links: 3, Nodes: 1, MTBF: 5, MTTR: 2},
		"degree:l2,n0@1":           {Mode: FailDegree, Links: 2},
		"load:l0,n4@6":             {Mode: FailLoad, Nodes: 4, FailAt: 6},
	}
	for want, spec := range cases {
		if got := spec.Label(); got != want {
			t.Fatalf("Label() = %q, want %q", got, want)
		}
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"netmodel/internal/refdata"
	"netmodel/internal/traffic"
)

func testCell(seed uint64) Cell {
	return Cell{Model: "ba", N: 150, Seed: seed, Target: refdata.ASMap2001,
		PathSources: 10, Workers: 1}
}

// TestTopologyKeySeparatesCells pins that every topology-shaping field
// feeds the key: cells differing in any of them must never share stage
// artifacts.
func TestTopologyKeySeparatesCells(t *testing.T) {
	base := testCell(1)
	muts := map[string]func(*Cell){
		"model":       func(c *Cell) { c.Model = "glp" },
		"n":           func(c *Cell) { c.N = 151 },
		"seed":        func(c *Cell) { c.Seed = 2 },
		"target":      func(c *Cell) { c.Target = refdata.ASPlusMap2001 },
		"pathsources": func(c *Cell) { c.PathSources = 11 },
		"workers":     func(c *Cell) { c.Workers = 2 },
		"measure":     func(c *Cell) { c.MeasureEvery = 50 },
		"trajpaths":   func(c *Cell) { c.TrajectoryPaths = true },
		"params":      func(c *Cell) { c.Params = Params{"m": 3} },
	}
	seen := map[string]string{base.TopologyKey(): "base"}
	for name, mut := range muts {
		c := base
		mut(&c)
		key := c.TopologyKey()
		if prev, dup := seen[key]; dup {
			t.Fatalf("mutation %q collides with %q: key %q", name, prev, key)
		}
		seen[key] = name
	}
	// Workload is deliberately outside the key: it fans out within a group.
	c := base
	c.Workload = &traffic.WorkloadSpec{Epochs: 3}
	if c.TopologyKey() != base.TopologyKey() {
		t.Fatal("workload spec leaked into the topology key")
	}
	// Param order must not matter, param values must.
	a, b := base, base
	a.Params = Params{"m": 2, "beta": 0.5}
	b.Params = Params{"beta": 0.5, "m": 2}
	if a.TopologyKey() != b.TopologyKey() {
		t.Fatal("param iteration order leaked into the topology key")
	}
}

// TestDuplicateCellsDeduped pins the plan-level dedup: exact-duplicate
// cells run once, are counted, and every duplicate slot receives the
// first occurrence's result.
func TestDuplicateCellsDeduped(t *testing.T) {
	sp := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 0.5}
	c := testCell(1)
	c.Workload = sp
	other := testCell(2)
	cells := []Cell{c, other, c, testCell(1), c}
	results, st, err := RunCellsWith(cells, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DuplicateCells != 2 {
		t.Fatalf("DuplicateCells = %d, want 2 (cells 2 and 4)", st.DuplicateCells)
	}
	if st.Groups != 2 {
		t.Fatalf("Groups = %d, want 2 (seeds 1 and 2)", st.Groups)
	}
	// Duplicates share the underlying reports — the same pointers, not
	// merely equal values — proving the work ran once.
	if results[0].Report != results[2].Report || results[0].Workload != results[2].Workload {
		t.Fatal("duplicate cell re-ran instead of reusing the first occurrence")
	}
	// Cell 3 shares the topology but has no workload stage: same report,
	// no workload.
	if results[3].Report != results[0].Report {
		t.Fatal("nil-workload sibling did not share the topology result")
	}
	if results[3].Workload != nil {
		t.Fatalf("nil-workload cell got a workload report: %+v", results[3].Workload)
	}
	// Result slots are per-cell copies: mutating one must not leak.
	if results[0] == results[2] {
		t.Fatal("duplicate cells share one PipelineResult pointer")
	}
}

// TestGroupedRunMatchesIndependentCells pins the grouping engine
// against the one-cell-at-a-time reference: identical results, in
// every slot, with and without workload stages mixed in.
func TestGroupedRunMatchesIndependentCells(t *testing.T) {
	specA := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 0.4}
	specB := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 1.2}
	c := testCell(7)
	withA, withB := c, c
	withA.Workload = specA
	withB.Workload = specB
	cells := []Cell{withA, withB, c}
	grouped, st, err := RunCellsWith(cells, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 1 || st.DuplicateCells != 0 {
		t.Fatalf("stats = %+v, want 1 group, 0 duplicates", st)
	}
	for i, cell := range cells {
		want, err := RunCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Report, grouped[i].Report) ||
			!reflect.DeepEqual(want.Snapshot, grouped[i].Snapshot) {
			t.Fatalf("cell %d: grouped run diverged from RunCell", i)
		}
		if (want.Workload == nil) != (grouped[i].Workload == nil) {
			t.Fatalf("cell %d: workload presence diverged", i)
		}
		if want.Workload != nil && !reflect.DeepEqual(want.Workload, grouped[i].Workload) {
			t.Fatalf("cell %d: workload report diverged from RunCell", i)
		}
	}
}

// TestCachedRunMatchesUncached pins the single workload stage at the
// core layer: with the cache off, cold and warm — unbounded, and under a
// 32K budget that forces evictions — every report is byte-equal, for
// both simulation engines and for the failure layer's private routing
// (random outages with retries). The unbounded cache hits every stage on
// the warm pass.
func TestCachedRunMatchesUncached(t *testing.T) {
	specs := []*traffic.WorkloadSpec{
		{Epochs: 3, LoadFactor: 0.6},
		{Epochs: 3, LoadFactor: 0.6, Engine: traffic.EngineEvent},
		{Epochs: 6, LoadFactor: 1.2, Failures: &traffic.FailureSpec{Mode: traffic.FailRandom,
			Links: 4, Nodes: 1, MTBF: 2, MTTR: 1, MaxRetries: 2}},
	}
	var cells []Cell
	for _, seed := range []uint64{1, 2} {
		for _, sp := range specs {
			c := testCell(seed)
			c.Workload = sp
			cells = append(cells, c)
		}
	}
	baseline, _, err := RunCellsWith(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := baseline[2].Workload.Failures; f == nil || f.Killed == 0 || f.Retried == 0 {
		t.Fatalf("failure spec killed or retried no flows: %+v", f)
	}
	for _, budget := range []int64{-1, 32 << 10} {
		ac := NewArtifactCache(budget)
		for pass := 0; pass < 2; pass++ {
			got, _, err := RunCellsWith(cells, 2, ac)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				if !reflect.DeepEqual(baseline[i].Report, got[i].Report) ||
					!reflect.DeepEqual(baseline[i].Workload, got[i].Workload) {
					t.Fatalf("budget=%d pass %d cell %d: cached run diverged", budget, pass, i)
				}
			}
		}
		st := ac.Stats()
		var evictions uint64
		for _, stage := range st.Stages {
			evictions += stage.Evictions
			if budget < 0 && (stage.Hits != 2 || stage.Misses != 2) {
				t.Fatalf("stage %s: hits=%d misses=%d, want 2/2 over cold+warm passes",
					stage.Stage, stage.Hits, stage.Misses)
			}
		}
		if budget > 0 && evictions == 0 {
			t.Fatalf("budget=%d evicted nothing: %+v", budget, st)
		}
	}
}

// fanOutSpecs is a topology group's failure axis as topoload sweeps it:
// no failures, random outages with retries and a degree-targeted outage
// window, plus a second shared-routing spec on the event engine, so the
// shared task runs more than one spec.
func fanOutSpecs() []*traffic.WorkloadSpec {
	return []*traffic.WorkloadSpec{
		{Epochs: 8, LoadFactor: 1.2, Failures: &traffic.FailureSpec{Mode: traffic.FailNone}},
		{Epochs: 8, LoadFactor: 1.2, Failures: &traffic.FailureSpec{Mode: traffic.FailRandom,
			Links: 4, Nodes: 1, MTBF: 2, MTTR: 1, MaxRetries: 2}},
		{Epochs: 8, LoadFactor: 1.2, Failures: &traffic.FailureSpec{Mode: traffic.FailDegree,
			Links: 3, Nodes: 1, FailAt: 2, RepairAt: 5, MaxRetries: 1}},
		{Epochs: 8, LoadFactor: 0.6, Engine: traffic.EngineEvent},
	}
}

// routingState renders the committed part of a routing state — its
// snapshot version, tree budget, cached distance rows, FIFO and path
// memo — leaving out the scratch buffers, whose sizes follow the worker
// count. fmt prints maps in key order, so equal states render equal.
func routingState(rt *traffic.Routing) string {
	v := reflect.ValueOf(rt).Elem()
	return fmt.Sprint(rt.Snapshot().Version(), v.FieldByName("max"), v.FieldByName("trees"),
		v.FieldByName("fifo"), v.FieldByName("paths"))
}

// TestWorkloadFanOutWidthInvariant pins runWorkloadsRouted's fan-out:
// over one fixed snapshot, a group of shared-routing and failure specs
// yields the same reports — byte for byte — and leaves the group's
// Routing in the same state at pool widths 1, 2 and 4 as the sequential
// pass does.
func TestWorkloadFanOutWidthInvariant(t *testing.T) {
	ta, _, err := testCell(3).buildTopology()
	if err != nil {
		t.Fatal(err)
	}
	specs := fanOutSpecs()
	var wantJSON []byte
	var wantState string
	for _, width := range []int{1, 2, 4} {
		c := testCell(3)
		c.Workers = width
		rt := traffic.NewRouting(ta.snap)
		reports, err := c.runWorkloadsRouted(ta.snap, specs, rt)
		if err != nil {
			t.Fatal(err)
		}
		if f := reports[1].Failures; f == nil || f.Killed+f.Rerouted == 0 {
			t.Fatalf("random outages touched no flow: %+v", f)
		}
		got, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		state := routingState(rt)
		if width == 1 {
			wantJSON, wantState = got, state
			continue
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("width %d: reports differ from the sequential pass", width)
		}
		if state != wantState {
			t.Fatalf("width %d: committed routing state differs from the sequential pass", width)
		}
	}
}

// TestWorkloadFanOutFirstErrorWins pins the error contract: with
// invalid specs at indexes 1 and 2, index 1's error surfaces at every
// width, whichever of the two is a failure spec running as its own task.
func TestWorkloadFanOutFirstErrorWins(t *testing.T) {
	ta, _, err := testCell(4).buildTopology()
	if err != nil {
		t.Fatal(err)
	}
	valid := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 0.5}
	badShared := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 0.5, Engine: "warp"}
	badFailure := &traffic.WorkloadSpec{Epochs: 3, LoadFactor: 0.5,
		Failures: &traffic.FailureSpec{Mode: traffic.FailRandom, Links: 1 << 20, MTBF: 1}}
	for _, specs := range [][]*traffic.WorkloadSpec{
		{valid, badShared, badFailure},
		{valid, badFailure, badShared},
	} {
		_, want := testCell(4).runWorkloadsRouted(ta.snap, specs[:2], traffic.NewRouting(ta.snap))
		if want == nil {
			t.Fatal("index 1 alone ran without error")
		}
		for _, width := range []int{1, 2, 4} {
			c := testCell(4)
			c.Workers = width
			_, err := c.runWorkloadsRouted(ta.snap, specs, traffic.NewRouting(ta.snap))
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("width %d: error %v, want index 1's %v", width, err, want)
			}
		}
	}
}

// TestFanOutKeepsCacheCounters runs a failure-axis group with a
// two-wide cell pool through an unbounded artifact cache: the cold and
// warm passes count one miss and one hit per stage, exactly as at width
// 1, and every report matches the uncached run.
func TestFanOutKeepsCacheCounters(t *testing.T) {
	var cells []Cell
	for _, sp := range fanOutSpecs() {
		c := testCell(5)
		c.Workers = 2
		c.Workload = sp
		cells = append(cells, c)
	}
	baseline, _, err := RunCellsWith(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac := NewArtifactCache(-1)
	for pass := 0; pass < 2; pass++ {
		got, _, err := RunCellsWith(cells, 1, ac)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(baseline[i].Workload, got[i].Workload) {
				t.Fatalf("pass %d cell %d: fanned-out cached run diverged", pass, i)
			}
		}
	}
	for _, stage := range ac.Stats().Stages {
		if stage.Hits != 1 || stage.Misses != 1 {
			t.Fatalf("stage %s: hits=%d misses=%d, want 1/1 over cold+warm passes",
				stage.Stage, stage.Hits, stage.Misses)
		}
	}
}

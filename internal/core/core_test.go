package core

import (
	"strings"
	"testing"

	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"ba", "brite", "econ", "econ-dist", "fkp", "gba",
		"glp", "gnm", "gnp", "inet", "pfp", "rgg", "transitstub", "waxman", "ws"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d models: %v", len(names), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry = %v, want %v", names, want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("want unknown-model error, got %v", err)
	}
}

func TestEveryModelBuildsAtSmallSize(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Description == "" {
			t.Fatalf("%s: missing description", name)
		}
		top, err := m.Build(250).Generate(rng.New(5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if top.G.N() < 100 {
			t.Fatalf("%s: produced only %d nodes for target 250", name, top.G.N())
		}
		if err := top.G.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPipelineRun(t *testing.T) {
	res, err := RunCell(Cell{Model: "glp", N: 800, Seed: 11, Target: refdata.ASMap2001, PathSources: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "glp" || res.Topology == nil || res.Report == nil {
		t.Fatalf("incomplete result %+v", res)
	}
	if res.Snapshot.N != res.Topology.G.N() {
		t.Fatal("snapshot does not match topology")
	}
	if res.Report.Score <= 0 {
		t.Fatalf("score = %v, expected positive imperfection", res.Report.Score)
	}
}

func TestPipelineRunErrors(t *testing.T) {
	c := Cell{Model: "ba", N: 0, Seed: 1, Target: refdata.ASMap2001}
	if _, err := RunCell(c); err == nil {
		t.Fatal("zero size should fail")
	}
	c.Model, c.N = "unknown", 100
	if _, err := RunCell(c); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	c := Cell{Model: "pfp", N: 400, Seed: 21, Target: refdata.ASMap2001, PathSources: 50}
	a, err := RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Snapshot != b.Snapshot {
		t.Fatalf("pipeline not deterministic:\n%+v\n%+v", a.Snapshot, b.Snapshot)
	}
}

// TestRunAllCoversRegistry runs the shoot-out shape: one cell per
// registered model through a single plan at pool width 1.
func TestRunAllCoversRegistry(t *testing.T) {
	names := Names()
	cells := make([]Cell, len(names))
	for i, name := range names {
		cells[i] = Cell{Model: name, N: 250, Seed: 3, Target: refdata.ASMap2001, PathSources: 40}
	}
	out, st, err := RunCellsWith(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(names) || st.Groups != len(names) {
		t.Fatalf("shoot-out returned %d results in %d groups for %d models", len(out), st.Groups, len(names))
	}
	for i, res := range out {
		if res == nil || res.Report == nil || res.Model != names[i] {
			t.Fatalf("%s: bad result %+v", names[i], res)
		}
	}
}

// TestPipelineTrajectoryMatchesPlainRun: trajectory mode must not
// change what the pipeline computes — generation is bit-identical
// (observation draws no randomness) and the final measurement runs on
// a delta-refreshed snapshot that is logically identical to the fresh
// freeze, under the same static parallel schedule. The full metric
// vector and comparison report must therefore agree exactly.
func TestPipelineTrajectoryMatchesPlainRun(t *testing.T) {
	for _, model := range []string{"ba", "glp", "pfp"} {
		for _, workers := range []int{1, 4} {
			plain := Cell{Model: model, N: 500, Seed: 11, Target: refdata.ASMap2001, PathSources: 60, Workers: workers}
			a, err := RunCell(plain)
			if err != nil {
				t.Fatal(err)
			}
			traj := plain
			traj.MeasureEvery = 120
			b, err := RunCell(traj)
			if err != nil {
				t.Fatal(err)
			}
			if a.Snapshot != b.Snapshot {
				t.Fatalf("%s workers=%d: trajectory mode changed the final metrics:\n%+v\n%+v",
					model, workers, a.Snapshot, b.Snapshot)
			}
			if a.Report.Score != b.Report.Score {
				t.Fatalf("%s workers=%d: trajectory mode changed the report score", model, workers)
			}
			if len(b.Trajectory) < 3 {
				t.Fatalf("%s workers=%d: only %d trajectory points", model, workers, len(b.Trajectory))
			}
			last := b.Trajectory[len(b.Trajectory)-1]
			if last.N != b.Snapshot.N || last.M != b.Snapshot.M {
				t.Fatalf("%s workers=%d: last epoch (%d,%d) vs final (%d,%d)",
					model, workers, last.N, last.M, b.Snapshot.N, b.Snapshot.M)
			}
			refreshed := 0
			for i, pt := range b.Trajectory {
				if i > 0 && pt.N <= b.Trajectory[i-1].N {
					t.Fatalf("%s: epochs not increasing", model)
				}
				if pt.Refreshed {
					refreshed++
				}
				if pt.Stats.N != pt.N || pt.Stats.M != pt.M {
					t.Fatalf("%s: stats out of sync at epoch %d", model, i)
				}
			}
			if refreshed < len(b.Trajectory)-1 {
				t.Fatalf("%s workers=%d: only %d/%d epochs used delta refresh",
					model, workers, refreshed, len(b.Trajectory))
			}
		}
	}
}

// TestPipelineTrajectoryFallbackModels: families without a trajectory
// kernel still run in trajectory mode, with a single completion epoch.
func TestPipelineTrajectoryFallbackModels(t *testing.T) {
	res, err := RunCell(Cell{Model: "gnp", N: 300, Seed: 5, Target: refdata.ASMap2001, PathSources: 40, MeasureEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != 1 {
		t.Fatalf("gnp trajectory has %d points, want 1", len(res.Trajectory))
	}
	if res.Trajectory[0].N != res.Snapshot.N {
		t.Fatal("fallback epoch out of sync")
	}
}

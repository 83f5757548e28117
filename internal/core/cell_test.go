package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

func TestBuildModelOverrides(t *testing.T) {
	g, err := BuildModel("ba", 500, Params{"m": 3, "a": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ba, ok := g.(gen.BA)
	if !ok {
		t.Fatalf("built %T, want gen.BA", g)
	}
	if ba.N != 500 || ba.M != 3 || ba.A != 0.5 {
		t.Fatalf("overrides not applied: %+v", ba)
	}
	// No overrides falls back to the registry default build.
	g, err = BuildModel("glp", 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if glp := g.(gen.GLP); glp.M != 1 || glp.P != 0.45 || glp.Beta != 0.64 {
		t.Fatalf("default GLP changed: %+v", glp)
	}
}

func TestBuildModelRejectsUnknownKnob(t *testing.T) {
	if _, err := BuildModel("ba", 500, Params{"nope": 1}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-knob error naming the key, got %v", err)
	}
	if _, err := BuildModel("econ", 500, Params{"m": 2}); err == nil ||
		!strings.Contains(err.Error(), "no parameter overrides") {
		t.Fatalf("knobless model must reject overrides, got %v", err)
	}
	if _, err := BuildModel("unknown", 500, nil); err == nil {
		t.Fatal("unknown model must fail")
	}
}

// TestEveryKnobbedModelDefaultsMatchBuild: the zero-override BuildWith
// path must reproduce the registry default parameterization exactly —
// the two builders generate identical topologies at the same seed.
func TestEveryKnobbedModelDefaultsMatchBuild(t *testing.T) {
	for _, name := range Names() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.BuildWith == nil {
			continue
		}
		a, err := m.Build(250).Generate(rng.New(9))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := m.BuildWith(250, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := g.Generate(rng.New(9))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.G.N() != b.G.N() || a.G.M() != b.G.M() {
			t.Fatalf("%s: BuildWith(nil) diverges from Build: (%d,%d) vs (%d,%d)",
				name, a.G.N(), a.G.M(), b.G.N(), b.G.M())
		}
	}
}

func TestRunCellErrors(t *testing.T) {
	if _, err := RunCell(Cell{Model: "ba", N: 0, Target: refdata.ASMap2001}); err == nil {
		t.Fatal("zero size should fail")
	}
	if _, err := RunCell(Cell{Model: "ba", N: 200, Params: Params{"x": 1},
		Target: refdata.ASMap2001}); err == nil {
		t.Fatal("unknown knob should fail")
	}
	// An unknown model fails with one line naming it, wrapped with the
	// cell's coordinates by the plan.
	_, err := RunCell(Cell{Model: "unknown", N: 100, Seed: 1, Target: refdata.ASMap2001})
	if err == nil || !strings.Contains(err.Error(), `unknown model "unknown"`) ||
		!strings.Contains(err.Error(), "cell 0 (unknown, n=100, seed=1)") ||
		strings.Contains(err.Error(), "\n") {
		t.Fatalf("want a one-line unknown-model error with cell coordinates, got %v", err)
	}
}

// TestRunCellsWorkerInvariance: the cell pool merges results by index
// and every cell draws only from its own seed-split streams, so the
// pool width must not change a single bit of any result.
func TestRunCellsWorkerInvariance(t *testing.T) {
	var cells []Cell
	for _, model := range []string{"ba", "glp"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cells = append(cells, Cell{Model: model, N: 300, Seed: seed,
				Target: refdata.ASMap2001, PathSources: 40, Workers: 1})
		}
	}
	base, _, err := RunCellsWith(cells, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, _, err := RunCellsWith(cells, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if base[i].Snapshot != got[i].Snapshot {
				t.Fatalf("workers=%d cell %d: snapshot diverged:\n%+v\n%+v",
					workers, i, base[i].Snapshot, got[i].Snapshot)
			}
			if base[i].Report.Score != got[i].Report.Score {
				t.Fatalf("workers=%d cell %d: score diverged", workers, i)
			}
		}
	}
}

// TestRunCellsFirstErrorDeterministic: which failure surfaces must not
// depend on scheduling — always the lowest-index failing cell.
func TestRunCellsFirstErrorDeterministic(t *testing.T) {
	cells := []Cell{
		{Model: "ba", N: 200, Seed: 1, Target: refdata.ASMap2001, PathSources: 20},
		{Model: "bad-one", N: 200, Seed: 1, Target: refdata.ASMap2001},
		{Model: "bad-two", N: 200, Seed: 1, Target: refdata.ASMap2001},
	}
	for _, workers := range []int{1, 4} {
		_, _, err := RunCellsWith(cells, workers, nil)
		if err == nil || !strings.Contains(err.Error(), "cell 1") ||
			!strings.Contains(err.Error(), "bad-one") {
			t.Fatalf("workers=%d: want the cell-1 failure, got %v", workers, err)
		}
	}
}

func TestRunCellWorkloadStage(t *testing.T) {
	cell := Cell{Model: "ba", N: 250, Seed: 5, Target: refdata.ASMap2001, PathSources: 20,
		Workload: &traffic.WorkloadSpec{LoadFactor: 0.6, Epochs: 6}}
	res, err := RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload == nil || len(res.Workload.Epochs) != 6 {
		t.Fatalf("workload report = %+v", res.Workload)
	}
	if res.Workload.Arrived == 0 {
		t.Fatal("workload stage admitted no flows")
	}
	// The workload stage must not perturb the other stages: the same
	// cell without it yields an identical topology and report.
	plain := cell
	plain.Workload = nil
	base, err := RunCell(plain)
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.Score != res.Report.Score || base.Snapshot != res.Snapshot {
		t.Fatal("workload stage changed the measurement stages")
	}
	// And the stage itself is a pure function of the cell value.
	again, err := RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(again.Workload)
	rj, _ := json.Marshal(res.Workload)
	if !bytes.Equal(aj, rj) {
		t.Fatal("workload stage not reproducible from the cell spec")
	}
}

func TestRunCellWorkloadErrorSurfaces(t *testing.T) {
	cell := Cell{Model: "ba", N: 250, Seed: 5, Target: refdata.ASMap2001, PathSources: 20,
		Workload: &traffic.WorkloadSpec{LoadFactor: -2}}
	if _, err := RunCell(cell); err == nil {
		t.Fatal("invalid workload spec must fail the cell")
	}
}

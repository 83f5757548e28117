package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"netmodel/internal/core"
	"netmodel/internal/traffic"
)

// testGrid is the small grid the determinism and aggregation tests
// share: 2 models × 2 sizes × 3 seeds at trivial size.
func testGrid() Grid {
	return Grid{
		Models:      []string{"ba", "glp"},
		Sizes:       []int{200, 300},
		Seeds:       []uint64{1, 2, 3},
		PathSources: 30,
	}
}

// gridErrorRows are grids Validate must reject; the fuzz target seeds
// from them too.
var gridErrorRows = map[string]Grid{
	"empty":          {},
	"no sizes":       {Models: []string{"ba"}, Seeds: []uint64{1}},
	"bad model":      {Models: []string{"nope"}, Sizes: []int{100}, Seeds: []uint64{1}},
	"dup model":      {Models: []string{"ba", "ba"}, Sizes: []int{100}, Seeds: []uint64{1}},
	"bad size":       {Models: []string{"ba"}, Sizes: []int{0}, Seeds: []uint64{1}},
	"dup size":       {Models: []string{"ba"}, Sizes: []int{100, 100}, Seeds: []uint64{1}},
	"dup seed":       {Models: []string{"ba"}, Sizes: []int{100}, Seeds: []uint64{1, 1}},
	"stray params":   {Models: []string{"ba"}, Sizes: []int{100}, Seeds: []uint64{1}, Params: map[string]core.Params{"glp": {"m": 1}}},
	"unknown target": {Models: []string{"ba"}, Sizes: []int{100}, Seeds: []uint64{1}, Target: "x"},
}

func TestGridValidate(t *testing.T) {
	for name, g := range gridErrorRows {
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: want validation error", name)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridCellsOrder(t *testing.T) {
	g := testGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*3 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	// Size-major, then model, then seed.
	idx := 0
	for _, n := range g.Sizes {
		for _, model := range g.Models {
			for _, seed := range g.Seeds {
				c := cells[idx]
				if c.Model != model || c.N != n || c.Seed != seed {
					t.Fatalf("cell %d = (%s, %d, %d), want (%s, %d, %d)",
						idx, c.Model, c.N, c.Seed, model, n, seed)
				}
				idx++
			}
		}
	}
}

func TestLoadGrid(t *testing.T) {
	spec := `{"models": ["ba", "glp"], "sizes": [500], "seeds": [1, 2],
		"params": {"glp": {"beta": 0.7}}, "path_sources": 50}`
	g, err := LoadGrid(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Models) != 2 || g.Params["glp"]["beta"] != 0.7 || g.PathSources != 50 {
		t.Fatalf("grid parsed wrong: %+v", g)
	}
	if _, err := LoadGrid(strings.NewReader(`{"modles": ["ba"]}`)); err == nil {
		t.Fatal("unknown field must fail")
	}
}

// TestSummaryByteIdenticalAcrossWorkers is the sweep determinism
// acceptance test: the same grid must produce byte-identical output —
// JSON encoding and rendered table alike — at every pool width.
func TestSummaryByteIdenticalAcrossWorkers(t *testing.T) {
	g := testGrid()
	var baseJSON []byte
	var baseText string
	for _, workers := range []int{1, 2, 4, 8} {
		s, err := Run(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		if baseJSON == nil {
			baseJSON, baseText = buf.Bytes(), s.String()
			continue
		}
		if !bytes.Equal(buf.Bytes(), baseJSON) {
			t.Fatalf("workers=%d: summary JSON diverged from workers=1", workers)
		}
		if s.String() != baseText {
			t.Fatalf("workers=%d: summary table diverged from workers=1", workers)
		}
	}
}

func TestSummaryAggregation(t *testing.T) {
	g := testGrid()
	s, err := Run(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != 12 || len(s.Aggregates) != 4 || len(s.Rankings) != 2 {
		t.Fatalf("summary shape: %d cells, %d aggregates, %d rankings",
			len(s.Cells), len(s.Aggregates), len(s.Rankings))
	}
	// The aggregate score moments must match a direct fold of the cells.
	for _, a := range s.Aggregates {
		var sum, min, max float64
		min, max = math.Inf(1), math.Inf(-1)
		count := 0
		for _, c := range s.Cells {
			if c.Model != a.Model || c.N != a.N {
				continue
			}
			sum += c.Score
			min = math.Min(min, c.Score)
			max = math.Max(max, c.Score)
			count++
		}
		if count != a.Seeds || count != len(g.Seeds) {
			t.Fatalf("%s n=%d: %d seeds folded, want %d", a.Model, a.N, a.Seeds, len(g.Seeds))
		}
		if math.Abs(a.Score.Mean-sum/float64(count)) > 1e-12 ||
			a.Score.Min != min || a.Score.Max != max {
			t.Fatalf("%s n=%d: aggregate moments wrong: %+v", a.Model, a.N, a.Score)
		}
		if len(a.Metrics) != len(s.Cells[0].Report.Rows) {
			t.Fatalf("%s n=%d: %d metric aggregates, want %d",
				a.Model, a.N, len(a.Metrics), len(s.Cells[0].Report.Rows))
		}
	}
	// Each ranking orders its tier by ascending mean score.
	for _, r := range s.Rankings {
		means := make(map[string]float64)
		for _, a := range s.Aggregates {
			if a.N == r.N {
				means[a.Model] = a.Score.Mean
			}
		}
		if len(r.Models) != len(g.Models) {
			t.Fatalf("n=%d: ranking covers %d models", r.N, len(r.Models))
		}
		for i := 1; i < len(r.Models); i++ {
			if means[r.Models[i-1]] > means[r.Models[i]] {
				t.Fatalf("n=%d: ranking not sorted: %v with means %v", r.N, r.Models, means)
			}
		}
	}
}

// TestCellReproducibleInIsolation: any summary row re-runs bit-for-bit
// as a standalone cell — the property that makes sweep failures
// debuggable without re-running the grid.
func TestCellReproducibleInIsolation(t *testing.T) {
	g := testGrid()
	s, err := Run(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	pick := 7 // arbitrary interior cell
	res, err := core.RunCell(cells[pick])
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != s.Cells[pick].Snapshot || res.Report.Score != s.Cells[pick].Score {
		t.Fatalf("cell %d not reproducible in isolation:\n%+v\n%+v",
			pick, res.Snapshot, s.Cells[pick].Snapshot)
	}
}

// TestParamsChangeCells: per-model overrides reach the generators.
func TestParamsChangeCells(t *testing.T) {
	g := Grid{Models: []string{"ba"}, Sizes: []int{300}, Seeds: []uint64{5}, PathSources: 20}
	plain, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Params = map[string]core.Params{"ba": {"m": 3}}
	tuned, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Cells[0].Snapshot.M <= plain.Cells[0].Snapshot.M {
		t.Fatalf("override m=3 did not densify: %d vs %d edges",
			tuned.Cells[0].Snapshot.M, plain.Cells[0].Snapshot.M)
	}
}

// workloadGrid is testGrid at one size with workload axes on top.
func workloadGrid() Grid {
	g := testGrid()
	g.Sizes = []int{200}
	g.Seeds = []uint64{1, 2}
	g.Workload = &WorkloadAxes{
		Spec:        traffic.WorkloadSpec{Epochs: 5},
		LoadFactors: []float64{0.3, 1.5},
		TailIndexes: []float64{1.3, 2.5},
	}
	return g
}

func TestWorkloadGridValidate(t *testing.T) {
	if err := workloadGrid().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range workloadGridMutations {
		g := workloadGrid()
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: want validation error", name)
		}
	}
}

// workloadGridMutations each break workloadGrid in one way Validate
// must reject; the fuzz target seeds from them too.
var workloadGridMutations = map[string]func(*Grid){
	"no load factors": func(g *Grid) { g.Workload.LoadFactors = nil },
	"dup load factor": func(g *Grid) { g.Workload.LoadFactors = []float64{1, 1} },
	"dup tail":        func(g *Grid) { g.Workload.TailIndexes = []float64{1.5, 1.5} },
	"bad load factor": func(g *Grid) { g.Workload.LoadFactors = []float64{-1} },
	"bad combo":       func(g *Grid) { g.Workload.TailIndexes = []float64{0.5} }, // pareto tail <= 1
	"huge horizon":    func(g *Grid) { g.Workload.Spec.Epochs = math.MaxInt32 + 1 },
}

func TestWorkloadGridCellsOrder(t *testing.T) {
	g := workloadGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*1*4*2 {
		t.Fatalf("expanded %d cells, want 16", len(cells))
	}
	idx := 0
	for _, model := range g.Models {
		for _, lf := range g.Workload.LoadFactors {
			for _, ti := range g.Workload.TailIndexes {
				for _, seed := range g.Seeds {
					c := cells[idx]
					if c.Model != model || c.Seed != seed || c.Workload == nil ||
						c.Workload.LoadFactor != lf || c.Workload.TailIndex != ti {
						t.Fatalf("cell %d = (%s, seed %d, %+v), want (%s, %v, %v, seed %d)",
							idx, c.Model, c.Seed, c.Workload, model, lf, ti, seed)
					}
					idx++
				}
			}
		}
	}
}

func TestWorkloadSweepFoldsAndRanks(t *testing.T) {
	g := workloadGrid()
	s, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Aggregates) != 2*4 {
		t.Fatalf("aggregates = %d, want 8", len(s.Aggregates))
	}
	wlNames := traffic.WorkloadMetricNames()
	for _, a := range s.Aggregates {
		if a.LoadFactor == 0 {
			t.Fatalf("aggregate %s missing load factor", a.Model)
		}
		for _, name := range wlNames {
			found := false
			for _, m := range a.Metrics {
				if m.Name == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("aggregate missing workload metric %s", name)
			}
		}
	}
	// Every cell must carry its workload report and axis coordinates.
	for _, c := range s.Cells {
		if c.Workload == nil || c.LoadFactor == 0 {
			t.Fatalf("cell (%s seed %d) missing workload results", c.Model, c.Seed)
		}
	}
	// Rankings still rank the models once per size tier.
	if len(s.Rankings) != 1 || len(s.Rankings[0].Models) != 2 {
		t.Fatalf("rankings = %+v", s.Rankings)
	}
	// Higher load must not lower mean utilization for the same model/tail.
	var lo, hi *Aggregate
	for i := range s.Aggregates {
		a := &s.Aggregates[i]
		if a.Model == "ba" && a.TailIndex == 1.3 {
			if a.LoadFactor == 0.3 {
				lo = a
			} else {
				hi = a
			}
		}
	}
	if lo == nil || hi == nil {
		t.Fatal("missing ba aggregates")
	}
	if FindMetric(hi.Metrics, "wl_mean_util").Mean < FindMetric(lo.Metrics, "wl_mean_util").Mean {
		t.Fatalf("utilization fell as load rose: %v -> %v",
			FindMetric(lo.Metrics, "wl_mean_util").Mean, FindMetric(hi.Metrics, "wl_mean_util").Mean)
	}
	// Rendering mentions the workload axes.
	text := s.String()
	if !strings.Contains(text, "workload sweep") || !strings.Contains(text, "cross-seed workload aggregates") {
		t.Fatalf("summary text missing workload sections:\n%s", text)
	}
}

func TestWorkloadSweepByteIdenticalAcrossWorkers(t *testing.T) {
	g := workloadGrid()
	var base []byte
	for _, workers := range []int{1, 3, 8} {
		s, err := Run(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = data
		} else if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d workload summary diverged", workers)
		}
	}
}

func TestWorkloadJSONGridRoundTrip(t *testing.T) {
	spec := `{"models": ["ba"], "sizes": [200], "seeds": [1],
		"workload": {"spec": {"arrivals": "onoff", "sizes": "lognormal", "epochs": 4},
		             "load_factors": [0.5, 1], "tail_indexes": [0.8]}}`
	g, err := LoadGrid(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if g.Workload == nil || g.Workload.Spec.Arrivals != "onoff" || len(g.Workload.LoadFactors) != 2 {
		t.Fatalf("grid = %+v", g)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
}

// TestWorkloadSharedTopologyMatchesPerComboCells pins the optimization
// contract of the grouped plan: sharing one topology across the (load,
// tail) combos must reproduce, bit for bit, the summary of running one
// full cell per combo.
func TestWorkloadSharedTopologyMatchesPerComboCells(t *testing.T) {
	g := workloadGrid()
	shared, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*core.PipelineResult, len(cells))
	for i, c := range cells {
		if results[i], err = core.RunCell(c); err != nil {
			t.Fatal(err)
		}
	}
	perCombo, err := fold(g, cells, results)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(perCombo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatal("shared-topology workload sweep diverged from per-combo cells")
	}
}

// failureGrid is workloadGrid with a failure axis: one undisturbed
// baseline plus a random-outage scenario, at one load and tail each.
func failureGrid() Grid {
	g := workloadGrid()
	g.Workload.LoadFactors = []float64{0.6}
	g.Workload.TailIndexes = []float64{1.3}
	g.Workload.Failures = []traffic.FailureSpec{
		{Mode: traffic.FailNone},
		{Mode: traffic.FailRandom, Links: 3, MTBF: 4, MTTR: 2, MaxRetries: 1},
	}
	return g
}

// TestFailureAxisSweep pins the failure axis end to end: the grid
// crosses it into the combos, cells carry scenario labels and
// survivability reports, the summary is byte-identical at every pool
// width, and the baseline scenario stays failure-free.
func TestFailureAxisSweep(t *testing.T) {
	g := failureGrid()
	if got := len(g.workloadSpecs()); got != 2 {
		t.Fatalf("workload combos = %d, want 2", got)
	}
	var base []byte
	var s *Summary
	for _, workers := range []int{1, 4} {
		run, err := Run(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, s = data, run
		} else if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d failure sweep diverged", workers)
		}
	}
	sawBaseline, sawOutage := false, false
	for _, c := range s.Cells {
		switch c.Failure {
		case "none":
			sawBaseline = true
			if c.Workload.Failures != nil {
				t.Fatal("baseline scenario must not carry a survivability report")
			}
		case "random:l3,n0,mtbf4,mttr2":
			sawOutage = true
			if c.Workload.Failures == nil || c.Workload.Failures.LinksFailed == 0 {
				t.Fatalf("outage scenario missing survivability data: %+v", c.Workload.Failures)
			}
		default:
			t.Fatalf("unexpected failure label %q", c.Failure)
		}
	}
	if !sawBaseline || !sawOutage {
		t.Fatalf("scenario coverage incomplete: baseline=%v outage=%v", sawBaseline, sawOutage)
	}
	for _, a := range s.Aggregates {
		if a.Failure == "" {
			t.Fatal("aggregates must carry the failure label")
		}
	}
}

// TestFailureAxisValidate checks the failure-axis rejections: ambiguous
// duplicate scenario labels and invalid specs fail loudly.
func TestFailureAxisValidate(t *testing.T) {
	g := failureGrid()
	g.Workload.Failures = append(g.Workload.Failures, traffic.FailureSpec{Mode: traffic.FailNone})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate failure scenario") {
		t.Fatalf("duplicate scenario: err = %v", err)
	}
	g = failureGrid()
	g.Workload.Failures[1].MTBF = -1
	if err := g.Validate(); err == nil {
		t.Fatal("invalid failure spec must fail grid validation")
	}
}

// Package sweep is the parameter-sweep subsystem: it expands a
// (model × size × seed) grid — optionally with per-model parameter
// overrides — into pipeline cells, fans the cells out across a worker
// pool, and folds the per-cell comparison reports into cross-seed
// aggregates and per-size-tier rankings. This is the many-maps workload
// of the generator-validation literature: no conclusion about a model
// family rests on a single seed, so every evaluation sweeps the axes
// first and reports moments across the replicas.
//
// Determinism contract: every cell draws exclusively from streams split
// off its own seed (core.Cell), cells merge by grid index, and the
// aggregation pass is sequential — so a Summary is a pure function of
// the Grid, bit-identical at every pool width, and any single cell can
// be reproduced in isolation from its row in the summary.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"netmodel/internal/artifact"
	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/metrics"
	"netmodel/internal/refdata"
	"netmodel/internal/stats"
	"netmodel/internal/traffic"
)

// WorkloadAxes extend a grid with the flow-level traffic stage: every
// cell additionally simulates the base Spec at each (load factor, tail
// index) pair, making workload pressure and size-tail heaviness sweep
// axes next to model, size and seed. LoadFactors is required;
// TailIndexes defaults to the base spec's tail index.
type WorkloadAxes struct {
	// Spec is the base workload; its LoadFactor and TailIndex are
	// overridden by the axes below.
	Spec traffic.WorkloadSpec `json:"spec"`
	// LoadFactors are the swept offered-load levels (spec.LoadFactor).
	LoadFactors []float64 `json:"load_factors"`
	// TailIndexes are the swept flow-size tail indexes (spec.TailIndex);
	// empty means the base spec's value.
	TailIndexes []float64 `json:"tail_indexes,omitempty"`
	// Failures are the swept failure scenarios (spec.Failures), crossed
	// with the load and tail axes; empty means the base spec's failure
	// configuration (usually none). Include a {"mode": "none"} entry to
	// keep an undisturbed baseline next to the outage scenarios.
	Failures []traffic.FailureSpec `json:"failures,omitempty"`
}

// Grid specifies a sweep: the cross product of Models × Sizes × Seeds,
// validated against one reference target. It is the JSON wire format of
// `toposweep -grid`.
type Grid struct {
	// Models are registry names; every model runs at every size and seed.
	Models []string `json:"models"`
	// Sizes are target node counts — the size tiers of the summary.
	Sizes []int `json:"sizes"`
	// Seeds are the replicate seeds aggregated over per (model, size).
	Seeds []uint64 `json:"seeds"`
	// Params optionally overrides a family's default parameterization,
	// keyed by model name (which must appear in Models).
	Params map[string]core.Params `json:"params,omitempty"`
	// Target names the reference map: "as" (default) or "asplus".
	Target string `json:"target,omitempty"`
	// PathSources caps BFS roots for path statistics (0 = exact).
	PathSources int `json:"path_sources,omitempty"`
	// CellWorkers sizes each cell's internal generation/engine pool.
	// Leave at the zero default (sequential generation) when the sweep
	// itself runs cells in parallel; the sweep pool width never changes
	// results, but CellWorkers >= 2 switches generation to the sharded
	// kernels, which produce different (equally valid) maps.
	CellWorkers int `json:"cell_workers,omitempty"`
	// MeasureEvery > 0 records a growth trajectory per cell (growth
	// families) every that many committed nodes.
	MeasureEvery int `json:"measure_every,omitempty"`
	// TrajectoryPaths adds the incremental distance family (path
	// lengths, diameter, closeness) to every trajectory observation;
	// PathSources sizes the pivot sample (0 = exact). Requires
	// MeasureEvery > 0.
	TrajectoryPaths bool `json:"trajectory_paths,omitempty"`
	// Workload, when non-nil, adds the flow-level traffic stage and its
	// (load factor × tail index) axes to the grid.
	Workload *WorkloadAxes `json:"workload,omitempty"`
}

// LoadGrid decodes a JSON grid specification, rejecting unknown fields
// so a typo fails loudly instead of silently sweeping defaults.
func LoadGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	return g, nil
}

// target resolves the named reference map.
func (g Grid) target() (refdata.Target, error) {
	switch g.Target {
	case "", "as":
		return refdata.ASMap2001, nil
	case "asplus":
		return refdata.ASPlusMap2001, nil
	}
	return refdata.Target{}, fmt.Errorf("sweep: unknown target %q (have as, asplus)", g.Target)
}

// Validate checks the grid axes: non-empty, no duplicates (a duplicate
// axis value would run identical cells and silently bias the moments),
// every model registered, every override keyed by a swept model.
func (g Grid) Validate() error {
	if len(g.Models) == 0 || len(g.Sizes) == 0 || len(g.Seeds) == 0 {
		return fmt.Errorf("sweep: grid needs models, sizes and seeds (got %d×%d×%d)",
			len(g.Models), len(g.Sizes), len(g.Seeds))
	}
	models := make(map[string]bool, len(g.Models))
	for _, m := range g.Models {
		if _, err := core.Lookup(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if models[m] {
			return fmt.Errorf("sweep: duplicate model %q", m)
		}
		models[m] = true
	}
	sizes := make(map[int]bool, len(g.Sizes))
	for _, n := range g.Sizes {
		if n <= 0 {
			return fmt.Errorf("sweep: sizes must be positive, got %d", n)
		}
		if sizes[n] {
			return fmt.Errorf("sweep: duplicate size %d", n)
		}
		sizes[n] = true
	}
	seeds := make(map[uint64]bool, len(g.Seeds))
	for _, s := range g.Seeds {
		if seeds[s] {
			return fmt.Errorf("sweep: duplicate seed %d", s)
		}
		seeds[s] = true
	}
	for m := range g.Params {
		if !models[m] {
			return fmt.Errorf("sweep: params for %q, which is not a swept model", m)
		}
	}
	if g.TrajectoryPaths && g.MeasureEvery <= 0 {
		return fmt.Errorf("sweep: trajectory_paths requires measure_every > 0")
	}
	if g.Workload != nil {
		if len(g.Workload.LoadFactors) == 0 {
			return fmt.Errorf("sweep: workload axes need at least one load factor")
		}
		lfs := make(map[float64]bool, len(g.Workload.LoadFactors))
		for _, lf := range g.Workload.LoadFactors {
			if lfs[lf] {
				return fmt.Errorf("sweep: duplicate load factor %v", lf)
			}
			lfs[lf] = true
		}
		tails := make(map[float64]bool, len(g.Workload.TailIndexes))
		for _, ti := range g.Workload.TailIndexes {
			if tails[ti] {
				return fmt.Errorf("sweep: duplicate tail index %v", ti)
			}
			tails[ti] = true
		}
		labels := make(map[string]bool, len(g.Workload.Failures))
		for _, fs := range g.Workload.Failures {
			label := fs.Label()
			if labels[label] {
				return fmt.Errorf("sweep: duplicate failure scenario %q", label)
			}
			labels[label] = true
		}
		// Every swept combination must be a valid spec on its own.
		for _, sp := range g.workloadSpecs() {
			if err := sp.Validate(); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	}
	if _, err := g.target(); err != nil {
		return err
	}
	return nil
}

// workloadSpecs expands the workload axes into one spec per (load
// factor, tail index, failure scenario) triple in axis order, or the
// single nil spec when the grid has no workload stage — the degenerate
// combo that keeps the cell expansion and fold uniform.
func (g Grid) workloadSpecs() []*traffic.WorkloadSpec {
	if g.Workload == nil {
		return []*traffic.WorkloadSpec{nil}
	}
	tails := g.Workload.TailIndexes
	if len(tails) == 0 {
		tails = []float64{g.Workload.Spec.TailIndex}
	}
	fails := []*traffic.FailureSpec{g.Workload.Spec.Failures}
	if len(g.Workload.Failures) > 0 {
		fails = fails[:0]
		for i := range g.Workload.Failures {
			fails = append(fails, &g.Workload.Failures[i])
		}
	}
	out := make([]*traffic.WorkloadSpec, 0, len(g.Workload.LoadFactors)*len(tails)*len(fails))
	for _, lf := range g.Workload.LoadFactors {
		for _, ti := range tails {
			for _, fs := range fails {
				sp := g.Workload.Spec
				sp.LoadFactor = lf
				sp.TailIndex = ti
				sp.Failures = fs
				out = append(out, &sp)
			}
		}
	}
	return out
}

// Cells expands the grid into pipeline cells in the canonical order:
// size-major, then model, then workload combo (load factor × tail
// index; a single degenerate combo without workload axes), then seed —
// so every cross-seed group is contiguous and the cell at
// (si, mi, wi, ki) has index ((si*len(Models)+mi)*len(combos)+wi)*len(Seeds)+ki.
func (g Grid) Cells() ([]core.Cell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	tgt, err := g.target()
	if err != nil {
		return nil, err
	}
	// The zero default means fully sequential cells — the sweep pool is
	// the only parallelism. (Cell.Workers <= 0 would otherwise hand the
	// metrics engine GOMAXPROCS workers per cell and oversubscribe.)
	cellWorkers := g.CellWorkers
	if cellWorkers <= 0 {
		cellWorkers = 1
	}
	combos := g.workloadSpecs()
	cells := make([]core.Cell, 0, len(g.Models)*len(g.Sizes)*len(combos)*len(g.Seeds))
	for _, n := range g.Sizes {
		for _, model := range g.Models {
			for _, wl := range combos {
				for _, seed := range g.Seeds {
					cells = append(cells, core.Cell{
						Model:           model,
						N:               n,
						Seed:            seed,
						Params:          g.Params[model],
						Target:          tgt,
						PathSources:     g.PathSources,
						Workers:         cellWorkers,
						MeasureEvery:    g.MeasureEvery,
						TrajectoryPaths: g.TrajectoryPaths,
						Workload:        wl,
					})
				}
			}
		}
	}
	return cells, nil
}

// CellResult is one grid cell's outcome: the cell coordinates plus the
// full comparison report and metric vector, and the growth trajectory
// when the grid swept with MeasureEvery.
type CellResult struct {
	Model string `json:"model"`
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"`
	// LoadFactor and TailIndex are the cell's workload-axis coordinates
	// when the grid sweeps a workload, zero otherwise; Failure labels the
	// cell's failure scenario (traffic.FailureSpec.Label) when the spec
	// carries one, empty otherwise.
	LoadFactor float64                `json:"load_factor,omitempty"`
	TailIndex  float64                `json:"tail_index,omitempty"`
	Failure    string                 `json:"failure,omitempty"`
	Score      float64                `json:"score"`
	Report     *compare.Report        `json:"report"`
	Snapshot   metrics.Snapshot       `json:"snapshot"`
	Trajectory []core.TrajectoryPoint `json:"trajectory,omitempty"`
	// Workload is the cell's flow-level traffic report when the grid
	// swept a workload, nil otherwise.
	Workload *traffic.SimReport `json:"workload,omitempty"`
}

// MetricAggregate is the cross-seed distribution of one metric.
type MetricAggregate struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Aggregate is the cross-seed summary of one (model, size[, load
// factor, tail index]) cell group: moments of the aggregate score and
// of every measured metric — including, for workload grids, the
// workload scalars (traffic.WorkloadMetricNames) appended after the
// comparison rows.
type Aggregate struct {
	Model      string            `json:"model"`
	N          int               `json:"n"`
	LoadFactor float64           `json:"load_factor,omitempty"`
	TailIndex  float64           `json:"tail_index,omitempty"`
	Failure    string            `json:"failure,omitempty"`
	Seeds      int               `json:"seeds"`
	Score      MetricAggregate   `json:"score"`
	Metrics    []MetricAggregate `json:"metrics"`
}

// Ranking orders the swept models within one size tier by ascending
// cross-seed mean score (best statistical match first).
type Ranking struct {
	N      int      `json:"n"`
	Models []string `json:"models"`
}

// Summary is the folded outcome of a sweep: per-cell reports in grid
// order, cross-seed aggregates per (size, model), and a ranking per
// size tier. DuplicateCells and Cache report execution diagnostics —
// both are omitted from the JSON encoding in their default states, so
// a summary's serialized form is untouched by the diagnostics unless
// they have something to say.
type Summary struct {
	Target     string       `json:"target"`
	Grid       Grid         `json:"grid"`
	Cells      []CellResult `json:"cells"`
	Aggregates []Aggregate  `json:"aggregates"`
	Rankings   []Ranking    `json:"rankings"`
	// DuplicateCells counts expanded cells that were exact duplicates of
	// an earlier cell and were served from its result (core.RunStats).
	// Always zero for a grid that passes Validate; non-zero only for
	// hand-built degenerate grids.
	DuplicateCells int `json:"duplicate_cells,omitempty"`
	// Cache holds the artifact-cache counters when the sweep ran with
	// Options.CacheStats set and a live cache; nil otherwise.
	Cache *artifact.Stats `json:"cache,omitempty"`
}

// Options configure RunWith beyond the grid itself.
type Options struct {
	// Workers is the sweep pool width (<= 0 means GOMAXPROCS).
	Workers int
	// Cache, when non-nil, reuses pipeline stage outputs across
	// topology-identical cells and across successive sweeps sharing the
	// cache (core.RunCellsWith). It never changes a byte of the summary
	// — only how much work producing it costs.
	Cache *artifact.Cache
	// CacheStats attaches the cache's hit/miss/eviction counters to the
	// summary (Summary.Cache) after the run.
	CacheStats bool
}

// Run expands the grid, executes every cell across a pool of the given
// width (<= 0 means GOMAXPROCS) and folds the results. The returned
// Summary is bit-identical at every pool width. It is RunWith without
// an artifact cache.
func Run(g Grid, workers int) (*Summary, error) {
	return RunWith(g, Options{Workers: workers})
}

// RunWith is Run with explicit options. Execution is stage-keyed
// (core.RunCellsWith): cells sharing a topology — for workload grids,
// every (load factor × tail index × failure) combo of one (size, model,
// seed) — generate, freeze, measure and compare once, and the workload
// specs fan out sequentially over the warm state. With Options.Cache
// the stage outputs additionally persist across sweeps sharing the
// cache. Both layers of reuse are exact: every cached artifact is a
// pure function of its key, so the summary is bit-identical to
// expanding one full cell per combo at every pool width and every
// cache budget — the cache moves work, never answers.
func RunWith(g Grid, o Options) (*Summary, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	results, st, err := core.RunCellsWith(cells, o.Workers, o.Cache)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	s, err := fold(g, cells, results)
	if err != nil {
		return nil, err
	}
	s.DuplicateCells = st.DuplicateCells
	if o.CacheStats && o.Cache != nil {
		cs := o.Cache.Stats()
		s.Cache = &cs
	}
	return s, nil
}

// fold reduces the per-cell results into the summary. It runs on one
// goroutine in grid order, so the reduction adds no scheduling freedom.
func fold(g Grid, cells []core.Cell, results []*core.PipelineResult) (*Summary, error) {
	tgt, err := g.target()
	if err != nil {
		return nil, err
	}
	s := &Summary{Target: tgt.Name, Grid: g, Cells: make([]CellResult, len(cells))}
	for i, res := range results {
		s.Cells[i] = CellResult{
			Model:      cells[i].Model,
			N:          cells[i].N,
			Seed:       cells[i].Seed,
			Score:      res.Report.Score,
			Report:     res.Report,
			Snapshot:   res.Snapshot,
			Trajectory: res.Trajectory,
			Workload:   res.Workload,
		}
		if res.Workload != nil {
			// The report echoes the spec with defaults resolved, so the
			// coordinates show what actually ran (e.g. an unset tail index
			// as the distribution's default, not 0).
			s.Cells[i].LoadFactor = res.Workload.Spec.LoadFactor
			s.Cells[i].TailIndex = res.Workload.Spec.TailIndex
			if res.Workload.Spec.Failures != nil {
				s.Cells[i].Failure = res.Workload.Spec.Failures.Label()
			}
		}
	}
	s.aggregateAndRank()
	return s, nil
}

// aggregateAndRank folds the summary's cells — already in canonical
// grid order — into cross-seed aggregates per contiguous seed group and
// a ranking per size tier. Sequential, so it adds no scheduling
// freedom.
func (s *Summary) aggregateAndRank() {
	g := s.Grid
	nm, nw, ns := len(g.Models), len(g.workloadSpecs()), len(g.Seeds)
	for si, n := range g.Sizes {
		scores := make(map[string]float64, nm)
		for mi, model := range g.Models {
			for wi := 0; wi < nw; wi++ {
				base := ((si*nm+mi)*nw + wi) * ns
				group := s.Cells[base : base+ns]
				agg := aggregate(model, n, group)
				s.Aggregates = append(s.Aggregates, agg)
				if wi == 0 {
					// The topology score is workload-independent, so the
					// ranking reads it from each model's first combo.
					scores[model] = agg.Score.Mean
				}
			}
		}
		s.Rankings = append(s.Rankings, Ranking{N: n, Models: compare.RankScores(scores)})
	}
}

// aggregate folds one cross-seed group's reports through streaming
// moments: the aggregate score, every report row's measured value and —
// for workload cells — the workload scalar vector. Row orders are fixed
// (compare.Score and traffic.WorkloadMetricNames), so the metric list
// is identical across cells and the fold is positional.
func aggregate(model string, n int, group []CellResult) Aggregate {
	agg := Aggregate{Model: model, N: n, Seeds: len(group),
		LoadFactor: group[0].LoadFactor, TailIndex: group[0].TailIndex,
		Failure: group[0].Failure}
	var score stats.Moments
	rows := make([]stats.Moments, len(group[0].Report.Rows))
	wlNames := traffic.WorkloadMetricNames()
	var wl []stats.Moments
	if group[0].Workload != nil {
		wl = make([]stats.Moments, len(wlNames))
	}
	for _, c := range group {
		score.Add(c.Score)
		for ri, row := range c.Report.Rows {
			rows[ri].Add(row.Measured)
		}
		if wl != nil {
			for ri, v := range c.Workload.Scalars() {
				wl[ri].Add(v)
			}
		}
	}
	agg.Score = metricAggregate("score", &score)
	for ri, row := range group[0].Report.Rows {
		agg.Metrics = append(agg.Metrics, metricAggregate(row.Name, &rows[ri]))
	}
	for ri := range wl {
		agg.Metrics = append(agg.Metrics, metricAggregate(wlNames[ri], &wl[ri]))
	}
	return agg
}

func metricAggregate(name string, m *stats.Moments) MetricAggregate {
	return MetricAggregate{Name: name, Mean: m.Mean(), Std: m.Std(), Min: m.Min(), Max: m.Max()}
}

// String renders the summary as the text the toposweep tool prints:
// the per-cell score table followed by, per size tier, the models
// ranked by cross-seed mean score with std and range.
func (s *Summary) String() string {
	var b strings.Builder
	g := s.Grid
	if g.Workload == nil {
		fmt.Fprintf(&b, "sweep against %s: %d models × %d sizes × %d seeds = %d cells\n",
			s.Target, len(g.Models), len(g.Sizes), len(g.Seeds), len(s.Cells))
		fmt.Fprintf(&b, "\n%-12s %8s %8s %8s\n", "model", "n", "seed", "score")
		for _, c := range s.Cells {
			fmt.Fprintf(&b, "%-12s %8d %8d %7.1f%%\n", c.Model, c.N, c.Seed, 100*c.Score)
		}
	} else {
		combos := len(g.workloadSpecs())
		fmt.Fprintf(&b, "workload sweep against %s: %d models × %d sizes × %d workloads × %d seeds = %d cells\n",
			s.Target, len(g.Models), len(g.Sizes), combos, len(g.Seeds), len(s.Cells))
		withFail := len(g.Workload.Failures) > 0
		if withFail {
			fmt.Fprintf(&b, "\n%-12s %8s %8s %6s %6s %-24s %9s %8s %7s %7s\n",
				"model", "n", "seed", "load", "tail", "failure", "fct", "util", "killed", "disc")
			for _, c := range s.Cells {
				w := c.Workload
				var killed, disc float64
				if w.Failures != nil && w.Arrived > 0 {
					killed = float64(w.Failures.Killed) / float64(w.Arrived)
					disc = w.Failures.DisconnectedOD
				}
				fmt.Fprintf(&b, "%-12s %8d %8d %6.2f %6.2f %-24s %9.3f %7.1f%% %6.1f%% %6.1f%%\n",
					c.Model, c.N, c.Seed, c.LoadFactor, c.TailIndex, c.Failure,
					w.MeanFCT, 100*w.MeanUtil, 100*killed, 100*disc)
			}
		} else {
			fmt.Fprintf(&b, "\n%-12s %8s %8s %6s %6s %9s %9s %8s %8s\n",
				"model", "n", "seed", "load", "tail", "fct", "active", "util", "ovl")
			for _, c := range s.Cells {
				w := c.Workload
				fmt.Fprintf(&b, "%-12s %8d %8d %6.2f %6.2f %9.3f %9.1f %7.1f%% %7.1f%%\n",
					c.Model, c.N, c.Seed, c.LoadFactor, c.TailIndex,
					w.MeanFCT, w.MeanActive, 100*w.MeanUtil, 100*w.OverloadFrac)
			}
		}
	}
	byModel := make(map[int]map[string]Aggregate, len(g.Sizes))
	for _, a := range s.Aggregates {
		if byModel[a.N] == nil {
			byModel[a.N] = make(map[string]Aggregate, len(g.Models))
		}
		if _, ok := byModel[a.N][a.Model]; !ok {
			byModel[a.N][a.Model] = a // first combo carries the score
		}
	}
	for _, r := range s.Rankings {
		fmt.Fprintf(&b, "\ncross-seed score at n=%d (mean ± std [min, max], %d seeds)\n",
			r.N, len(g.Seeds))
		for rank, model := range r.Models {
			a := byModel[r.N][model]
			fmt.Fprintf(&b, "%2d. %-12s %6.1f%% ± %4.1f%%  [%5.1f%%, %5.1f%%]\n",
				rank+1, model, 100*a.Score.Mean, 100*a.Score.Std, 100*a.Score.Min, 100*a.Score.Max)
		}
	}
	if g.Workload != nil {
		fmt.Fprintf(&b, "\ncross-seed workload aggregates (mean ± std over %d seeds)\n", len(g.Seeds))
		if len(g.Workload.Failures) > 0 {
			fmt.Fprintf(&b, "%-12s %8s %6s %6s %-24s %16s %8s %8s\n",
				"model", "n", "load", "tail", "failure", "fct", "killed", "disc")
			for _, a := range s.Aggregates {
				fct := FindMetric(a.Metrics, "wl_mean_fct")
				killed := FindMetric(a.Metrics, "wl_killed_frac")
				disc := FindMetric(a.Metrics, "wl_disconnected_od")
				fmt.Fprintf(&b, "%-12s %8d %6.2f %6.2f %-24s %8.3f ± %5.3f %7.1f%% %7.1f%%\n",
					a.Model, a.N, a.LoadFactor, a.TailIndex, a.Failure,
					fct.Mean, fct.Std, 100*killed.Mean, 100*disc.Mean)
			}
		} else {
			fmt.Fprintf(&b, "%-12s %8s %6s %6s %16s %16s %8s\n",
				"model", "n", "load", "tail", "fct", "overload", "maxutil")
			for _, a := range s.Aggregates {
				fct := FindMetric(a.Metrics, "wl_mean_fct")
				ovl := FindMetric(a.Metrics, "wl_overload_frac")
				mu := FindMetric(a.Metrics, "wl_max_util")
				fmt.Fprintf(&b, "%-12s %8d %6.2f %6.2f %8.3f ± %5.3f %7.1f%% ± %4.1f%% %7.1f%%\n",
					a.Model, a.N, a.LoadFactor, a.TailIndex,
					fct.Mean, fct.Std, 100*ovl.Mean, 100*ovl.Std, 100*mu.Mean)
			}
		}
	}
	if s.DuplicateCells > 0 {
		fmt.Fprintf(&b, "\nwarning: %d duplicate cells deduplicated (identical coordinates and workload)\n",
			s.DuplicateCells)
	}
	if s.Cache != nil {
		fmt.Fprintf(&b, "\nartifact cache: budget %s, %d entries, %s used\n",
			formatBytes(s.Cache.Budget), s.Cache.Entries, formatBytes(s.Cache.Used))
		fmt.Fprintf(&b, "%-10s %8s %8s %10s\n", "stage", "hits", "misses", "evictions")
		for _, st := range s.Cache.Stages {
			fmt.Fprintf(&b, "%-10s %8d %8d %10d\n", st.Stage, st.Hits, st.Misses, st.Evictions)
		}
	}
	return b.String()
}

// formatBytes renders a byte budget for the cache section: -1 (or any
// negative) is unbounded, otherwise a power-of-1024 suffix.
func formatBytes(b int64) string {
	if b < 0 {
		return "unbounded"
	}
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// FindMetric returns the named aggregate row (zero value if absent) —
// the lookup the renderers here and in graphio share.
func FindMetric(metrics []MetricAggregate, name string) MetricAggregate {
	for _, m := range metrics {
		if m.Name == name {
			return m
		}
	}
	return MetricAggregate{}
}

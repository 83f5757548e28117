package core

import (
	"fmt"
	"sort"

	"netmodel/internal/compare"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/metrics"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// Params are numeric parameter overrides applied on top of a model
// family's default parameterization, keyed by lowercase knob name
// ("m", "beta", ...). They are plain numbers so grid specifications
// serialize to JSON; integer knobs are rounded from the float value.
type Params map[string]float64

// paramReader hands knob values to the registry builders while
// tracking which keys were consumed, so a misspelled override fails
// loudly instead of silently running the defaults.
type paramReader struct {
	p    Params
	used map[string]bool
}

func newParamReader(p Params) *paramReader {
	return &paramReader{p: p, used: make(map[string]bool, len(p))}
}

func (r *paramReader) float(key string, def float64) float64 {
	r.used[key] = true
	if v, ok := r.p[key]; ok {
		return v
	}
	return def
}

func (r *paramReader) int(key string, def int) int {
	r.used[key] = true
	if v, ok := r.p[key]; ok {
		return int(v + 0.5)
	}
	return def
}

// check returns an error naming every override key no knob consumed.
func (r *paramReader) check(model string) error {
	var unknown []string
	for k := range r.p {
		if !r.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("core: model %s has no parameter %v", model, unknown)
}

// BuildModel returns the named family parameterized at size n with the
// given overrides applied on top of its defaults. An empty override set
// is always valid; a non-empty one requires the family to expose knobs
// (Model.BuildWith) and every key to name one of them.
func BuildModel(name string, n int, overrides Params) (gen.Generator, error) {
	m, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if len(overrides) == 0 {
		return m.Build(n), nil
	}
	if m.BuildWith == nil {
		return nil, fmt.Errorf("core: model %q accepts no parameter overrides", name)
	}
	return m.BuildWith(n, overrides)
}

// Cell is one grid cell of a parameter sweep: a single (model, size,
// seed) run through generation, measurement and validation, optionally
// with trajectory observation and a workload stage. It is the only run
// configuration: single runs (RunCell), shoot-outs and sweeps all
// execute cells through RunCellsWith, so there is exactly one pipeline
// implementation.
type Cell struct {
	// Model is the registry name of the family to run.
	Model string
	// N is the target size.
	N int
	// Seed keys every random stream of the cell (see RunCell), so a
	// cell is bit-reproducible in isolation from its spec alone.
	Seed uint64
	// Params are optional overrides of the family's default
	// parameterization.
	Params Params
	// Target is the reference map to validate against.
	Target refdata.Target
	// PathSources caps BFS roots for path statistics (0 = exact).
	PathSources int
	// Workers sizes the cell-internal pools: sharded generation (<= 1
	// runs the sequential reference) and the metrics engine (<= 0 means
	// GOMAXPROCS). Sweeps that parallelize across cells keep this at 1
	// so the cell pool is the only parallelism.
	Workers int
	// MeasureEvery > 0 turns on trajectory observation every that many
	// committed nodes (growth families; everything else records a
	// single completion epoch).
	MeasureEvery int
	// TrajectoryPaths adds the incremental distance family (path
	// lengths, diameter, closeness) to every trajectory observation,
	// maintained by the engine's delta-repaired distance map instead of
	// per-epoch BFS sweeps. PathSources sizes the pivot sample (0 =
	// exact mode); the pivots are drawn once, on the first observed
	// snapshot, from a stream keyed by the cell seed. Only meaningful
	// with MeasureEvery > 0.
	TrajectoryPaths bool
	// Workload, when non-nil, appends a flow-level traffic stage: after
	// measurement the workload is simulated over the cell's frozen
	// snapshot with degree masses, drawing from the cell's own workload
	// stream (PipelineResult.Workload). Cells sharing a topology route
	// over one shortest-path tree state, cached across runs when an
	// artifact cache is given (RunCellsWith).
	Workload *traffic.WorkloadSpec
}

// The per-cell random streams are split off a root generator keyed by
// the cell seed, one stream per stage. Splitting (rather than seed
// arithmetic) keeps the stages independent and keeps cells with
// adjacent seeds from sharing streams: under the old seed/seed+1/
// seed+2 scheme, the measurement stream of seed s was the generation
// stream of seed s+1.
const (
	streamGenerate = iota
	streamMeasure
	streamCompare
	streamWorkload
)

// streams derives the cell's stage streams from its seed. The workload
// stream exists whether or not the cell runs a workload stage, so
// adding or dropping the stage never perturbs the other stages' draws.
func (c Cell) streams() (gr, mr, cr, wr *rng.Rand) {
	root := rng.New(c.Seed)
	return root.Split(streamGenerate), root.Split(streamMeasure),
		root.Split(streamCompare), root.Split(streamWorkload)
}

// RunCell executes one cell: build the generator, generate (through the
// sharded kernel when Workers > 1, observing epochs when MeasureEvery
// > 0), freeze, measure, score against the cell's target and run the
// workload stage if any. It is the one-cell plan of RunCellsWith, so a
// single run and a sweep share one execution path. Every random draw
// comes from streams split off the cell seed, so the result is a pure
// function of the Cell value — any cell of any grid can be re-run
// alone, bit for bit.
func RunCell(c Cell) (*PipelineResult, error) {
	results, _, err := RunCellsWith([]Cell{c}, 1, nil)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// buildTopology runs the generation stage: build the generator,
// generate (observing epochs when MeasureEvery > 0) and freeze. It
// returns the warm trajectory engine when trajectory mode created one
// (nil otherwise — the caller makes a fresh engine over the snapshot;
// engine.Measure recomputes every metric from the snapshot and its
// stream, so a fresh engine and a trajectory-warm engine measure
// byte-identically).
func (c Cell) buildTopology() (*topoArtifact, *engine.Engine, error) {
	if c.N <= 0 {
		return nil, nil, fmt.Errorf("core: cell needs a positive size, got %d", c.N)
	}
	g, err := BuildModel(c.Model, c.N, c.Params)
	if err != nil {
		return nil, nil, err
	}
	gr, _, _, _ := c.streams()
	if c.MeasureEvery > 0 {
		// Trajectory mode: one engine advances along delta-refreshed
		// snapshots; the final epoch's warm engine then serves the full
		// measurement.
		obs := NewTrajectoryObserver(c.Workers)
		if c.TrajectoryPaths {
			obs.EnablePathMetrics(c.PathSources, c.Seed)
		}
		top, err := gen.GenerateTrajectoryWith(g, gr, c.Workers,
			gen.Trajectory{Every: c.MeasureEvery, Observe: obs.Observe})
		if err != nil {
			return nil, nil, fmt.Errorf("core: generating %s trajectory: %w", c.Model, err)
		}
		eng := obs.Engine()
		return &topoArtifact{top: top, snap: eng.Snapshot(), trajectory: obs.Points()}, eng, nil
	}
	top, err := gen.GenerateWith(g, gr, c.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating %s: %w", c.Model, err)
	}
	// Freeze once; measurement and validation share one engine so the
	// memoized whole-graph metrics (triangles, k-core, giant component)
	// are computed a single time.
	snap, err := top.G.FreezeChecked()
	if err != nil {
		return nil, nil, fmt.Errorf("core: freezing %s: %w", c.Model, err)
	}
	return &topoArtifact{top: top, snap: snap}, nil, nil
}

// measureTopology runs the measurement and validation stages over an
// engine holding the cell's frozen snapshot. Both stages draw from
// cell-seed-split streams and from the snapshot alone, so the outputs
// are a pure function of (cell, topology) regardless of which engine —
// fresh, trajectory-warm or cached — carries the snapshot.
func (c Cell) measureTopology(eng *engine.Engine) (metrics.Snapshot, *compare.Report, error) {
	_, mr, cr, _ := c.streams()
	snap, err := eng.Measure(mr, c.PathSources)
	if err != nil {
		return metrics.Snapshot{}, nil, fmt.Errorf("core: measuring %s: %w", c.Model, err)
	}
	rep, err := compare.AgainstFrozen(eng, c.Target, compare.Options{PathSources: c.PathSources, Rand: cr})
	if err != nil {
		return metrics.Snapshot{}, nil, fmt.Errorf("core: comparing %s: %w", c.Model, err)
	}
	return snap, rep, nil
}

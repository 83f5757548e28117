// Package core is the front door of netmodel: a registry of every
// topology model the toolkit implements, each with a sensible default
// parameterization at any target size, and a pipeline that takes a cell
// (model, size, seed, ...) through generation, measurement, validation
// against the published AS-map statistics and an optional workload
// stage (Cell, RunCell, RunCellsWith).
//
// The registry is the "generator shoot-out" surface: experiments and
// command-line tools iterate over it so that every comparison
// automatically covers every implemented family.
package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"netmodel/internal/compare"
	"netmodel/internal/econ"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/traffic"
)

// Model is a registered topology model family.
type Model struct {
	// Name is the stable registry key (lowercase).
	Name string
	// Description is a one-line summary shown by the tools.
	Description string
	// Build returns the family's default parameterization targeting
	// roughly n nodes.
	Build func(n int) gen.Generator
	// BuildWith, when non-nil, builds the family at size n with numeric
	// overrides applied on top of the defaults — the knob surface the
	// sweep grids drive. Builders must reject unknown keys (see
	// paramReader). Families without tunable knobs leave it nil.
	BuildWith func(n int, overrides Params) (gen.Generator, error)
}

// econAdapter exposes the econ growth engine through the Generator
// interface (discarding the history, which pipeline users don't need).
type econAdapter struct {
	m econ.Model
}

func (e econAdapter) Name() string { return "econ" }

func (e econAdapter) Generate(r *rng.Rand) (*gen.Topology, error) {
	res, err := e.m.Run(r)
	if err != nil {
		return nil, err
	}
	return &gen.Topology{G: res.G, Pos: res.Pos}, nil
}

// GenerateSharded implements gen.ShardedGenerator by sharding the econ
// engine's per-month competition rounds.
func (e econAdapter) GenerateSharded(r *rng.Rand, workers int) (*gen.Topology, error) {
	if workers > 1 {
		e.m.Workers = workers
	}
	return e.Generate(r)
}

// econDistAdapter is econAdapter with the geographic constraint.
type econDistAdapter struct{ econAdapter }

func (e econDistAdapter) Name() string { return "econ-dist" }

// registry holds every model family, keyed by name.
var registry = map[string]Model{}

// register adds a model to the registry, deriving the default Build
// from BuildWith (no overrides) when only the knobbed builder is given.
func register(m Model) {
	if _, dup := registry[m.Name]; dup {
		panic("core: duplicate model " + m.Name)
	}
	if m.Build == nil {
		if m.BuildWith == nil {
			panic("core: model " + m.Name + " has no builder")
		}
		bw := m.BuildWith
		m.Build = func(n int) gen.Generator {
			g, err := bw(n, nil)
			if err != nil {
				// Unreachable: an empty override set consumes no keys.
				panic("core: default build of " + m.Name + ": " + err.Error())
			}
			return g
		}
	}
	registry[m.Name] = m
}

func init() {
	register(Model{Name: "gnp", Description: "Erdős–Rényi G(n,p) random graph",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.GNP{N: n, P: r.float("k", 4.2) / float64(n-1)}
			return g, r.check("gnp")
		}})
	register(Model{Name: "gnm", Description: "Erdős–Rényi G(n,m) random graph",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.GNM{N: n, M: int(r.float("k", 4)*float64(n)/2 + 0.5)}
			return g, r.check("gnm")
		}})
	register(Model{Name: "ws", Description: "Watts–Strogatz small world",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.WS{N: n, K: r.int("k", 4), Beta: r.float("beta", 0.1)}
			return g, r.check("ws")
		}})
	register(Model{Name: "waxman", Description: "Waxman distance-probability graph",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.Waxman{N: n, Alpha: r.float("alpha", 0.12), Beta: r.float("beta", 0.15)}
			return g, r.check("waxman")
		}})
	register(Model{Name: "rgg", Description: "random geometric graph",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			// mean degree ~ n*pi*r^2, so r = sqrt(k/pi)/sqrt(n); the
			// default k of 4.2 gives the historical 1.16/sqrt(n).
			r := newParamReader(p)
			g := gen.RGG{N: n, Radius: math.Sqrt(r.float("k", 4.2)/math.Pi) / math.Sqrt(float64(n))}
			return g, r.check("rgg")
		}})
	register(Model{Name: "ba", Description: "Barabási–Albert preferential attachment (γ=3)",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.BA{N: n, M: r.int("m", 2), A: r.float("a", 0)}
			return g, r.check("ba")
		}})
	register(Model{Name: "gba", Description: "BA with initial attractiveness tuned to γ≈2.2",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.BA{N: n, M: r.int("m", 2), A: r.float("a", -1.6)}
			return g, r.check("gba")
		}})
	register(Model{Name: "glp", Description: "Generalized Linear Preference (Bu–Towsley)",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.GLP{N: n, M: r.int("m", 1), P: r.float("p", 0.45), Beta: r.float("beta", 0.64)}
			return g, r.check("glp")
		}})
	register(Model{Name: "pfp", Description: "Positive-Feedback Preference (Zhou–Mondragón)",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			d := gen.DefaultPFP(n)
			g := gen.PFP{N: n, P: r.float("p", d.P), Q: r.float("q", d.Q), Delta: r.float("delta", d.Delta)}
			return g, r.check("pfp")
		}})
	register(Model{Name: "fkp", Description: "FKP/HOT optimization-driven tree",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.FKP{N: n, Alpha: r.float("alpha", 8)}
			return g, r.check("fkp")
		}})
	register(Model{Name: "inet", Description: "Inet-style degree-targeted synthesis",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.Inet{N: n, Gamma: r.float("gamma", 2.2), MinDeg: r.int("mindeg", 1)}
			return g, r.check("inet")
		}})
	register(Model{Name: "brite", Description: "BRITE-style degree+distance hybrid growth",
		BuildWith: func(n int, p Params) (gen.Generator, error) {
			r := newParamReader(p)
			g := gen.BRITE{N: n, M: r.int("m", 2), Beta: r.float("beta", 0.15), A: r.float("a", 0)}
			return g, r.check("brite")
		}})
	register(Model{Name: "transitstub", Description: "GT-ITM-style transit-stub hierarchy",
		Build: func(n int) gen.Generator { return gen.DefaultTransitStub(n) }})
	register(Model{Name: "econ", Description: "demand/supply competition-adaptation growth",
		Build: func(n int) gen.Generator { return econAdapter{econ.Default(n)} }})
	register(Model{Name: "econ-dist", Description: "econ with geographic link costs",
		Build: func(n int) gen.Generator { return econDistAdapter{econAdapter{econ.DefaultDistance(n)}} }})
}

// Names returns all registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the model registered under name.
func Lookup(name string) (Model, error) {
	m, ok := registry[name]
	if !ok {
		return Model{}, fmt.Errorf("core: unknown model %q (have %v)", name, Names())
	}
	return m, nil
}

// TrajectoryPoint is one observation epoch of a growth trajectory run.
type TrajectoryPoint struct {
	N, M      int
	Refreshed bool // measured through a delta refresh rather than a full freeze
	Stats     metrics.GrowthStats
}

// TrajectoryObserver drives incremental measurement along a growth
// trajectory: at every epoch it refreezes the live graph against the
// previous epoch's snapshot, advances a single metrics engine across
// the delta, and records the engine's growth-stat vector. After the
// run, the engine sits on the final snapshot with its delta-maintained
// metrics warm — final full measurement and validation reuse them.
type TrajectoryObserver struct {
	workers int
	prev    *graph.Snapshot
	eng     *engine.Engine
	points  []TrajectoryPoint

	// Path-metric mode (EnablePathMetrics): the engine maintains an
	// incremental distance map across epochs and every observation
	// carries the distance family of GrowthStats.
	pathsOn    bool
	pathPivots int
	pathSeed   uint64
	pivots     []int32
}

// NewTrajectoryObserver returns an observer measuring with the given
// engine pool width (<= 0 means GOMAXPROCS).
func NewTrajectoryObserver(workers int) *TrajectoryObserver {
	return &TrajectoryObserver{workers: workers}
}

// EnablePathMetrics switches the observer to MeasureGrowthPaths: every
// epoch additionally records average path length, diameter and mean
// closeness from the engine's delta-repaired distance map. pivots <= 0
// keeps the map exact (one BFS row per node, bit-identical to the full
// traversal metrics); pivots > 0 samples that many BFS sources on the
// first observed snapshot from a stream keyed by seed (the pivot set
// stays fixed for the whole trajectory). Call before the first Observe.
func (o *TrajectoryObserver) EnablePathMetrics(pivots int, seed uint64) {
	o.pathsOn = true
	o.pathPivots = pivots
	o.pathSeed = seed
}

// Observe implements gen.Trajectory.Observe.
func (o *TrajectoryObserver) Observe(g *graph.Graph, n int) error {
	var next *graph.Snapshot
	var d *graph.Delta
	var err error
	first := o.prev == nil
	if first {
		if next, err = g.FreezeChecked(); err != nil {
			return err
		}
		o.eng = engine.New(next, engine.WithWorkers(o.workers))
	} else {
		if next, d, err = g.Refreeze(o.prev); err != nil {
			return err
		}
		if err = o.eng.Advance(next, d); err != nil {
			return err
		}
	}
	o.prev = next
	var stats metrics.GrowthStats
	if o.pathsOn {
		if first && o.pathPivots > 0 {
			o.pivots = metrics.PivotSources(rng.New(o.pathSeed), next.N(), o.pathPivots)
		}
		stats = o.eng.MeasureGrowthPaths(o.pivots)
	} else {
		stats = o.eng.MeasureGrowth()
	}
	o.points = append(o.points, TrajectoryPoint{
		N:         next.N(),
		M:         next.M(),
		Refreshed: d != nil,
		Stats:     stats,
	})
	return nil
}

// Points returns the recorded epochs.
func (o *TrajectoryObserver) Points() []TrajectoryPoint { return o.points }

// Engine returns the metrics engine, positioned on the last observed
// snapshot (the completed topology once the run finished), or nil
// before the first observation.
func (o *TrajectoryObserver) Engine() *engine.Engine { return o.eng }

// WriteTrajectory renders trajectory epochs as aligned columns, the
// table the tools print in -measure-every mode. The refresh column
// marks epochs measured through a delta refresh ("delta") versus a
// full freeze ("full"). Trajectories recorded with path metrics
// (TrajectoryObserver.EnablePathMetrics, detected by a non-zero path
// source count on any epoch) gain the distance columns — mean path
// length, diameter, mean closeness — before the freeze column.
func WriteTrajectory(w io.Writer, points []TrajectoryPoint) error {
	paths := false
	for _, p := range points {
		if p.Stats.PathSources > 0 {
			paths = true
			break
		}
	}
	if !paths {
		if _, err := fmt.Fprintf(w, "%10s %10s %7s %7s %7s %8s %8s %5s %7s\n",
			"nodes", "edges", "<k>", "kmax", "gamma", "clust", "trans", "core", "freeze"); err != nil {
			return err
		}
		for _, p := range points {
			mode := "full"
			if p.Refreshed {
				mode = "delta"
			}
			if _, err := fmt.Fprintf(w, "%10d %10d %7.3f %7d %7.3f %8.4f %8.4f %5d %7s\n",
				p.N, p.M, p.Stats.AvgDegree, p.Stats.MaxDegree, p.Stats.Gamma,
				p.Stats.AvgClustering, p.Stats.Transitivity, p.Stats.MaxCore, mode); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := fmt.Fprintf(w, "%10s %10s %7s %7s %7s %8s %8s %5s %7s %5s %8s %7s\n",
		"nodes", "edges", "<k>", "kmax", "gamma", "clust", "trans", "core", "<d>", "diam", "<clo>", "freeze"); err != nil {
		return err
	}
	for _, p := range points {
		mode := "full"
		if p.Refreshed {
			mode = "delta"
		}
		if _, err := fmt.Fprintf(w, "%10d %10d %7.3f %7d %7.3f %8.4f %8.4f %5d %7.3f %5d %8.5f %7s\n",
			p.N, p.M, p.Stats.AvgDegree, p.Stats.MaxDegree, p.Stats.Gamma,
			p.Stats.AvgClustering, p.Stats.Transitivity, p.Stats.MaxCore,
			p.Stats.AvgPathLen, p.Stats.Diameter, p.Stats.MeanCloseness, mode); err != nil {
			return err
		}
	}
	return nil
}

// PipelineResult bundles the outputs of one cell's run.
type PipelineResult struct {
	Model    string
	Topology *gen.Topology
	Snapshot metrics.Snapshot
	Report   *compare.Report
	// Trajectory holds the per-epoch growth observations when the
	// cell ran with MeasureEvery > 0 (one final entry for families
	// without a trajectory kernel), nil otherwise.
	Trajectory []TrajectoryPoint
	// Workload holds the flow-level traffic report when the cell ran a
	// workload stage (Cell.Workload), nil otherwise.
	Workload *traffic.SimReport
}

package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/graphio"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/sweep"
	"netmodel/internal/traffic"
)

// scale is the size knob of a workload: node count and, for the traffic
// workloads, the simulated horizon.
type scale struct{ n, epochs int }

// workload is one CLI run shape. cli and prepare describe the same run:
// cli is the command line a user would type, prepare builds the inputs
// the in-process run hands to the library, the way that CLI does.
type workload struct {
	name, why   string
	full, smoke scale
	cli         func(seed uint64, sc scale) []string
	prepare     func(seed uint64, sc scale) (job, error)
}

func (w *workload) scale(smoke bool) scale {
	if smoke {
		return w.smoke
	}
	return w.full
}

// job is a prepared workload run.
type job interface {
	// run makes the CLI's library calls and writes the CLI's output to w.
	// It returns a writer of the per-cell results the replay reproduces,
	// or nil when the replay reproduces the whole output.
	run(w io.Writer) (replayable func(io.Writer) error, err error)
	// replay drives the same stages through their public functions,
	// recording a span around each call, and writes the per-cell results.
	replay(rec *recorder, w io.Writer) (replayStats, error)
}

// replayStats are the counts a replay reads off its stages' results.
type replayStats struct {
	groups, cells int
	edges         int // edges of every generated topology
	deltaEdges    int // inserted plus removed edges over all refreezes
	treeBudget    int
	routingBytes  int64
	originEpochs  int // distinct arrival origins per epoch, summed
	arrived       int
	completed     int
	flowEpochs    int // flows in flight at each epoch end, summed
	rerouted      int
	killed        int
	retried       int
}

// Sizes are cut from the ones the workloads were profiled at (sweep-models
// at n=100000, growth-paths at 500000, load-sparse at 50000, load-dense at
// 1600) so that three or more repetitions of every workload fit one timed
// run; each keeps the stage mix that made it a workload.
var workloads = []*workload{
	{
		name:  "sweep-models",
		why:   "16 cold topology pipelines, no traffic: generate (econ heaviest), measure, compare and freeze over a 2-wide cell pool",
		full:  scale{n: 50000},
		smoke: scale{n: 400},
		cli: func(seed uint64, sc scale) []string {
			return []string{"toposweep", "-models", "ba,glp,pfp,econ", "-sizes", strconv.Itoa(sc.n),
				"-seeds", joinSeeds(seedRange(seed, 4)), "-path-sources", "64", "-workers", "2", "-format", "json"}
		},
		prepare: func(seed uint64, sc scale) (job, error) {
			return newCellJob(sweep.Grid{
				Models:      []string{"ba", "glp", "pfp", "econ"},
				Sizes:       []int{sc.n},
				Seeds:       seedRange(seed, 4),
				Target:      "as",
				PathSources: 64,
				CellWorkers: 1,
			}, 2, graphio.WriteSweepJSON)
		},
	},
	{
		name:  "growth-paths",
		why:   "incremental path over 100 epochs: refreeze, engine advance, delta-repaired k-core and path metrics, then a large edge-list encode",
		full:  scale{n: 200000},
		smoke: scale{n: 3000},
		cli: func(seed uint64, sc scale) []string {
			return []string{"topogen", "-model", "glp", "-n", strconv.Itoa(sc.n), "-seed", strconv.FormatUint(seed, 10),
				"-measure-every", strconv.Itoa(sc.n / 100), "-paths", "-path-sources", "64", "-workers", "2"}
		},
		prepare: func(seed uint64, sc scale) (job, error) {
			m, err := core.Lookup("glp")
			if err != nil {
				return nil, err
			}
			return &growthJob{model: m.Name, g: m.Build(sc.n), seed: seed,
				every: sc.n / 100, sources: 64, workers: 2}, nil
		},
	},
	{
		name:  "load-sparse",
		why:   "light load on a large map: arrival origins far exceed the routing tree budget, so cold tree builds dominate",
		full:  scale{n: 25000, epochs: 10},
		smoke: scale{n: 1500, epochs: 3},
		cli: func(seed uint64, sc scale) []string {
			return []string{"topoload", "-model", "ba", "-n", strconv.Itoa(sc.n), "-seeds", strconv.FormatUint(seed, 10),
				"-engine", "event", "-load", "0.02", "-epochs", strconv.Itoa(sc.epochs),
				"-cell-workers", "2", "-workers", "1", "-format", "json"}
		},
		prepare: func(seed uint64, sc scale) (job, error) {
			return newCellJob(loadGrid(seed, sc, traffic.EngineEvent, 0.02, nil), 1, graphio.WriteWorkloadJSON)
		},
	},
	{
		name:  "load-dense",
		why:   "dense load on a small map whose origins all fit the tree budget: max-min rate solving and failure reroutes dominate",
		full:  scale{n: 1000, epochs: 100},
		smoke: scale{n: 150, epochs: 30},
		cli: func(seed uint64, sc scale) []string {
			return []string{"topoload", "-model", "ba", "-n", strconv.Itoa(sc.n), "-seeds", strconv.FormatUint(seed, 10),
				"-load", "1.2", "-epochs", strconv.Itoa(sc.epochs),
				"-failures", "none,random,degree", "-fail-links", "10", "-fail-nodes", "2",
				"-mtbf", "5", "-mttr", "2", "-fail-at", "20", "-repair-at", "60", "-fail-retries", "2",
				"-cell-workers", "2", "-workers", "1", "-format", "json"}
		},
		prepare: func(seed uint64, sc scale) (job, error) {
			retry := func(f traffic.FailureSpec) traffic.FailureSpec {
				f.Links, f.Nodes, f.MaxRetries, f.RetryAfter = 10, 2, 2, 1
				return f
			}
			fails := []traffic.FailureSpec{
				{Mode: traffic.FailNone},
				retry(traffic.FailureSpec{Mode: traffic.FailRandom, MTBF: 5, MTTR: 2}),
				retry(traffic.FailureSpec{Mode: traffic.FailDegree, FailAt: 20, RepairAt: 60}),
			}
			// No -engine on the command line: the spec carries topoload's
			// default, which TestOutputsMatchCLIs keeps in step with the CLI.
			return newCellJob(loadGrid(seed, sc, traffic.EngineEpoch, 1.2, fails), 1, graphio.WriteWorkloadJSON)
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// loadGrid is the grid topoload builds from its flags: one model, one
// size, one seed, the flag defaults for everything the command line
// leaves unset.
func loadGrid(seed uint64, sc scale, eng string, load float64, fails []traffic.FailureSpec) sweep.Grid {
	return sweep.Grid{
		Models:      []string{"ba"},
		Sizes:       []int{sc.n},
		Seeds:       []uint64{seed},
		Target:      "as",
		PathSources: 50,
		CellWorkers: 2,
		Workload: &sweep.WorkloadAxes{
			Spec:        traffic.WorkloadSpec{Engine: eng, Arrivals: "poisson", Sizes: "pareto", Epochs: sc.epochs},
			LoadFactors: []float64{load},
			Failures:    fails,
		},
	}
}

func seedRange(first uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

func joinSeeds(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

// cellJob is a toposweep or topoload run: a grid through sweep.RunWith.
type cellJob struct {
	grid    sweep.Grid
	cells   []core.Cell
	workers int
	write   func(io.Writer, *sweep.Summary) error
}

func newCellJob(g sweep.Grid, workers int, write func(io.Writer, *sweep.Summary) error) (*cellJob, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	return &cellJob{grid: g, cells: cells, workers: workers, write: write}, nil
}

func (j *cellJob) run(w io.Writer) (func(io.Writer) error, error) {
	// Budget 0 is the CLIs' -cache-budget default: no artifact cache.
	s, err := sweep.RunWith(j.grid, sweep.Options{Workers: j.workers, Cache: core.NewArtifactCache(0)})
	if err != nil {
		return nil, err
	}
	if err := j.write(w, s); err != nil {
		return nil, err
	}
	return func(w io.Writer) error { return j.writeCells(w, s.Cells) }, nil
}

// writeCells encodes the per-cell results: the summary without the
// cross-seed fold, which the replay does not redo.
func (j *cellJob) writeCells(w io.Writer, cells []sweep.CellResult) error {
	return graphio.WriteSweepJSON(w, &sweep.Summary{Target: j.cells[0].Target.Name, Grid: j.grid, Cells: cells})
}

// The stage streams a cell splits off its seed, in the order core
// assigns them.
const (
	streamGenerate = iota
	streamMeasure
	streamCompare
	streamWorkload
)

// replay runs the grid's topology groups one at a time, so the process
// allocation counters attribute cleanly to each span.
func (j *cellJob) replay(rec *recorder, w io.Writer) (replayStats, error) {
	st := replayStats{cells: len(j.cells)}
	results := make([]sweep.CellResult, len(j.cells))
	done := make([]bool, len(j.cells))
	for i := range j.cells {
		if done[i] {
			continue
		}
		// The group: every cell sharing cell i's topology, each with its own
		// workload spec (the grid rejects duplicate specs).
		key := j.cells[i].TopologyKey()
		var group []int
		for k := i; k < len(j.cells); k++ {
			if !done[k] && j.cells[k].TopologyKey() == key {
				group = append(group, k)
				done[k] = true
			}
		}
		st.groups++
		if err := j.replayGroup(rec, group, results, &st); err != nil {
			return st, err
		}
	}
	sp := rec.begin("graphio.write", "")
	err := j.writeCells(w, results)
	rec.end(sp)
	return st, err
}

func (j *cellJob) replayGroup(rec *recorder, group []int, results []sweep.CellResult, st *replayStats) error {
	c := j.cells[group[0]]
	root := rng.New(c.Seed)
	cs := rec.begin("core.cell", "")
	defer rec.end(cs)

	sp := rec.begin("gen.generate", c.Model)
	g, err := core.BuildModel(c.Model, c.N, c.Params)
	var top *gen.Topology
	if err == nil {
		top, err = gen.GenerateWith(g, root.Split(streamGenerate), c.Workers)
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	st.edges += top.G.M()

	sp = rec.begin("graph.freeze", "")
	snap, err := top.G.FreezeChecked()
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("engine.measure", "")
	eng := engine.New(snap, engine.WithWorkers(c.Workers))
	ms, err := eng.Measure(root.Split(streamMeasure), c.PathSources)
	rec.end(sp)
	if err != nil {
		return err
	}

	sp = rec.begin("compare.score", "")
	rep, err := compare.AgainstFrozen(eng, c.Target, compare.Options{PathSources: c.PathSources, Rand: root.Split(streamCompare)})
	rec.end(sp)
	if err != nil {
		return err
	}

	for _, ci := range group {
		cell := j.cells[ci]
		res := sweep.CellResult{Model: cell.Model, N: cell.N, Seed: cell.Seed,
			Score: rep.Score, Report: rep, Snapshot: ms}
		if cell.Workload != nil {
			label := ""
			if cell.Workload.Failures != nil {
				label = cell.Workload.Failures.Mode
			}
			sp = rec.begin("traffic.simulate", label)
			masses := make([]float64, snap.N())
			for u := range masses {
				masses[u] = float64(snap.Degree(u))
			}
			wl, err := traffic.SimulateWith(eng, masses, *cell.Workload, rng.New(cell.Seed).Split(streamWorkload), traffic.WithFlowTrace())
			rec.end(sp)
			if err != nil {
				return err
			}
			res.Workload = wl
			res.LoadFactor, res.TailIndex = wl.Spec.LoadFactor, wl.Spec.TailIndex
			if wl.Spec.Failures != nil {
				res.Failure = wl.Spec.Failures.Label()
			}
			st.addTraffic(wl)
		}
		results[ci] = res
	}
	if c.Workload != nil {
		st.treeBudget = max(st.treeBudget, traffic.RoutingTreeBudget(snap.N()))
		st.routingBytes += traffic.RoutingOf(eng).MemBytes()
	}
	return nil
}

// addTraffic folds one simulation report into the counts.
func (st *replayStats) addTraffic(wl *traffic.SimReport) {
	st.arrived += wl.Arrived
	st.completed += wl.Completed
	for _, e := range wl.Epochs {
		st.flowEpochs += e.Active
	}
	if f := wl.Failures; f != nil {
		st.rerouted += f.Rerouted
		st.killed += f.Killed
		st.retried += f.Retried
	}
	// Flows arrive at epoch starts, so an arrival instant names its epoch.
	seen := make(map[[2]int]bool)
	for _, fl := range wl.Flows {
		seen[[2]int{int(fl.Arrived/wl.Spec.EpochLen + 0.5), fl.Src}] = true
	}
	st.originEpochs += len(seen)
}

// growthJob is a topogen trajectory run with path metrics.
type growthJob struct {
	model                   string
	g                       gen.Generator
	seed                    uint64
	every, sources, workers int
}

func (j *growthJob) run(w io.Writer) (func(io.Writer) error, error) {
	obs := core.NewTrajectoryObserver(j.workers)
	obs.EnablePathMetrics(j.sources, j.seed)
	top, err := gen.GenerateTrajectoryWith(j.g, rng.New(j.seed), j.workers,
		gen.Trajectory{Every: j.every, Observe: obs.Observe})
	if err != nil {
		return nil, err
	}
	return nil, writeGrowth(w, top.G, obs.Points())
}

// writeGrowth writes topogen's standard output (the edge list) followed
// by its standard error (the trajectory table).
func writeGrowth(w io.Writer, g *graph.Graph, points []core.TrajectoryPoint) error {
	if err := graphio.WriteEdgeList(w, g); err != nil {
		return err
	}
	return core.WriteTrajectory(w, points)
}

// replay observes the growth with the bench's own copy of
// core.TrajectoryObserver, so each observation stage gets its own span
// under gen.generate.
func (j *growthJob) replay(rec *recorder, w io.Writer) (replayStats, error) {
	var st replayStats
	var (
		prev   *graph.Snapshot
		eng    *engine.Engine
		pivots []int32
		points []core.TrajectoryPoint
	)
	observe := func(g *graph.Graph, _ int) error {
		var next *graph.Snapshot
		var d *graph.Delta
		var err error
		if prev == nil {
			sp := rec.begin("graph.freeze", "")
			next, err = g.FreezeChecked()
			rec.end(sp)
			if err != nil {
				return err
			}
			eng = engine.New(next, engine.WithWorkers(j.workers))
		} else {
			sp := rec.begin("graph.refreeze", "")
			next, d, err = g.Refreeze(prev)
			rec.end(sp)
			if err != nil {
				return err
			}
			if d != nil {
				ins, rem := d.Counts()
				st.deltaEdges += ins + rem
			}
			sp = rec.begin("engine.advance", "")
			err = eng.Advance(next, d)
			rec.end(sp)
			if err != nil {
				return err
			}
		}
		sp := rec.begin("engine.growth_paths", "")
		if prev == nil && j.sources > 0 {
			pivots = metrics.PivotSources(rng.New(j.seed), next.N(), j.sources)
		}
		stats := eng.MeasureGrowthPaths(pivots)
		rec.end(sp)
		prev = next
		points = append(points, core.TrajectoryPoint{N: next.N(), M: next.M(), Refreshed: d != nil, Stats: stats})
		return nil
	}
	sp := rec.begin("gen.generate", j.model)
	top, err := gen.GenerateTrajectoryWith(j.g, rng.New(j.seed), j.workers, gen.Trajectory{Every: j.every, Observe: observe})
	rec.end(sp)
	if err != nil {
		return st, err
	}
	st.edges = top.G.M()
	sp = rec.begin("graphio.write", "")
	err = writeGrowth(w, top.G, points)
	rec.end(sp)
	return st, err
}

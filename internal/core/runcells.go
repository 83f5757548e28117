package core

import (
	"fmt"

	"netmodel/internal/artifact"
	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/traffic"
)

// RunStats reports what the stage-keyed execution plan did with a cell
// slice: how many distinct topologies actually executed and how many
// cells were exact duplicates of an earlier cell (same topology key and
// workload spec), served from the first occurrence's result instead of
// re-running.
type RunStats struct {
	// Groups counts the distinct topology groups the plan executed.
	Groups int
	// DuplicateCells counts cells identical to an earlier cell. Their
	// result slots are filled from the first occurrence — byte-identical,
	// since a cell's result is a pure function of the Cell value.
	DuplicateCells int
}

// cellGroup is one unit of the execution plan: every cell sharing a
// topology key, with the group's unique workload specs in
// first-occurrence order. The group runs generate/freeze/measure/
// compare once and fans the specs out over the warm state, side by side
// on the cell's own pool (runWorkloadsRouted).
type cellGroup struct {
	topo    Cell   // the shared topology cell (Workload stripped)
	key     string // topo.TopologyKey()
	cellIdx []int  // original indexes of the group's cells, in input order
	specOf  []int  // parallel to cellIdx: index into specs, -1 = no workload stage
	specs   []*traffic.WorkloadSpec
	seen    map[string]int // workload key -> specs index (-1 for nil)
}

// planGroups folds a cell slice into topology groups, preserving first-
// occurrence order on both axes (groups by topology key, specs within a
// group by workload key) so the plan — and therefore every cache probe
// sequence — is a pure function of the input order.
func planGroups(cells []Cell) (groups []*cellGroup, groupOf []int, dups int) {
	groupOf = make([]int, len(cells))
	byKey := make(map[string]int, len(cells))
	for i, c := range cells {
		key := c.TopologyKey()
		gi, ok := byKey[key]
		if !ok {
			topo := c
			topo.Workload = nil
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, &cellGroup{topo: topo, key: key, seen: make(map[string]int, 2)})
		}
		g := groups[gi]
		groupOf[i] = gi
		wk := workloadKey(c.Workload)
		si, dup := g.seen[wk]
		if !dup {
			si = -1
			if c.Workload != nil {
				si = len(g.specs)
				g.specs = append(g.specs, c.Workload)
			}
			g.seen[wk] = si
		} else {
			dups++
		}
		g.cellIdx = append(g.cellIdx, i)
		g.specOf = append(g.specOf, si)
	}
	return groups, groupOf, dups
}

// groupArtifacts carries one group's cache probe results into its
// execution. The zero value (all nil) is the cache-disabled plan: build
// everything.
type groupArtifacts struct {
	topo *topoArtifact
	eng  *engineArtifact
	rt   *traffic.Routing
}

// probeGroup looks the group's stages up in the cache. Dependent stages
// are only probed when their prerequisite hit: an engine entry is
// unusable without its sibling snapshot (it carries neither topology
// nor trajectory), and a routing entry is unreachable without it (its
// key embeds the snapshot's process-unique version). Forced misses on
// the dependent stages keep the counters a pure function of cache
// state, not of probe short-circuiting.
func probeGroup(ac *artifact.Cache, g *cellGroup) groupArtifacts {
	var a groupArtifacts
	if v, ok := ac.Get(StageSnapshot, g.key); ok {
		a.topo = v.(*topoArtifact)
	}
	if a.topo == nil {
		ac.Miss(StageEngine)
		if len(g.specs) > 0 {
			ac.Miss(StageRouting)
		}
		return a
	}
	if v, ok := ac.Get(StageEngine, g.key); ok {
		a.eng = v.(*engineArtifact)
	}
	if len(g.specs) > 0 {
		// Exclusive checkout: Routing mutates under simulation, so a
		// concurrent run sharing the cache must never co-own one. The
		// entry is committed back after the group completes.
		if v, ok := ac.Take(StageRouting, routingKey(g.key, a.topo.snap)); ok {
			a.rt = v.(*traffic.Routing)
		}
	}
	return a
}

// groupOut is one group's execution outcome plus the stage artifacts
// the commit pass writes back to the cache: the ones its probe missed,
// and the checked-out routing.
type groupOut struct {
	res  *PipelineResult
	wls  []*traffic.SimReport // parallel to cellGroup.specs
	topo *topoArtifact
	eng  *engineArtifact
	rt   *traffic.Routing
	err  error
}

// run executes one group over its probed artifacts. The workload stage
// always simulates over an owned Routing — the cache hit, or a fresh one
// over the snapshot — which the commit pass stores when a cache is
// present. Routing state is a pure function of the snapshot, so warm and
// cold trees produce byte-identical reports.
func (g *cellGroup) run(a groupArtifacts) groupOut {
	c := g.topo
	var out groupOut
	ta, ea := a.topo, a.eng
	var eng *engine.Engine
	if ta == nil {
		ta, eng, out.err = c.buildTopology()
		if out.err != nil {
			return out
		}
	}
	if ea == nil {
		if eng == nil {
			eng = engine.New(ta.snap, engine.WithWorkers(c.Workers))
		}
		ms, rep, err := c.measureTopology(eng)
		if err != nil {
			out.err = err
			return out
		}
		ea = &engineArtifact{metrics: ms, report: rep}
	}
	out.topo, out.eng = ta, ea
	out.res = &PipelineResult{Model: c.Model, Topology: ta.top, Snapshot: ea.metrics,
		Report: ea.report, Trajectory: ta.trajectory}
	if len(g.specs) == 0 {
		return out
	}
	out.rt = a.rt
	if out.rt == nil {
		out.rt = traffic.NewRouting(ta.snap)
	}
	out.wls, out.err = c.runWorkloadsRouted(ta.snap, g.specs, out.rt)
	return out
}

// runWorkloadsRouted simulates the specs over the snapshot, hoisting the
// degree masses. Each spec draws from a fresh workload stream split off
// the cell seed — the stream a dedicated cell would use — so the reports
// match independent cells byte for byte.
//
// The simulations run side by side on the cell's own pool (Workers).
// A spec with active failures routes only over its private mirror
// routing state and never touches rt, so each such spec is a task of its
// own. The specs routing over rt form one task that runs them in spec
// order, so rt ends in the state a sequential pass leaves — the state
// the artifact cache commits. min(Workers, tasks) tasks run at once,
// and each simulation gets Workers/width internal workers (at least
// one), so a cell never runs more than Workers goroutines of work.
// Reports come back in spec order, and the lowest-index failing spec
// names the error at every width.
func (c Cell) runWorkloadsRouted(snap *graph.Snapshot, specs []*traffic.WorkloadSpec, rt *traffic.Routing) ([]*traffic.SimReport, error) {
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	isolated := func(sp *traffic.WorkloadSpec) bool { return sp.Failures != nil && sp.Failures.Active() }
	var shared []int
	var tasks [][]int
	for i, sp := range specs {
		if isolated(sp) {
			tasks = append(tasks, []int{i})
		} else {
			shared = append(shared, i)
		}
	}
	if len(shared) > 0 {
		tasks = append([][]int{shared}, tasks...)
	}
	workers := par.Workers(c.Workers)
	width := max(1, min(workers, len(tasks)))
	inner := max(1, workers/width)
	reports := make([]*traffic.SimReport, len(specs))
	errs := make([]error, len(specs))
	par.ForEach(len(tasks), width, func(_, t int) {
		for _, i := range tasks[t] {
			var opts []traffic.SimOption
			if !isolated(specs[i]) {
				opts = append(opts, traffic.WithRouting(rt))
			}
			_, _, _, wr := c.streams()
			reports[i], errs[i] = traffic.Simulate(snap, masses, *specs[i], wr, inner, opts...)
			if errs[i] != nil {
				return // a sequential pass would stop here too
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: workload on %s: %w", c.Model, err)
		}
	}
	return reports, nil
}

// RunCellsWith executes cells through a stage-keyed plan: cells are
// grouped by topology key, each distinct topology generates/freezes/
// measures/compares once, and the group's workload specs fan out over
// the warm state on the cell's own pool (Cell.Workers; see
// runWorkloadsRouted), with groups running across a pool of the given
// width (<= 0 means GOMAXPROCS, 1 runs every group in order on the
// caller's goroutine). Exact-duplicate cells are served from the
// first occurrence and counted in RunStats. It is the only executor:
// RunCell is its one-cell plan, and a model shoot-out is one call at
// pool width 1, so cells keep their internal Workers pools.
//
// When ac is non-nil, stage outputs are looked up before and committed
// after execution, amortizing topology and measurement work across
// calls that share cells. Caching never changes a byte of any result:
// every artifact is a pure function of its key. The cache passes are
// sequential — probes in group order before the fan-out, commits in
// group order after — so hit/miss/eviction counters are themselves
// deterministic at every worker count.
//
// Errors are attributed to the lowest-index cell whose group failed,
// wrapped with the cell's coordinates, so the error that surfaces is
// invariant to the worker count.
func RunCellsWith(cells []Cell, workers int, ac *artifact.Cache) ([]*PipelineResult, RunStats, error) {
	groups, groupOf, dups := planGroups(cells)
	st := RunStats{Groups: len(groups), DuplicateCells: dups}
	arts := make([]groupArtifacts, len(groups))
	if ac != nil {
		for gi, g := range groups {
			arts[gi] = probeGroup(ac, g)
		}
	}
	outs := make([]groupOut, len(groups))
	par.ForEach(len(groups), workers, func(_, gi int) {
		outs[gi] = groups[gi].run(arts[gi])
	})
	if ac != nil {
		for gi, g := range groups {
			out := &outs[gi]
			if out.err != nil {
				continue
			}
			if arts[gi].topo == nil {
				ac.Put(StageSnapshot, g.key, out.topo, out.topo.memBytes())
			}
			if arts[gi].eng == nil {
				ac.Put(StageEngine, g.key, out.eng, out.eng.memBytes())
			}
			if out.rt != nil {
				ac.Put(StageRouting, routingKey(g.key, out.topo.snap), out.rt, out.rt.MemBytes())
			}
		}
	}
	for i := range cells {
		if err := outs[groupOf[i]].err; err != nil {
			return nil, st, fmt.Errorf("core: cell %d (%s, n=%d, seed=%d): %w",
				i, cells[i].Model, cells[i].N, cells[i].Seed, err)
		}
	}
	results := make([]*PipelineResult, len(cells))
	for gi, g := range groups {
		out := &outs[gi]
		for j, ci := range g.cellIdx {
			r := *out.res
			if si := g.specOf[j]; si >= 0 {
				r.Workload = out.wls[si]
			}
			results[ci] = &r
		}
	}
	return results, st, nil
}

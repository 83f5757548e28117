package traffic

import (
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
)

// This file carries the routing cache across snapshot refreshes. A
// refreshed epoch inserts or removes a handful of edges; rather than
// rebuild every cached shortest-path tree cold, Refresh repairs each
// cached tree's distance row with the metrics package's one row repair
// (metrics.RelaxDelta) — parents are derived on the path walk, so the
// row is all there is to repair — and so pays per epoch for the delta's
// impact, not for n trees of BFS. Growth and failure epochs take the
// same repair: a row is rebuilt cold only when its repair overruns the
// work budget. Memoized OD paths are dropped: in failure simulations,
// the one production caller, almost every repaired tree changes and
// almost no memo entry would survive, so flows re-walk their paths from
// the repaired rows instead.

// Snapshot returns the snapshot the routing state currently describes.
func (rt *Routing) Snapshot() *graph.Snapshot { return rt.s }

// Reset rebases the routing state onto an arbitrary snapshot with every
// cached tree and memoized path dropped — NewRouting(next) in place,
// but reusing the allocated storage: tree rows are recycled through
// the internal pool and handed to the next builds, the tree and path
// maps keep their buckets, and the arc→edge mapping refills the
// state's own buffer instead of populating the snapshot's lazy cache.
// A warm Routing swept across same-sized topologies (the artifact-cache
// and per-worker-pool patterns) therefore rebuilds its trees without
// allocating; the kernels-routing-reset ceiling in bench_floors.json
// enforces that. Unlike Refresh, Reset assumes nothing about the
// relationship between the old and new snapshots.
func (rt *Routing) Reset(next *graph.Snapshot) {
	rt.s = next
	rt.rfArcEdge, rt.rfArcCursor = next.FillArcEdgeIDs(rt.rfArcEdge, rt.rfArcCursor)
	rt.arcEdge = rt.rfArcEdge
	rt.max = RoutingTreeBudget(next.N())
	for src, dist := range rt.trees {
		rt.free = append(rt.free, dist)
		delete(rt.trees, src)
	}
	rt.fifo = rt.fifo[:0]
	clear(rt.paths)
}

// Refresh advances the routing state to next, the refreshed successor
// of its current snapshot with delta d between them (the pair returned
// by Graph.Refreeze). Cached distance rows are repaired in place by
// metrics.RelaxDelta, and repairs of independent source rows run in
// parallel across workers with index-private results, so the final
// state is identical at every worker count and entry-identical to cold
// builds over next. Memoized OD paths are dropped, as Reset drops them;
// the next admissions re-walk them from the repaired rows, so every
// path stays the one a cold build would give. A nil delta (full
// refreeze) or a foreign base version resets the state instead, exactly
// as NewRouting(next) would.
func (rt *Routing) Refresh(next *graph.Snapshot, d *graph.Delta, workers int) {
	if next == nil {
		return
	}
	if d == nil || d.BaseVersion() != rt.s.Version() {
		rt.Reset(next)
		return
	}
	// The refreshed arc→edge map cycles through rt's own buffers rather
	// than populating each epoch's snapshot cache; rt.arcEdge aliases
	// it, which is safe because the previous map is never read once a
	// refresh begins.
	rt.rfArcEdge, rt.rfArcCursor = next.FillArcEdgeIDs(rt.rfArcEdge, rt.rfArcCursor)
	srcs := append(rt.rfSrcs[:0], rt.fifo...)
	rt.rfSrcs = srcs
	if cap(rt.rfRows) < len(srcs) {
		rt.rfRows = make([][]int32, len(srcs))
	}
	rows := rt.rfRows[:len(srcs)]
	w := par.Workers(workers)
	for len(rt.rfScratch) < w {
		rt.rfScratch = append(rt.rfScratch, nil)
	}
	rt.rfNext, rt.rfEdges = next, d.Edges()
	if rt.rfBody == nil {
		// Created once per Routing and reused forever: the body reads
		// every per-call parameter from rt's refresh fields, so the
		// steady-state repair does not even pay a closure literal.
		rt.rfBody = func(worker, i int) {
			sc := rt.rfScratch[worker]
			if sc == nil {
				sc = metrics.NewDistScratch(rt.rfNext.N())
				rt.rfScratch[worker] = sc
			}
			sc.Reset() // repairTree reads no change records; keep the arena bounded
			src := rt.rfSrcs[i]
			rt.rfRows[i] = repairTree(rt.rfNext, rt.trees[src], src, rt.rfEdges, sc, 0)
		}
	}
	par.ForEach(len(srcs), w, rt.rfBody)
	rt.rfEdges = nil // the delta is not retained past the refresh
	for i, src := range srcs {
		rt.trees[src] = rows[i]
		rows[i] = nil
	}

	rt.s = next
	rt.arcEdge = rt.rfArcEdge
	rt.max = RoutingTreeBudget(next.N())
	clear(rt.paths)
}

// repairTree advances one cached distance row of src to next under the
// delta's edges and returns the repaired row, always equal to src's
// cold row over next (buildTreeInto). RelaxDelta repairs the row in
// place under budget (<= 0 selects its default); past the budget it
// leaves the row as it was, and the row is rebuilt cold.
func repairTree(next *graph.Snapshot, dist []int32, src int, edges []graph.DeltaEdge, sc *metrics.DistScratch, budget int) []int32 {
	for len(dist) < next.N() {
		dist = append(dist, -1)
	}
	if _, ok := metrics.RelaxDelta(next, edges, dist, sc, budget); !ok {
		return buildTreeInto(dist, next, src, sc.BFS())
	}
	return dist
}

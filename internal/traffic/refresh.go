package traffic

import (
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
)

// This file carries the routing cache across snapshot refreshes. A
// growth epoch inserts a handful of edges into a 100k-node map; before,
// every cached shortest-path tree and memoized OD path died with the
// snapshot version and was rebuilt cold. Refresh instead repairs each
// cached tree's distance row with the shared shrink-only relaxation of
// the metrics package (metrics.RelaxInserted) — parents are derived on
// the path walk, so the row is all there is to repair — remaps memoized
// path edge ids to the refreshed numbering, and invalidates only the
// memo entries whose origin tree actually changed — so a long
// trajectory simulation pays per epoch for the delta's impact, not for
// n trees of BFS. Removal deltas (failure epochs) are scoped the same
// way: a removed arc matters only when it was its deeper endpoint's
// canonical parent, and when every such orphan still has a neighbor one
// hop closer the whole distance field provably survives; a tree is
// rebuilt cold only when some orphan lost its last shortest-path
// predecessor — then distances can grow, which the shrink-only repair
// cannot express.

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
// shrink-only relaxation, and repairs of independent source rows run in
// parallel across workers with index-private results, so the final
// state is identical at every worker count and entry-identical to cold
// builds over next. Removal deltas are scoped: a removed arc between
// adjacent levels orphans its deeper endpoint only when it was that
// node's canonical parent, and as long as every orphan keeps some
// neighbor one hop closer, the distance field provably survives — by
// induction on BFS level each orphan's support is itself still at its
// old distance, and any strictly shorter path in next must use an
// inserted edge (which the insertion relaxation finds). A row is
// rebuilt cold only when an orphan lost its last shortest-path
// predecessor — then distances can grow, which the shrink-only repair
// cannot express. Memoized OD paths survive with their edge ids
// remapped when their origin's tree is cached and unchanged on
// pre-existing nodes — same distance and same canonical parent on every
// node of the old snapshot; they are dropped when the tree changed or
// was evicted. A nil delta (full refreeze) or a foreign base version
// resets the state instead, exactly as NewRouting(next) would.
func (rt *Routing) Refresh(next *graph.Snapshot, d *graph.Delta, workers int) {
	if next == nil {
		return
	}
	if d == nil || d.BaseVersion() != rt.s.Version() {
		rt.Reset(next)
		return
	}
	n := next.N()

	// Structural insertions and removals, in delta (U,V) order.
	ins, rem := rt.rfIns[:0], rt.rfRem[:0]
	for _, e := range d.Edges() {
		switch {
		case e.OldW == 0 && e.NewW != 0:
			ins = append(ins, e)
		case e.OldW != 0 && e.NewW == 0:
			rem = append(rem, e)
		}
	}
	rt.rfIns, rt.rfRem = ins, rem
	prev := rt.s

	// The refreshed arc→edge map cycles through rt's own buffers rather
	// than populating each epoch's snapshot cache; rt.arcEdge below
	// aliases it, which is safe because the previous map is never read
	// once a refresh begins.
	rt.rfArcEdge, rt.rfArcCursor = next.FillArcEdgeIDs(rt.rfArcEdge, rt.rfArcCursor)
	arcEdge := rt.rfArcEdge
	srcs := append(rt.rfSrcs[:0], rt.fifo...)
	rt.rfSrcs = srcs
	if cap(rt.rfChanged) < len(srcs) {
		rt.rfChanged = make([]bool, len(srcs))
		rt.rfRows = make([][]int32, len(srcs))
	}
	changed, rows := rt.rfChanged[:len(srcs)], rt.rfRows[:len(srcs)]
	w := par.Workers(workers)
	for len(rt.rfScratch) < w {
		rt.rfScratch = append(rt.rfScratch, nil)
	}
	rt.rfNext, rt.rfBudget = next, n+2*next.M()+4096
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
			rt.rfRows[i], rt.rfChanged[i] = repairTree(rt.s, rt.rfNext, rt.trees[src], src,
				rt.rfIns, rt.rfRem, sc, rt.rfBudget)
		}
	}
	par.ForEach(len(srcs), w, rt.rfBody)
	for i, src := range srcs {
		rt.trees[src] = rows[i]
		rows[i] = nil
	}

	rt.s = next
	rt.arcEdge = arcEdge
	rt.max = RoutingTreeBudget(n)

	// Memo policy: an entry survives exactly when its origin's tree is
	// cached and unchanged on pre-existing nodes — then the memoized
	// path (all of whose nodes predate the refresh) re-reads identically
	// from the repaired tree, modulo the edge-id renumbering applied
	// here. Entries of changed or evicted trees are dropped; a cold
	// rebuild would re-resolve them anyway. The renumbering costs a walk
	// of every old edge, so it is built only once an entry survives.
	if len(rt.changedStamp) < n {
		rt.changedStamp = append(rt.changedStamp, make([]int32, n-len(rt.changedStamp))...)
	}
	rt.changedRound++
	for i, src := range srcs {
		if changed[i] {
			rt.changedStamp[src] = rt.changedRound
		}
	}
	var oldToNew []int32
	for key, p := range rt.paths {
		src := int(key >> 32)
		if _, ok := rt.trees[src]; !ok || rt.changedStamp[src] == rt.changedRound {
			delete(rt.paths, key)
			continue
		}
		if oldToNew == nil {
			oldToNew = rt.remapEdges(prev, ins, rem)
		}
		drop := false
		for i, e := range p {
			ne := oldToNew[e]
			if ne < 0 {
				// Cannot happen for an unchanged tree — memoized path arcs
				// are tree arcs, and trees with a dead arc were flagged
				// changed above — but a dangling id must never survive
				// the remap.
				drop = true
				break
			}
			p[i] = ne
		}
		if drop {
			delete(rt.paths, key)
		}
	}
}

// remapEdges returns the refreshed id of every edge of prev, -1 for
// the removed ones. Edge ids follow (u,v)-sorted order, so a refresh
// shifts old id i up by the number of inserted edges sorting before it
// and down by the number of removed edges before it: one merged walk
// of the old edge list against the sorted delta.
func (rt *Routing) remapEdges(prev *graph.Snapshot, ins, rem []graph.DeltaEdge) []int32 {
	prevEdges := prev.AppendEdges(rt.rfEdges[:0])
	rt.rfEdges = prevEdges
	if cap(rt.rfOldToNew) < len(prevEdges) {
		rt.rfOldToNew = make([]int32, len(prevEdges))
	}
	oldToNew := rt.rfOldToNew[:len(prevEdges)]
	insAt, remAt := 0, 0
	for i, e := range prevEdges {
		for insAt < len(ins) && (int(ins[insAt].U) < e.U ||
			(int(ins[insAt].U) == e.U && int(ins[insAt].V) < e.V)) {
			insAt++
		}
		if remAt < len(rem) && int(rem[remAt].U) == e.U && int(rem[remAt].V) == e.V {
			oldToNew[i] = -1
			remAt++
			continue
		}
		oldToNew[i] = int32(i - remAt + insAt)
	}
	return oldToNew
}

// repairTree advances one cached distance row from prev to next under
// the delta's insertions ins and removals rem and returns the repaired
// row — always buildTree(next, src) — plus whether any node of prev
// changed its distance or its canonical parent (the memo invalidation
// signal).
//
// A removed arc orphans its deeper endpoint when it was that node's
// canonical parent in prev; an orphan is a change, and one left with no
// neighbor one hop closer in next forces a cold rebuild. Otherwise the
// insertions repair the row by relaxation (a cold rebuild past the
// work budget), and a node of prev changed exactly when some node of
// prev has an inserted arc as its canonical parent arc in next. That
// arc is new, so the parent changed. Conversely, the node of prev with
// the smallest repaired distance among those whose distance shrank
// reaches its canonical parent over an inserted arc: an old arc would
// have made it that close in prev already, and a closer shrunk node
// of prev would contradict the choice. With no distance moved, a
// parent reached over an old arc was a candidate in prev, and the old
// canonical parent, its arc intact, still is one, so the two agree.
func repairTree(prev, next *graph.Snapshot, dist []int32, src int, ins, rem []graph.DeltaEdge, sc *metrics.DistScratch, budget int) ([]int32, bool) {
	oldN := prev.N()
	for len(dist) < next.N() {
		dist = append(dist, -1)
	}
	_, _, prevNbr := prev.CSR()
	orphaned := false
	for _, e := range rem {
		v, p := int(e.U), int(e.V)
		if dist[p] == dist[v]+1 {
			v, p = p, v
		}
		if dist[v] != dist[p]+1 {
			continue // a same-level arc, or both ends unreachable
		}
		if arc := selectParent(prev, dist, v); arc < 0 || int(prevNbr[arc]) != p {
			continue // the canonical parent is a smaller-id neighbor, still there
		}
		orphaned = true
		if selectParent(next, dist, v) < 0 {
			return buildTreeInto(dist, next, src, sc.BFS()), true
		}
	}
	if _, ok := metrics.RelaxInserted(next, ins, dist, sc, budget); !ok {
		return buildTreeInto(dist, next, src, sc.BFS()), true
	}
	if orphaned {
		return dist, true
	}
	_, _, nbr := next.CSR()
	supplies := func(p, v int32) bool { // arc p→v is v's canonical parent arc
		return int(v) < oldN && dist[p] >= 0 && dist[v] == dist[p]+1 &&
			nbr[selectParent(next, dist, int(v))] == p
	}
	for _, e := range ins {
		if supplies(e.U, e.V) || supplies(e.V, e.U) {
			return dist, true
		}
	}
	return dist, false
}

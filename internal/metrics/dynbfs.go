package metrics

import (
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// This file is the incremental distance engine: RelaxDelta, the one
// repair of a per-source BFS distance row under the edges of a
// snapshot delta, and a dynamic-BFS structure (DistMap) that owns such
// rows and repairs them instead of re-running BFS per epoch. Removed
// arcs first isolate the nodes whose every shortest-path support chain
// died, which are re-settled from the surviving boundary; inserted arcs
// and the re-settled nodes then seed one shrink-only relaxation wave
// processed level by level. The repair touches only the nodes whose
// distance changed or lost its support, so its cost follows the
// delta's impact rather than n+m. Every repair carries a work budget
// and rolls the row back when the touched region rivals a cold BFS; the
// caller then rebuilds that row. The result is always exactly the cold
// build.
//
// On top of the repaired rows the DistMap maintains integer aggregates
// (the global path histogram plus per-node reach/distance-sum columns),
// so the per-epoch derivations RefreshPathLengths and
// RefreshMeanCloseness are O(diam) and O(n) reductions with no
// traversal at all.

// DistChange records one node touched by RelaxDelta: the node id and
// its distance before the repair (-1 for previously unreachable). The
// repaired value is read from the distance array itself; each node
// appears at most once, stamped at first touch.
type DistChange struct {
	Node, Old int32
}

// DistScratch is the reusable per-worker state of RelaxDelta: a
// round-stamped touch set, the level buckets of its waves, a
// candidate-dedupe set and the affected-node list of the removal
// phases, and hybrid-BFS state for rebuild fallbacks.
type DistScratch struct {
	stamp   []int32
	round   int32
	buckets [][]int32
	queue   []int32
	mark    []int32
	mround  int32
	bfs     *BFSScratch
	// changes is the arena RelaxDelta reports into: each call appends
	// its DistChange records here and returns the subslice it wrote, so
	// a warm scratch repairs without allocating. Subslices stay valid
	// when a later call grows the arena (the old backing array survives
	// under them); Reset truncates it once per refresh pass, after every
	// retained subslice has been consumed.
	changes []DistChange
}

// NewDistScratch allocates scratch for an n-node snapshot; ensure grows
// it as the trajectory adds nodes.
func NewDistScratch(n int) *DistScratch {
	return &DistScratch{stamp: make([]int32, n), queue: make([]int32, n), mark: make([]int32, n),
		bfs: NewBFSScratch(n)}
}

// BFS returns the scratch's hybrid-BFS state, for callers sharing the
// scratch (routing-tree repair) that fall back to cold traversals.
func (sc *DistScratch) BFS() *BFSScratch {
	if sc.bfs == nil {
		sc.bfs = NewBFSScratch(0)
	}
	return sc.bfs
}

// Reset truncates the change arena. Call it once per refresh pass,
// before the pass's first repair — never between a repair and the
// consumption of its returned changes, which alias the arena.
func (sc *DistScratch) Reset() { sc.changes = sc.changes[:0] }

func (sc *DistScratch) ensure(n int) {
	sc.stamp = growRow(sc.stamp, n, 0)
	sc.queue = growRow(sc.queue, n, 0)
	sc.mark = growRow(sc.mark, n, 0)
}

// RelaxDelta repairs one source's distance vector under a snapshot
// delta — the one distance-row repair, serving both DistMap and the
// routing trees of the traffic package. dist must hold the exact hop
// distances on the delta's base snapshot, grown to next.N() entries with
// -1 for new nodes; edges is the delta's edge list. The repair runs in
// three phases, all scanning next's rows (which already exclude the
// removed arcs); a delta without removals seeds no phase-1 candidate, so
// its repair is phase 3 alone:
//
//  1. Affected detection. The deeper endpoint of each removed arc is a
//     candidate, bucketed at its old distance and processed in
//     ascending order, so every verdict one level up is final: a
//     candidate at level d is affected iff no surviving neighbor holds
//     distance d-1 and is itself unaffected. Affected nodes cascade
//     candidacy to their old-level-d+1 neighbors. An unaffected node's
//     value is witnessed by an intact support chain, so it is already
//     exact and is never touched.
//  2. Re-settle. The affected set is re-settled by a multi-source
//     unit-weight bucket Dijkstra seeded from the surviving boundary
//     (tentative distance = min over unaffected neighbors + 1);
//     never-settled nodes become unreachable.
//  3. Shrink wave. Seeded from the inserted arcs plus every re-settled
//     node — a node whose new value arrived through an inserted arc
//     must get the chance to relax neighbors that kept their old
//     values — and processed in ascending distance order, so every
//     touched node settles at its exact distance.
//
// The final vector equals a cold BFSFrozen run on next. budget caps
// the neighbor-row scans across all phases; budget <= 0 selects the
// default n + 2m + 4096, about one cold BFS over next. On overrun
// RelaxDelta restores dist to its input values and returns ok ==
// false; the caller rebuilds the row from scratch. Otherwise changes
// reports one entry per touched node, stamped at first touch with the
// pre-repair value; the slice aliases the scratch's change arena and
// stays valid until the next DistScratch.Reset.
func RelaxDelta(next *graph.Snapshot, edges []graph.DeltaEdge, dist []int32, sc *DistScratch, budget int) (changes []DistChange, ok bool) {
	if budget <= 0 {
		budget = next.N() + 2*next.M() + 4096
	}
	sc.ensure(len(dist))
	sc.round++
	round := sc.round
	start := len(sc.changes)
	touch := func(v int32) {
		if sc.stamp[v] != round {
			sc.stamp[v] = round
			sc.changes = append(sc.changes, DistChange{Node: v, Old: dist[v]})
		}
	}
	abort := func() ([]DistChange, bool) {
		for i := range sc.buckets {
			sc.buckets[i] = sc.buckets[i][:0]
		}
		for _, c := range sc.changes[start:] {
			dist[c.Node] = c.Old
		}
		sc.changes = sc.changes[:start]
		return nil, false
	}
	lo, hi := int32(1<<30), int32(-1)
	push := func(v, d int32) {
		for int(d) >= len(sc.buckets) {
			sc.buckets = append(sc.buckets, nil)
		}
		sc.buckets[d] = append(sc.buckets[d], v)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	spent := 0

	// Phase 1: find the affected set. Affected nodes are marked with the
	// in-repair distance -2, which excludes them from later support
	// checks without a second marker array.
	sc.mround++
	mr := sc.mround
	aff := sc.queue[:0]
	cand := func(v int32) {
		if sc.mark[v] == mr || dist[v] <= 0 {
			return
		}
		sc.mark[v] = mr
		push(v, dist[v])
	}
	for _, e := range edges {
		if e.OldW == 0 || e.NewW != 0 {
			continue // insertion or reweight: no arc disappeared
		}
		du, dv := dist[e.U], dist[e.V]
		if du >= 0 && dv == du+1 {
			cand(e.V)
		}
		if dv >= 0 && du == dv+1 {
			cand(e.U)
		}
	}
	for d := lo; d <= hi; d++ {
		for _, v := range sc.buckets[d] {
			row := next.Neighbors(int(v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			supported := false
			for _, w := range row {
				if dist[w] == d-1 {
					supported = true
					break
				}
			}
			if supported {
				continue
			}
			touch(v)
			dist[v] = -2
			aff = append(aff, v)
			for _, w := range row {
				if dist[w] == d+1 {
					cand(w)
				}
			}
		}
		sc.buckets[d] = sc.buckets[d][:0]
	}

	// Phase 2: re-settle the affected set from the surviving boundary.
	lo, hi = 1<<30, -1
	for _, x := range aff {
		row := next.Neighbors(int(x))
		spent += len(row) + 1
		if spent > budget {
			return abort()
		}
		tent := int32(-1)
		for _, w := range row {
			if dw := dist[w]; dw >= 0 && (tent < 0 || dw+1 < tent) {
				tent = dw + 1
			}
		}
		if tent >= 0 {
			push(x, tent)
		}
	}
	for d := lo; d <= hi; d++ {
		for _, v := range sc.buckets[d] {
			if dist[v] != -2 {
				continue // settled at a lower level; stale entry
			}
			row := next.Neighbors(int(v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			dist[v] = d
			for _, w := range row {
				if dist[w] == -2 {
					push(w, d+1)
				}
			}
		}
		sc.buckets[d] = sc.buckets[d][:0]
	}

	// Phase 3: the shrink wave, seeded from re-settled nodes and
	// inserted arcs. Never-settled affected nodes become unreachable
	// first so the wave's dw < 0 test treats them like any other
	// unreached node. Relaxations at level d only push level d+1, so a
	// node popped at its current distance is final; entries superseded
	// by a shallower relaxation are skipped stale.
	lo, hi = 1<<30, -1
	relax := func(v, dv int32) {
		touch(v)
		dist[v] = dv
		push(v, dv)
	}
	for _, x := range aff {
		if dist[x] == -2 {
			dist[x] = -1
			continue
		}
		push(x, dist[x])
	}
	for _, e := range edges {
		if e.OldW != 0 || e.NewW == 0 {
			continue // removal or multiplicity change: not a new arc
		}
		if du := dist[e.U]; du >= 0 && (dist[e.V] < 0 || dist[e.V] > du+1) {
			relax(e.V, du+1)
		}
		if dv := dist[e.V]; dv >= 0 && (dist[e.U] < 0 || dist[e.U] > dv+1) {
			relax(e.U, dv+1)
		}
	}
	for d := lo; d <= hi; d++ {
		for _, v := range sc.buckets[d] {
			if dist[v] != d {
				continue
			}
			row := next.Neighbors(int(v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			nd := d + 1
			for _, w := range row {
				if dw := dist[w]; dw < 0 || dw > nd {
					relax(w, nd)
				}
			}
		}
		sc.buckets[d] = sc.buckets[d][:0]
	}
	return sc.changes[start:], true
}

// DistMap owns the per-source BFS distance rows of a snapshot plus the
// integer aggregates derived from them, and repairs both across
// snapshot deltas. Exact mode (nil sources) keeps one row per node and
// reproduces the full-traversal path metrics bit for bit; sampled mode
// keeps a fixed pivot set (PivotSources) and estimates closeness and
// betweenness from the pivot columns, so refresh cost scales with the
// pivot count instead of n.
type DistMap struct {
	s       *graph.Snapshot
	exact   bool
	sources []int32
	dist    [][]int32

	// Aggregates maintained under repair: the global distance histogram
	// over (source, node) pairs, and per node the number of sources
	// reaching it plus the summed distance — by undirected symmetry, in
	// exact mode these are each node's own BFS reach and distance sum.
	hist  PathHistogram
	reach []int32
	sumd  []int64

	// maxScan is RelaxDelta's budget; zero selects its default, a
	// positive cap is the test hook for forcing the rebuild fallback.
	maxScan int

	// Refresh scratch, persisted across epochs so a steady-state repair
	// allocates nothing: one DistScratch per worker slot, the
	// per-source repair results of the parallel phase, and the repair
	// closure itself — created once, re-reading its per-call parameters
	// (rfDes and the map's own fields) rather than capturing call
	// locals, so no closure literal is allocated per Refresh.
	scratch []*DistScratch
	repairs []distRepair
	rfDes   []graph.DeltaEdge
	rfBody  func(worker, i int)
}

// distRepair is one source's outcome of a Refresh parallel phase:
// either a wave repair's aggregate patch list, or a rebuilt row — the
// old one to retract (nil for new sources) and the new one to fold in.
type distRepair struct {
	changes []DistChange
	old, nd []int32
}

// NewDistMap builds the distance rows of s from scratch. A nil sources
// slice selects exact mode: one row per node, growing with the graph
// across refreshes. A non-nil slice fixes that pivot set for the life
// of the map (the slice is copied).
func NewDistMap(s *graph.Snapshot, sources []int32, workers int) *DistMap {
	dm := &DistMap{s: s, exact: sources == nil}
	if !dm.exact {
		dm.sources = append([]int32(nil), sources...)
	}
	dm.rebase(workers)
	return dm
}

// Snapshot returns the snapshot the rows currently describe.
func (dm *DistMap) Snapshot() *graph.Snapshot { return dm.s }

// SourceCount returns the number of BFS sources maintained.
func (dm *DistMap) SourceCount() int { return len(dm.sources) }

// Sources returns the maintained source ids; the slice aliases the map
// and must not be modified.
func (dm *DistMap) Sources() []int32 { return dm.sources }

// Dist returns source i's distance row; read-only.
func (dm *DistMap) Dist(i int) []int32 { return dm.dist[i] }

// rebase rebuilds every row and aggregate over dm.s from scratch; exact
// mode re-enumerates the sources to cover new nodes.
func (dm *DistMap) rebase(workers int) {
	n := dm.s.N()
	if dm.exact {
		dm.sources = dm.sources[:0]
		for v := 0; v < n; v++ {
			dm.sources = append(dm.sources, int32(v))
		}
	}
	k := len(dm.sources)
	dm.dist = make([][]int32, k)
	w := par.Workers(workers)
	scratch := make([]*BFSScratch, w)
	par.ForEach(k, w, func(worker, i int) {
		if scratch[worker] == nil {
			scratch[worker] = NewBFSScratch(n)
		}
		d := make([]int32, n)
		BFSHybrid(dm.s, int(dm.sources[i]), d, scratch[worker])
		dm.dist[i] = d
	})
	dm.hist = PathHistogram{}
	dm.reach = make([]int32, n)
	dm.sumd = make([]int64, n)
	for i, src := range dm.sources {
		dm.accumulate(src, dm.dist[i], +1)
	}
}

// accumulate folds one source row into (sign > 0) or out of (sign < 0)
// the aggregates, the integer mirror of PathHistogram.AccumulateDistances.
func (dm *DistMap) accumulate(src int32, dist []int32, sign int) {
	for v, d := range dist {
		if int32(v) == src || d <= 0 {
			continue
		}
		if sign > 0 {
			dm.hist.add(d)
			dm.reach[v]++
			dm.sumd[v] += int64(d)
		} else {
			dm.hist.sub(d)
			dm.reach[v]--
			dm.sumd[v] -= int64(d)
		}
	}
}

// add and sub maintain a PathHistogram one distance at a time, with the
// same growth idiom as AccumulateDistances so merged and incremental
// histograms are interchangeable.
func (h *PathHistogram) add(d int32) {
	for int(d) >= len(h.Counts) {
		h.Counts = append(h.Counts, make([]int64, len(h.Counts)+8)...)
	}
	h.Counts[d]++
	h.Sum += int64(d)
	h.Total++
}

func (h *PathHistogram) sub(d int32) {
	h.Counts[d]--
	h.Sum -= int64(d)
	h.Total--
}

// Refresh repairs the map in place so it describes next, the refreshed
// successor of the map's current snapshot with delta d between them.
// Each source's row is repaired independently (in parallel across
// sources, merged in source order, so the result is identical at every
// worker count) by RelaxDelta; exact mode gains rows for the new nodes.
// Rows whose repair exceeds RelaxDelta's budget are rebuilt from
// scratch, as is the whole map when d is nil (full refreeze) or has a
// foreign base version. In every case the resulting rows and aggregates are exactly
// those of a cold NewDistMap over next with the same sources. Refresh
// consumes the previous state; the map never describes two snapshots at
// once.
func (dm *DistMap) Refresh(next *graph.Snapshot, d *graph.Delta, workers int) {
	if next == nil {
		return
	}
	rebuild := d == nil || d.BaseVersion() != dm.s.Version()
	if rebuild {
		dm.s = next
		dm.rebase(workers)
		return
	}
	oldN, n := dm.s.N(), next.N()
	dm.s = next
	dm.reach = growRow(dm.reach, n, 0)
	dm.sumd = growRow(dm.sumd, n, 0)
	if dm.exact {
		for v := oldN; v < n; v++ {
			dm.sources = append(dm.sources, int32(v))
			dm.dist = append(dm.dist, nil)
		}
	}
	w := par.Workers(workers)
	for len(dm.scratch) < w {
		dm.scratch = append(dm.scratch, nil)
	}
	for _, sc := range dm.scratch[:w] {
		if sc != nil {
			sc.Reset() // last epoch's change subslices are long consumed
		}
	}
	if cap(dm.repairs) < len(dm.sources) {
		dm.repairs = make([]distRepair, len(dm.sources))
	}
	results := dm.repairs[:len(dm.sources)]
	for i := range results {
		results[i] = distRepair{}
	}
	dm.rfDes = d.Edges()
	if dm.rfBody == nil {
		dm.rfBody = func(worker, i int) {
			next, n := dm.s, dm.s.N()
			sc := dm.scratch[worker]
			if sc == nil {
				sc = NewDistScratch(n)
				dm.scratch[worker] = sc
			}
			sc.ensure(n)
			old := dm.dist[i]
			if old == nil { // new source: cold build, nothing to retract
				nd := make([]int32, n)
				BFSHybrid(next, int(dm.sources[i]), nd, sc.BFS())
				dm.repairs[i] = distRepair{nd: nd}
				return
			}
			dist := growRow(old, n, -1)
			dm.dist[i] = dist
			changes, ok := RelaxDelta(next, dm.rfDes, dist, sc, dm.maxScan)
			if !ok {
				nd := make([]int32, n)
				BFSHybrid(next, int(dm.sources[i]), nd, sc.BFS())
				dm.repairs[i] = distRepair{old: dist, nd: nd}
				return
			}
			dm.repairs[i] = distRepair{changes: changes}
		}
	}
	par.ForEach(len(dm.sources), w, dm.rfBody)
	// Sequential merge in source order: integer aggregate patches, so
	// the outcome is order-free anyway — the fixed order documents the
	// determinism contract rather than carrying it.
	for i := range results {
		r := &results[i]
		if r.nd != nil {
			if r.old != nil {
				dm.accumulate(dm.sources[i], r.old, -1)
			}
			dm.accumulate(dm.sources[i], r.nd, +1)
			dm.dist[i] = r.nd
			continue
		}
		dist := dm.dist[i]
		for _, c := range r.changes {
			if c.Old > 0 {
				dm.hist.sub(c.Old)
				dm.reach[c.Node]--
				dm.sumd[c.Node] -= int64(c.Old)
			}
			if nd := dist[c.Node]; nd > 0 {
				dm.hist.add(nd)
				dm.reach[c.Node]++
				dm.sumd[c.Node] += int64(nd)
			}
		}
	}
}

// RefreshPathLengths reduces the map's maintained histogram to
// PathStats. In exact mode the result is bit-identical to
// PathLengthsFrozen over the same snapshot with all sources; in sampled
// mode it is the same estimator PathLengthsFrozen computes for the
// map's pivot set.
func RefreshPathLengths(dm *DistMap) PathStats {
	return dm.hist.ToStats(len(dm.sources))
}

// RefreshMeanCloseness is the mean over all n nodes of the
// Wasserman-Faust closeness derived from the map's per-node reach and
// distance-sum columns, reduced without building the closeness vector.
// In exact mode the undirected symmetry d(u,v) = d(v,u) makes each
// node's column equal its own BFS row, so every term is that row's
// closeness; in sampled mode reach is rescaled by n/k, the standard
// pivot estimate. The terms are summed in node order and each is
// rounded to float64 before the sum, so no fused multiply-add can move
// a bit: the result equals summing the per-node closeness vector in
// order and dividing by n.
func RefreshMeanCloseness(dm *DistMap) float64 {
	n := dm.s.N()
	k := len(dm.sources)
	total := 0.0
	for v := 0; v < n; v++ {
		sum, reach := dm.sumd[v], dm.reach[v]
		if sum == 0 {
			continue // closeness 0: adding it leaves the sum unchanged
		}
		scaled := float64(reach)
		if !dm.exact {
			scaled = float64(reach) * float64(n) / float64(k)
		}
		total += float64(float64(reach) / float64(sum) * scaled / float64(n-1))
	}
	return total / float64(n)
}

// PivotSources draws the k-pivot source set of a sampled DistMap with
// the same selection as PathSources, so sampled
// trajectory metrics and their frozen counterparts pick identical
// pivots for a given generator state. k <= 0 or k >= n returns nil,
// the exact-mode marker.
func PivotSources(r *rng.Rand, n, k int) []int32 {
	if k <= 0 || k >= n {
		return nil
	}
	perm := r.Perm(n)
	out := make([]int32, k)
	for i := range out {
		out[i] = int32(perm[i])
	}
	return out
}

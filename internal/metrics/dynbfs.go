package metrics

import (
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// This file is the incremental distance engine: a dynamic-BFS structure
// (DistMap) that owns per-source distance vectors and repairs them
// under the edges of a snapshot delta instead of re-running BFS per
// epoch. Growth deltas only ever shrink distances, so each inserted
// edge seeds a shrink-only relaxation wave processed level by level;
// the wave touches exactly the nodes whose distance changed, making
// the repair cost proportional to the delta's impact rather than n+m.
// Mixed deltas (failure epochs remove arcs too) take RelaxDelta, which
// first isolates the nodes whose every shortest-path support chain
// died, re-settles them from the surviving boundary, then runs the
// same shrink wave. Every repair carries a work budget and falls back
// to a full per-source rebuild when the touched region rivals a cold
// BFS — the result is always exactly the cold build.
//
// On top of the repaired rows the DistMap maintains integer aggregates
// (the global path histogram plus per-node reach/distance-sum columns),
// so the per-epoch derivations RefreshPathLengths and RefreshCloseness
// are O(n) reductions with no traversal at all.

// DistChange records one node touched by RelaxInserted: the node id and
// its distance before the repair (-1 for previously unreachable). The
// repaired value is read from the distance array itself. Restoring Old
// into dist for every change rolls the repair back exactly — each node
// appears at most once, stamped at first touch.
type DistChange struct {
	Node, Old int32
}

// DistScratch is the reusable per-worker state of RelaxInserted and
// RelaxDelta: a round-stamped touch set, the level buckets of the
// relaxation waves, a candidate-dedupe set and the affected-node list
// of the removal phase, and hybrid-BFS state for rebuild fallbacks.
type DistScratch struct {
	stamp   []int32
	round   int32
	buckets [][]int32
	queue   []int32
	mark    []int32
	mround  int32
	bfs     *BFSScratch
	// changes is the arena the relaxation kernels report into: each
	// RelaxInserted/RelaxDelta call appends its DistChange records here
	// and returns the subslice it wrote, so a warm scratch repairs
	// without allocating. Subslices stay valid when a later call grows
	// the arena (the old backing array survives under them); Reset
	// truncates it once per refresh pass, after every retained subslice
	// has been consumed.
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
	if len(sc.stamp) < n {
		sc.stamp = append(sc.stamp, make([]int32, n-len(sc.stamp))...)
	}
	if len(sc.queue) < n {
		sc.queue = append(sc.queue, make([]int32, n-len(sc.queue))...)
	}
	if len(sc.mark) < n {
		sc.mark = append(sc.mark, make([]int32, n-len(sc.mark))...)
	}
}

// RelaxInserted repairs one source's distance vector under the
// insertions of a growth delta. dist must hold the exact hop distances
// on the delta's base snapshot, grown to next.N() entries with -1 for
// the new nodes; ins is the delta's edge list (non-insertions are
// skipped). Each insertion whose endpoints' distances disagree by more
// than one seeds a shrink-only relaxation, and the wave is processed in
// ascending distance order, so every touched node settles at its exact
// distance on next — the final vector equals a cold BFSFrozen run.
//
// budget caps the neighbor-row scans of the wave. When exceeded,
// RelaxInserted abandons the repair and returns ok == false with the
// changes recorded so far; the caller must restore their Old values and
// rebuild from scratch. Changes are reported one per touched node, in
// first-touch order; the returned slice aliases the scratch's change
// arena and stays valid until the next DistScratch.Reset.
func RelaxInserted(next *graph.Snapshot, ins []graph.DeltaEdge, dist []int32, sc *DistScratch, budget int) (changes []DistChange, ok bool) {
	sc.ensure(len(dist))
	sc.round++
	start := len(sc.changes)
	lo, hi := int32(1<<30), int32(-1)
	relax := func(v, dv int32) {
		if sc.stamp[v] != sc.round {
			sc.stamp[v] = sc.round
			sc.changes = append(sc.changes, DistChange{Node: v, Old: dist[v]})
		}
		dist[v] = dv
		for int(dv) >= len(sc.buckets) {
			sc.buckets = append(sc.buckets, nil)
		}
		sc.buckets[dv] = append(sc.buckets[dv], v)
		if dv < lo {
			lo = dv
		}
		if dv > hi {
			hi = dv
		}
	}
	for _, e := range ins {
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
	// Process levels in ascending order: relaxations at level d only
	// push level d+1, so when a node is popped at its current distance
	// that distance is final. Entries superseded by a deeper relaxation
	// are skipped stale.
	spent := 0
	for d := lo; d <= hi; d++ {
		bucket := sc.buckets[d]
		for _, v := range bucket {
			if dist[v] != d {
				continue
			}
			row := next.Neighbors(int(v))
			spent += len(row) + 1
			if spent > budget {
				for x := d; x <= hi; x++ {
					sc.buckets[x] = sc.buckets[x][:0]
				}
				return sc.changes[start:], false
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

// RelaxDelta repairs one source's distance vector under a mixed
// insert+remove delta; pure-insertion deltas delegate to RelaxInserted
// unchanged. dist must hold the exact hop distances on the delta's base
// snapshot, grown to next.N() entries with -1 for new nodes. The repair
// runs in three phases, all scanning next's rows (which already exclude
// the removed arcs):
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
//  3. Shrink wave. The insertion wave of RelaxInserted, seeded from
//     the inserted arcs plus every re-settled node — a node whose new
//     value arrived through an inserted arc must get the chance to
//     relax neighbors that kept their old values.
//
// The final vector equals a cold BFSFrozen run on next. budget caps
// the neighbor-row scans across all phases; on overrun RelaxDelta
// returns ok == false and the caller must restore the recorded Old
// values (the vector holds internal markers until then) and rebuild
// from scratch. Changes are reported one per touched node, stamped at
// first touch with the pre-repair value; the returned slice aliases
// the scratch's change arena and stays valid until the next
// DistScratch.Reset.
func RelaxDelta(next *graph.Snapshot, edges []graph.DeltaEdge, dist []int32, sc *DistScratch, budget int) (changes []DistChange, ok bool) {
	hasRemoval := false
	for _, e := range edges {
		if e.OldW != 0 && e.NewW == 0 {
			hasRemoval = true
			break
		}
	}
	if !hasRemoval {
		return RelaxInserted(next, edges, dist, sc, budget)
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
		return sc.changes[start:], false
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
	// unreached node.
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

	// maxScan overrides the repair budget when positive (test hook for
	// forcing the rebuild fallback).
	maxScan int

	// Refresh scratch, persisted across epochs so a steady-state repair
	// allocates nothing: one DistScratch per worker slot, the
	// per-source repair results of the parallel phase, and the repair
	// closure itself — created once, re-reading its per-call parameters
	// (rfDes, rfBudget and the map's own fields) rather than capturing
	// call locals, so no closure literal is allocated per Refresh.
	scratch  []*DistScratch
	repairs  []distRepair
	rfDes    []graph.DeltaEdge
	rfBudget int
	rfBody   func(worker, i int)
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

// NewDistMapSampled builds a DistMap over k uniformly drawn pivot
// sources (exact mode when k <= 0 or k >= s.N(), mirroring the
// PathSources convention).
func NewDistMapSampled(s *graph.Snapshot, r *rng.Rand, k, workers int) *DistMap {
	return NewDistMap(s, PivotSources(r, s.N(), k), workers)
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
// worker count); exact mode gains rows for the new nodes. Insertion-only
// deltas ride the shrink wave; mixed deltas with removals take the
// three-phase RelaxDelta repair. Rows whose repair exceeds the budget —
// n + 2m + 4096 row scans, one cold BFS — are rebuilt from scratch, as
// is the whole map when d is nil (full refreeze) or has a foreign base
// version. In every case the resulting rows and aggregates are exactly
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
	dm.reach = append(dm.reach, make([]int32, n-oldN)...)
	dm.sumd = append(dm.sumd, make([]int64, n-oldN)...)
	if dm.exact {
		for v := oldN; v < n; v++ {
			dm.sources = append(dm.sources, int32(v))
			dm.dist = append(dm.dist, nil)
		}
	}
	budget := dm.maxScan
	if budget <= 0 {
		budget = n + 2*next.M() + 4096
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
	dm.rfDes, dm.rfBudget = d.Edges(), budget
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
			dist := growDist(old, n)
			dm.dist[i] = dist
			changes, ok := RelaxDelta(next, dm.rfDes, dist, sc, dm.rfBudget)
			if !ok {
				for _, c := range changes {
					dist[c.Node] = c.Old
				}
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

// growDist pads a distance row with -1 entries up to n nodes.
func growDist(dist []int32, n int) []int32 {
	for len(dist) < n {
		dist = append(dist, -1)
	}
	return dist
}

// RefreshPathLengths reduces the map's maintained histogram to
// PathStats. In exact mode the result is bit-identical to
// PathLengthsFrozen over the same snapshot with all sources; in sampled
// mode it is the same estimator PathLengthsFrozen computes for the
// map's pivot set.
func RefreshPathLengths(dm *DistMap) PathStats {
	return dm.hist.ToStats(len(dm.sources))
}

// RefreshCloseness derives Wasserman-Faust closeness from the map's
// per-node reach and distance-sum columns. In exact mode the undirected
// symmetry d(u,v) = d(v,u) makes each node's column equal its own BFS
// row, and the expression matches ClosenessOfDist term for term, so the
// result is bit-identical to ClosenessFrozen. In sampled mode reach is
// rescaled by n/k, the standard pivot estimate.
func RefreshCloseness(dm *DistMap) []float64 {
	n := dm.s.N()
	k := len(dm.sources)
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		sum, reach := dm.sumd[v], dm.reach[v]
		if sum == 0 {
			continue
		}
		scaled := float64(reach)
		if !dm.exact {
			scaled = float64(reach) * float64(n) / float64(k)
		}
		out[v] = float64(reach) / float64(sum) * scaled / float64(n-1)
	}
	return out
}

// PivotSources draws the k-pivot source set of a sampled DistMap with
// the same selection as PathSources and BetweennessSources, so sampled
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

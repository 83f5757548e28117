package metrics

import (
	"math/bits"

	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// This file is the incremental distance engine: RelaxDelta, the
// repair of one per-source BFS distance row under the edges of a
// snapshot delta, and a dynamic-BFS structure (DistMap) that owns many
// such rows and repairs them instead of re-running BFS per epoch.
// Removed arcs first isolate the nodes whose every shortest-path
// support chain died, which are re-settled from the surviving
// boundary; inserted arcs and the re-settled nodes then seed one
// shrink-only relaxation wave processed level by level. The repair
// touches only the nodes whose distance changed or lost its support,
// so its cost follows the delta's impact rather than n+m. Every repair
// carries a work budget and rolls its rows back when the touched region
// rivals a cold build; the caller then rebuilds them. The result is
// always exactly the cold build.
//
// RelaxDelta keeps one row as a plain []int32; the routing trees of the
// traffic package repair through it, and it is the test oracle of the
// DistMap's kernel. The DistMap stores its rows node-major in blocks of
// 64 lanes, one lane per source (distBlock, a list of fixed 256 KiB
// pages, so growth appends pages and never copies), and repairs a
// block's lanes together with repairLanes: RelaxDelta's three phases
// over (node, lane mask) bucket entries, so one read of a node's entry
// and one scan of its neighbor row serve every lane pushed for it at
// that level. Refresh runs one task per (block, lane range), splitting
// a block into ranges when there are fewer blocks than workers; cold
// builds, new exact-mode sources and budget fallbacks fill lanes with
// the level-writing MS-BFS of msbfs.go (fillLanes).
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

// The distance rows of a DistMap live node-major in blocks of 64
// lanes, one lane per source: blk.at(v)[l] is the hop distance from
// the block's source l to node v (-1 if unreachable). A block is a
// list of fixed-size pages of distPageNodes nodes × 64 lanes of int32
// (256 KiB), so a growing snapshot appends pages and never copies a
// row. Entries of nodes past the snapshot and of lanes past the
// block's last source read -1. The layout is the one msbfs.go
// traverses: one node's 64 lanes share four cache lines, so a repair
// reads each node it visits once for all the block's sources.
const (
	distPageShift = 10
	distPageNodes = 1 << distPageShift
)

// distLanes is one node's entry of a block.
type distLanes [msbfsLanes]int32

// distPage holds the entries of distPageNodes consecutive nodes.
type distPage [distPageNodes]distLanes

// unreachedLanes is the fill of a fresh page entry.
var unreachedLanes = func() (l distLanes) {
	for i := range l {
		l[i] = -1
	}
	return l
}()

// distBlock is one block of up to 64 distance rows.
type distBlock struct {
	pages []*distPage
}

// at returns node v's entry: its distance from each of the block's
// sources, lane by lane.
func (b *distBlock) at(v int32) *distLanes {
	return &b.pages[v>>distPageShift][v&(distPageNodes-1)]
}

// grow appends fresh pages until the block covers n nodes.
func (b *distBlock) grow(n int) {
	for len(b.pages)<<distPageShift < n {
		p := new(distPage)
		p.reset()
		b.pages = append(b.pages, p)
	}
}

// reset sets every entry of the page to -1.
func (p *distPage) reset() {
	for i := range p {
		p[i] = unreachedLanes
	}
}

// laneRange is the mask of lanes lo up to hi-1, hi capped at 64.
func laneRange(lo, hi int) uint64 {
	hi = min(hi, msbfsLanes)
	if hi <= lo {
		return 0
	}
	return ^uint64(0) >> (msbfsLanes - (hi - lo)) << lo
}

// laneEntry is a bucket entry of the lane kernel: a node and the lanes
// it was pushed for at the bucket's level.
type laneEntry struct {
	v int32
	m uint64
}

// laneChange records one change of a node's entry by a Refresh task:
// the lanes m it changed, of which the lanes had held a distance >= 1
// before, their values kept in lane order in the scratch's olds arena
// from off on. The other lanes of m held -1 (a source's own lane holds
// 0 and never changes). The records are the rollback of an overrun
// and, once the task's lanes are final, the input of summarize.
type laneChange struct {
	v, off int32
	m, had uint64
}

// laneScratch is the reusable per-worker state of the lane kernel:
// round-stamped per-node lane masks for the entries touched and the
// phase-1 candidates of the current task, the bucket key and slot of
// each node's last push (so pushes coalesce per level), the level
// buckets, pushAt's per-level lane masks, the affected list, the
// current task's change records, the patches and histogram difference
// of every task the worker ran in this Refresh, and the MS-BFS state
// of lane builds.
type laneScratch struct {
	task, phase     int32
	touched, marked []uint64
	tstamp, mstamp  []int32
	pkey            []int64
	pslot           []int32
	buckets         [][]laneEntry
	lo, hi          int32
	byLevel         []uint64
	levels          []int32
	aff             []laneEntry
	changes         []laneChange
	olds            []int32
	patches         []nodePatch
	hist            PathHistogram
	ms              MSBFSScratch
}

func (ls *laneScratch) ensure(n int) {
	ls.touched = growRow(ls.touched, n, 0)
	ls.marked = growRow(ls.marked, n, 0)
	ls.tstamp = growRow(ls.tstamp, n, 0)
	ls.mstamp = growRow(ls.mstamp, n, 0)
	ls.pkey = growRow(ls.pkey, n, 0)
	ls.pslot = growRow(ls.pslot, n, 0)
}

// push queues lanes m of node v at level d, ORed into v's entry when
// v's last push of this phase went to the same level.
func (ls *laneScratch) push(v int32, m uint64, d int32) {
	key := int64(ls.phase)<<32 | int64(d)
	if ls.pkey[v] == key {
		ls.buckets[d][ls.pslot[v]].m |= m
		return
	}
	for int(d) >= len(ls.buckets) {
		ls.buckets = append(ls.buckets, nil)
	}
	ls.pkey[v] = key
	ls.pslot[v] = int32(len(ls.buckets[d]))
	ls.buckets[d] = append(ls.buckets[d], laneEntry{v: v, m: m})
	ls.lo = min(ls.lo, d)
	ls.hi = max(ls.hi, d)
}

// pushAt queues lanes m of node v each at the level its entry p holds,
// one push per distinct level.
func (ls *laneScratch) pushAt(v int32, m uint64, p *distLanes) {
	levels := ls.levels[:0]
	for r := m; r != 0; r &= r - 1 {
		d := p[lowLane(r)]
		for int(d) >= len(ls.byLevel) {
			ls.byLevel = append(ls.byLevel, 0)
		}
		if ls.byLevel[d] == 0 {
			levels = append(levels, d)
		}
		ls.byLevel[d] |= r & -r
	}
	for _, d := range levels {
		ls.push(v, ls.byLevel[d], d)
		ls.byLevel[d] = 0
	}
	ls.levels = levels
}

// touch records the current values of the lanes in m of node v, entry
// p, that the task has not changed yet. Call it before the change.
func (ls *laneScratch) touch(v int32, m uint64, p *distLanes) {
	if ls.tstamp[v] != ls.task {
		ls.tstamp[v] = ls.task
		ls.touched[v] = 0
	}
	if fresh := m &^ ls.touched[v]; fresh != 0 {
		ls.touched[v] |= fresh
		ls.record(v, fresh, p)
	}
}

// record appends the change of lanes m of node v, entry p, before it
// is made.
func (ls *laneScratch) record(v int32, m uint64, p *distLanes) {
	c := laneChange{v: v, off: int32(len(ls.olds)), m: m}
	for r := m; r != 0; r &= r - 1 {
		if d := p[lowLane(r)]; d > 0 {
			c.had |= r & -r
			ls.olds = append(ls.olds, d)
		}
	}
	ls.changes = append(ls.changes, c)
}

// restore writes back the values of lanes m before change c into p.
func (ls *laneScratch) restore(c laneChange, p *distLanes) {
	k := c.off
	for r := c.m; r != 0; r &= r - 1 {
		if c.had&(r&-r) != 0 {
			p[lowLane(r)] = ls.olds[k]
			k++
		} else {
			p[lowLane(r)] = -1
		}
	}
}

// candidates queues the lanes in m of node v, entry p, that are not
// candidates of phase 1 yet, at their current levels.
func (ls *laneScratch) candidates(v int32, m uint64, p *distLanes) {
	if ls.mstamp[v] != ls.task {
		ls.mstamp[v] = ls.task
		ls.marked[v] = 0
	}
	if m &^= ls.marked[v]; m != 0 {
		ls.marked[v] |= m
		ls.pushAt(v, m, p)
	}
}

// beginPhase starts a bucket pass: pushes coalesce only within it.
func (ls *laneScratch) beginPhase() {
	ls.phase++
	ls.lo, ls.hi = 1<<30, -1
}

// lowLane returns the lowest lane of a non-empty mask.
func lowLane(m uint64) int { return bits.TrailingZeros64(m) & (msbfsLanes - 1) }

// lanesEq returns the lanes of m whose entry in p equals d.
func lanesEq(p *distLanes, m uint64, d int32) (eq uint64) {
	for ; m != 0; m &= m - 1 {
		if p[lowLane(m)] == d {
			eq |= m & -m
		}
	}
	return eq
}

// lanesAbove returns the lanes of m whose entry in p is unreachable or
// deeper than d >= 0: the lanes a relaxation to d improves.
func lanesAbove(p *distLanes, m uint64, d int32) (above uint64) {
	for ; m != 0; m &= m - 1 {
		if uint32(p[lowLane(m)]) > uint32(d) {
			above |= m & -m
		}
	}
	return above
}

// set writes d into the lanes m of entry p.
func (p *distLanes) set(m uint64, d int32) {
	for ; m != 0; m &= m - 1 {
		p[lowLane(m)] = d
	}
}

// repairLanes is RelaxDelta over the lanes in mask of blk: the same
// three phases, each lane's steps those of RelaxDelta on that lane's
// row, run together for every lane of the mask. Candidate scans read
// the two endpoint entries of a delta edge once for all lanes; a
// bucket entry carries the lanes pushed for its node at its level;
// affected detection, re-settle and the shrink wave scan a node's
// neighbor row once per entry and test only the entry's lanes. One
// step is pruned: the shrink wave never queues a node of degree one,
// whose only neighbor is the node that just relaxed it and which it
// cannot improve.
// budget caps the row scans of the whole task, each counted once
// however many lanes it serves. Changed entries are recorded in the
// change records (touch). On overrun the lanes come back exactly as
// they went in, the task's records are dropped, and repairLanes
// returns false.
func (ls *laneScratch) repairLanes(next *graph.Snapshot, edges []graph.DeltaEdge, blk *distBlock, mask uint64, budget int) bool {
	ls.ensure(next.N())
	ls.task++
	start, oldsStart := len(ls.changes), len(ls.olds)
	spent := 0
	aff := ls.aff[:0]
	defer func() { ls.aff = aff[:0] }()
	abort := func() bool {
		for i := range ls.buckets {
			ls.buckets[i] = ls.buckets[i][:0]
		}
		for _, c := range ls.changes[start:] {
			ls.restore(c, blk.at(c.v))
		}
		ls.changes, ls.olds = ls.changes[:start], ls.olds[:oldsStart]
		return false
	}

	// Phase 1: affected detection. Affected lanes hold the in-repair
	// marker -2, as in RelaxDelta.
	ls.beginPhase()
	for _, e := range edges {
		if e.OldW == 0 || e.NewW != 0 {
			continue // insertion or reweight: no arc disappeared
		}
		pu, pv := blk.at(e.U), blk.at(e.V)
		var cu, cv uint64
		for m := mask; m != 0; m &= m - 1 {
			l := lowLane(m)
			du, dv := pu[l], pv[l]
			if du >= 0 && dv == du+1 {
				cv |= m & -m
			}
			if dv >= 0 && du == dv+1 {
				cu |= m & -m
			}
		}
		ls.candidates(e.V, cv, pv)
		ls.candidates(e.U, cu, pu)
	}
	for d := ls.lo; d <= ls.hi; d++ {
		for _, en := range ls.buckets[d] {
			row := next.Neighbors(int(en.v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			unsup := en.m
			for _, w := range row {
				if unsup &^= lanesEq(blk.at(w), unsup, d-1); unsup == 0 {
					break
				}
			}
			if unsup == 0 {
				continue
			}
			p := blk.at(en.v)
			ls.touch(en.v, unsup, p)
			p.set(unsup, -2)
			aff = append(aff, laneEntry{v: en.v, m: unsup})
			for _, w := range row {
				pw := blk.at(w)
				if c := lanesEq(pw, unsup, d+1); c != 0 {
					ls.candidates(w, c, pw)
				}
			}
		}
		ls.buckets[d] = ls.buckets[d][:0]
	}

	// Phase 2: re-settle the affected lanes from the surviving boundary.
	ls.beginPhase()
	for _, x := range aff {
		row := next.Neighbors(int(x.v))
		spent += len(row) + 1
		if spent > budget {
			return abort()
		}
		var tent distLanes
		tent.set(x.m, -1)
		for _, w := range row {
			pw := blk.at(w)
			for m := x.m; m != 0; m &= m - 1 {
				l := lowLane(m)
				if dw := pw[l]; dw >= 0 && (tent[l] < 0 || dw+1 < tent[l]) {
					tent[l] = dw + 1
				}
			}
		}
		ls.pushAt(x.v, x.m&^lanesEq(&tent, x.m, -1), &tent)
	}
	for d := ls.lo; d <= ls.hi; d++ {
		for _, en := range ls.buckets[d] {
			p := blk.at(en.v)
			live := lanesEq(p, en.m, -2)
			if live == 0 {
				continue // settled at a lower level; stale entry
			}
			row := next.Neighbors(int(en.v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			p.set(live, d)
			for _, w := range row {
				if c := lanesEq(blk.at(w), live, -2); c != 0 {
					ls.push(w, c, d+1)
				}
			}
		}
		ls.buckets[d] = ls.buckets[d][:0]
	}

	// Phase 3: the shrink wave, seeded from the re-settled lanes and the
	// inserted arcs; never-settled affected lanes become unreachable.
	ls.beginPhase()
	for _, x := range aff {
		p := blk.at(x.v)
		unsettled := lanesEq(p, x.m, -2)
		p.set(unsettled, -1)
		ls.pushAt(x.v, x.m&^unsettled, p)
	}
	for _, e := range edges {
		if e.OldW != 0 || e.NewW == 0 {
			continue // removal or multiplicity change: not a new arc
		}
		pu, pv := blk.at(e.U), blk.at(e.V)
		// The two relaxations of a lane exclude each other: after v
		// takes du+1, u cannot improve through v.
		var rv, ru uint64
		for m := mask; m != 0; m &= m - 1 {
			l := lowLane(m)
			du, dv := pu[l], pv[l]
			if du >= 0 && (dv < 0 || dv > du+1) {
				rv |= m & -m
			} else if dv >= 0 && (du < 0 || du > dv+1) {
				ru |= m & -m
			}
		}
		if rv != 0 {
			ls.touch(e.V, rv, pv)
			for m := rv; m != 0; m &= m - 1 {
				l := lowLane(m)
				pv[l] = pu[l] + 1
			}
			if next.Degree(int(e.V)) > 1 {
				ls.pushAt(e.V, rv, pv)
			}
		}
		if ru != 0 {
			ls.touch(e.U, ru, pu)
			for m := ru; m != 0; m &= m - 1 {
				l := lowLane(m)
				pu[l] = pv[l] + 1
			}
			if next.Degree(int(e.U)) > 1 {
				ls.pushAt(e.U, ru, pu)
			}
		}
	}
	for d := ls.lo; d <= ls.hi; d++ {
		for _, en := range ls.buckets[d] {
			live := lanesEq(blk.at(en.v), en.m, d)
			if live == 0 {
				continue // superseded by a shallower relaxation
			}
			row := next.Neighbors(int(en.v))
			spent += len(row) + 1
			if spent > budget {
				return abort()
			}
			nd := d + 1
			for _, w := range row {
				pw := blk.at(w)
				if r := lanesAbove(pw, live, nd); r != 0 {
					ls.touch(w, r, pw)
					pw.set(r, nd)
					if next.Degree(int(w)) > 1 {
						ls.push(w, r, nd)
					}
				}
			}
		}
		ls.buckets[d] = ls.buckets[d][:0]
	}
	return true
}

// DistMap owns the per-source BFS distance rows of a snapshot plus the
// integer aggregates derived from them, and repairs both across
// snapshot deltas. Exact mode (nil sources) keeps one row per node and
// reproduces the full-traversal path metrics bit for bit; sampled mode
// keeps a fixed pivot set (PivotSources) and estimates closeness and
// betweenness from the pivot columns, so refresh cost scales with the
// pivot count instead of n. Both modes store the rows in 64-lane
// blocks (distBlock): source i is lane i%64 of block i/64.
type DistMap struct {
	s       *graph.Snapshot
	exact   bool
	sources []int32
	blocks  []distBlock

	// Aggregates maintained under repair: the global distance histogram
	// over (source, node) pairs, and per node the number of sources
	// reaching it plus the summed distance — by undirected symmetry, in
	// exact mode these are each node's own BFS reach and distance sum.
	hist  PathHistogram
	reach []int32
	sumd  []int64

	// maxScan is the per-lane repair budget; zero selects RelaxDelta's
	// default, a positive cap is the test hook for forcing the MS-BFS
	// rebuild fallback.
	maxScan int

	// Task state, persisted across epochs so a steady-state refresh
	// allocates nothing: one laneScratch per worker slot, the
	// (block, lane range) tasks of the current pass, and the task body
	// itself, created once and re-reading its per-call parameters (the
	// delta's edges and the pre-refresh source count) from the map.
	scratch []*laneScratch
	tasks   []laneTask
	rfEdges []graph.DeltaEdge
	rfOldK  int
	rfBody  func(worker, i int)
}

// laneTask is one unit of a cold build or a Refresh: the lanes lo up
// to hi-1 of block blk, and, from a Refresh, its aggregate patches
// (until merged) and whether its repair overran the budget and the
// lanes were rebuilt.
type laneTask struct {
	blk, lo, hi int
	patches     []nodePatch
	rebuilt     bool
}

// nodePatch is one node's net change of the reach and distance-sum
// columns from one run of a task's change records.
type nodePatch struct {
	v, reach int32
	sumd     int64
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

// blockSources returns the sources of block b, lane l at index l.
func (dm *DistMap) blockSources(b int) []int32 {
	return dm.sources[b*msbfsLanes : min((b+1)*msbfsLanes, len(dm.sources))]
}

// worker returns worker slot w's scratch, allocating it on first use.
func (dm *DistMap) worker(w int) *laneScratch {
	if dm.scratch[w] == nil {
		dm.scratch[w] = new(laneScratch)
	}
	return dm.scratch[w]
}

// minRangeLanes is the narrowest lane range plan cuts a block into:
// every task scans the delta's edges and pays its own wave, and a
// narrower range coalesces too few lanes per bucket entry to repay
// that. On one core of a 2-core Xeon VM, the 100k-node
// trajectory-paths-refresh replay (64 pivots, 8 workers) refreshed in
// 0.67 s with 16-lane ranges and in 1.05-1.11 s with 8-lane ones.
const minRangeLanes = 16

// plan sizes the blocks to the sources and n nodes, and the scratch
// to w workers, and splits each block of L lanes into min(ranges,
// L/minRangeLanes) tasks of consecutive lanes, at least one.
func (dm *DistMap) plan(n, w, ranges int) {
	nb := (len(dm.sources) + msbfsLanes - 1) / msbfsLanes
	for len(dm.blocks) < nb {
		dm.blocks = append(dm.blocks, distBlock{})
	}
	for b := range dm.blocks {
		dm.blocks[b].grow(n)
	}
	for len(dm.scratch) < w {
		dm.scratch = append(dm.scratch, nil)
	}
	dm.tasks = dm.tasks[:0]
	for b := range nb {
		lanes := len(dm.blockSources(b))
		r := max(1, min(ranges, lanes/minRangeLanes))
		for i := range r {
			dm.tasks = append(dm.tasks, laneTask{blk: b, lo: i * lanes / r, hi: (i + 1) * lanes / r})
		}
	}
}

// rebase rebuilds every row and aggregate over dm.s from scratch, one
// MS-BFS pass per block (a pass costs about the same for one lane as
// for 64, so blocks are never split); exact mode re-enumerates the
// sources to cover new nodes. The pages and aggregate rows of an
// earlier state are reset and reused.
func (dm *DistMap) rebase(workers int) {
	n := dm.s.N()
	if dm.exact {
		dm.sources = dm.sources[:0]
		for v := 0; v < n; v++ {
			dm.sources = append(dm.sources, int32(v))
		}
	}
	w := par.Workers(workers)
	dm.blocks = dm.blocks[:min(len(dm.blocks), (len(dm.sources)+msbfsLanes-1)/msbfsLanes)]
	for _, blk := range dm.blocks {
		for _, p := range blk.pages {
			p.reset()
		}
	}
	dm.plan(n, w, 1)
	par.ForEach(len(dm.tasks), w, func(worker, i int) {
		t := &dm.tasks[i]
		dm.worker(worker).ms.fillLanes(dm.s, &dm.blocks[t.blk], dm.blockSources(t.blk), laneRange(t.lo, t.hi), nil)
	})
	// The aggregates are per-node column sums, so the node ranges of
	// the workers write disjoint entries; the histograms merge in
	// worker order.
	dm.reach = growRow(dm.reach[:0], n, 0)
	dm.sumd = growRow(dm.sumd[:0], n, 0)
	hs := make([]PathHistogram, w)
	par.For(n, w, func(worker, v int) {
		h := &hs[worker]
		for b := range dm.blocks {
			for _, d := range dm.blocks[b].at(int32(v)) {
				if d > 0 {
					h.tally(d, 1)
					dm.reach[v]++
					dm.sumd[v] += int64(d)
				}
			}
		}
	})
	clear(dm.hist.Counts)
	dm.hist.Sum, dm.hist.Total = 0, 0
	for i := range hs {
		dm.hist.Merge(&hs[i])
	}
}

// tally adds by pairs at distance d to the histogram (by < 0 removes
// them; a difference histogram may go negative), with the same growth
// idiom as AccumulateDistances so merged and incremental histograms
// are interchangeable.
func (h *PathHistogram) tally(d int32, by int64) {
	for int(d) >= len(h.Counts) {
		h.Counts = append(h.Counts, make([]int64, len(h.Counts)+8)...)
	}
	h.Counts[d] += by
	h.Sum += int64(d) * by
	h.Total += by
}

// Refresh repairs the map in place so it describes next, the refreshed
// successor of the map's current snapshot with delta d between them.
// The work runs as one task per (block, lane range) (plan), in
// parallel: a task repairs its lanes with the lane kernel
// (repairLanes) under a budget of its lane count times RelaxDelta's
// per-row default, and fills the lanes of new exact-mode sources by
// MS-BFS (fillLanes). A task that overruns its budget rolls its lanes
// back and rebuilds all of them in one MS-BFS pass. Each task folds
// its change records into per-node patches and its worker's histogram
// difference (summarize); the patches then merge into the integer
// aggregates in task order and the differences in worker order, so
// the result is identical at every worker count. A nil d (full refreeze)
// or one with a foreign base version rebuilds the whole map. In every
// case the rows and aggregates are exactly those of a cold NewDistMap
// over next with the same sources. Refresh consumes the previous
// state; the map never describes two snapshots at once.
func (dm *DistMap) Refresh(next *graph.Snapshot, d *graph.Delta, workers int) {
	if next == nil {
		return
	}
	if d == nil || d.BaseVersion() != dm.s.Version() {
		dm.s = next
		dm.rebase(workers)
		return
	}
	n := next.N()
	dm.rfOldK = len(dm.sources)
	dm.s = next
	dm.reach = growRow(dm.reach, n, 0)
	dm.sumd = growRow(dm.sumd, n, 0)
	if dm.exact {
		for v := len(dm.sources); v < n; v++ {
			dm.sources = append(dm.sources, int32(v))
		}
	}
	// Each block whole when there are at least as many blocks as
	// workers, otherwise split into up to ceil(w/blocks) lane ranges,
	// so a single 64-pivot block still keeps a small pool busy.
	w := par.Workers(workers)
	nb := (len(dm.sources) + msbfsLanes - 1) / msbfsLanes
	dm.plan(n, w, (w+nb-1)/max(nb, 1))
	for _, ls := range dm.scratch[:w] {
		if ls != nil {
			ls.patches = ls.patches[:0] // last epoch's patches are long merged
			clear(ls.hist.Counts)
			ls.hist.Sum, ls.hist.Total = 0, 0
		}
	}
	dm.rfEdges = d.Edges()
	if dm.rfBody == nil {
		dm.rfBody = dm.refreshTask
	}
	par.ForEach(len(dm.tasks), w, dm.rfBody)
	dm.rfEdges = nil // the delta is not retained past the refresh
	for i := range dm.tasks {
		t := &dm.tasks[i]
		for _, p := range t.patches {
			dm.reach[p.v] += p.reach
			dm.sumd[p.v] += p.sumd
		}
		t.patches = nil
	}
	for _, ls := range dm.scratch[:w] {
		if ls != nil {
			dm.hist.Merge(&ls.hist)
		}
	}
}

// refreshTask runs Refresh task i on a worker's scratch: the lanes of
// sources the map held before the refresh are repaired, those of new
// sources built; a repair overrun rebuilds every lane of the task.
func (dm *DistMap) refreshTask(worker, i int) {
	t := &dm.tasks[i]
	ls := dm.worker(worker)
	base := t.blk * msbfsLanes
	all := laneRange(t.lo, t.hi)
	old := all & laneRange(0, dm.rfOldK-base)
	build := all &^ old
	perRow := dm.maxScan
	if perRow <= 0 {
		perRow = dm.s.N() + 2*dm.s.M() + 4096
	}
	blk := &dm.blocks[t.blk]
	if old != 0 && !ls.repairLanes(dm.s, dm.rfEdges, blk, old, bits.OnesCount64(old)*perRow) {
		build = all
		t.rebuilt = true
	}
	if build != 0 {
		ls.ms.fillLanes(dm.s, blk, dm.blockSources(t.blk), build, ls)
	}
	t.patches = ls.summarize(blk)
}

// summarize folds the task's change records, now that its lanes are
// final, into the worker's histogram difference and per-node patches
// of the reach and distance-sum columns, one per run of records of one
// node, and drops the records. It returns the patches, a subslice of
// the worker's patch arena.
func (ls *laneScratch) summarize(blk *distBlock) []nodePatch {
	first := len(ls.patches)
	p := nodePatch{v: -1}
	flush := func() {
		if p.reach != 0 || p.sumd != 0 {
			ls.patches = append(ls.patches, p)
		}
	}
	var entry *distLanes
	for _, c := range ls.changes {
		if c.v != p.v {
			flush()
			p = nodePatch{v: c.v}
			entry = blk.at(c.v)
		}
		for _, old := range ls.olds[c.off : int(c.off)+bits.OnesCount64(c.had)] {
			ls.hist.tally(old, -1)
			p.reach--
			p.sumd -= int64(old)
		}
		for r := c.m; r != 0; r &= r - 1 {
			if d := entry[lowLane(r)]; d > 0 {
				ls.hist.tally(d, 1)
				p.reach++
				p.sumd += int64(d)
			}
		}
	}
	flush()
	ls.changes, ls.olds = ls.changes[:0], ls.olds[:0]
	return ls.patches[first:]
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

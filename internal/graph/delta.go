package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file implements incremental freeze: instead of rebuilding the
// whole CSR at every observation epoch of a growth trajectory, the
// graph records an append-only log of the edges touched since its last
// freeze, and Snapshot.Refresh merges that delta into the previous
// snapshot in time proportional to the change.
//
// Immutability is preserved by construction. Rows whose update is a
// pure append of larger neighbor ids — the common case in growth
// models, where arrivals take the next dense id — are written into the
// row's slack capacity, beyond every earlier snapshot's ends marker;
// rows that shrink, reweight or interleave are relocated to the
// arena's spare capacity, beyond every earlier snapshot's arena
// length, with new slack. Untouched rows keep their storage. A
// refresh sizes its relocations first and touches the allocator only
// when they overflow the spare capacity: it compacts into a fresh
// arena (reserving twice the compacted size) when the dead space that
// relocations left behind exceeds half the capacity live rows hold,
// and otherwise doubles the arena once. Only the tip snapshot of a
// lineage may extend the shared arena (see arena.claim); refreshing
// twice from the same base silently degrades to the compacting copy,
// never to corruption. Storage of retired snapshots feeds the next
// refreshes of their lineage (see retire.go).

// DeltaEdge is one simple edge whose multiplicity changed between a
// base snapshot and its refreshed successor. OldW == 0 means the edge
// was inserted, NewW == 0 that it was removed; both non-zero is a pure
// multiplicity (bandwidth) change. U < V always holds.
type DeltaEdge struct {
	U, V       int32
	OldW, NewW int32
}

// Delta is the net change between a base snapshot and the graph state a
// refreshed snapshot will capture: the new node count plus the deduped,
// (U,V)-sorted list of edges whose multiplicity changed. Deltas are
// produced by Graph.Refreeze and consumed by Snapshot.Refresh and the
// incremental metric kernels; treat them as immutable.
type Delta struct {
	baseVersion uint64
	baseN, n    int
	edges       []DeltaEdge
	retired     bool // the base snapshot retired and took the edge buffer back
}

// BaseVersion returns the version of the snapshot the delta extends.
func (d *Delta) BaseVersion() uint64 { return d.baseVersion }

// N returns the node count after the delta; nodes are only ever added.
func (d *Delta) N() int { return d.n }

// Edges returns the changed simple edges sorted by (U, V). The slice
// aliases the delta and must not be modified, and it is recycled when
// the delta's base snapshot retires (Snapshot.Retire): a call after
// that panics.
func (d *Delta) Edges() []DeltaEdge {
	if d.retired {
		panic("graph: read of a delta whose base snapshot retired")
	}
	return d.edges
}

// Counts returns how many simple edges the delta inserts and removes
// (multiplicity-only changes are in neither count).
func (d *Delta) Counts() (inserted, removed int) {
	for _, e := range d.Edges() {
		if e.OldW == 0 {
			inserted++
		} else if e.NewW == 0 {
			removed++
		}
	}
	return inserted, removed
}

// mutLog is the graph-side delta log: the edges touched since the last
// freeze, relative to that snapshot's version, each packed as u<<32|v
// with u < v. The log caps its own length — once the mutation volume
// rivals the graph itself a refresh would not beat a rebuild, so the
// log marks itself lost and Refreeze falls back to a full freeze.
type mutLog struct {
	active      bool
	lost        bool
	baseVersion uint64
	baseN       int
	touched     []uint64
}

// startLog begins logging mutations relative to the snapshot s, reusing
// the previous epoch's touch buffer.
func (g *Graph) startLog(s *Snapshot) {
	g.log = mutLog{active: true, baseVersion: s.version, baseN: g.N(), touched: g.log.touched[:0]}
}

// logTouch records that the simple edge (u,v) changed. Out-of-envelope
// ids or a log outgrowing the graph mark the log lost.
func (g *Graph) logTouch(u, v int) {
	if !g.log.active || g.log.lost {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v > math.MaxInt32 || len(g.log.touched) > 2*g.m+4096 {
		g.log.lost = true
		g.log.touched = nil
		return
	}
	g.log.touched = append(g.log.touched, uint64(u)<<32|uint64(v))
}

// Refreeze returns an up-to-date snapshot of g. When base is the
// snapshot g most recently froze or refreshed and the mutation log is
// intact, the result is produced by base.Refresh in time proportional
// to the delta, which is also returned so version-aware caches (the
// metrics engine) can maintain their values incrementally. Otherwise —
// nil base, foreign snapshot, lost or overflowing log — it falls back
// to a full FreezeChecked and the returned delta is nil.
func (g *Graph) Refreeze(base *Snapshot) (*Snapshot, *Delta, error) {
	if base != nil && g.log.active && !g.log.lost && g.log.baseVersion == base.version {
		d := g.buildDelta(base, base.arena.lin.takeEdges())
		next, err := base.Refresh(d)
		if err == nil {
			if next.arena.lin == base.arena.lin {
				// The delta's buffer goes back when its base retires.
				base.spawned = d
			}
			g.startLog(next)
			return next, d, nil
		}
		// Refresh only fails on arena overflow; the full rebuild below
		// re-checks the envelope and reports its own error.
	}
	s, err := g.FreezeChecked()
	return s, nil, err
}

// buildDelta materializes the net change between base and g's current
// adjacency from the touch log into buf: dedupe the touched pairs, read
// old multiplicities from the snapshot and new ones from the graph, and
// drop pairs that changed and changed back.
func (g *Graph) buildDelta(base *Snapshot, buf []DeltaEdge) *Delta {
	d := &Delta{baseVersion: base.version, baseN: g.log.baseN, n: g.N(), edges: buf[:0]}
	touched := g.log.touched
	slices.Sort(touched)
	for i, p := range touched {
		if i > 0 && p == touched[i-1] {
			continue
		}
		u, v := int(p>>32), int(uint32(p))
		oldW := base.EdgeWeight(u, v)
		newW := g.EdgeWeight(u, v)
		if oldW == newW {
			continue
		}
		d.edges = append(d.edges, DeltaEdge{U: int32(u), V: int32(v), OldW: int32(oldW), NewW: int32(newW)})
	}
	return d
}

// rowChange is one endpoint's view of a DeltaEdge, grouped per row
// during a refresh.
type rowChange struct {
	node, nbr  int32
	oldW, newW int32
}

// slackFor returns the extra capacity granted to a relocated row of the
// given length, trading ~25% memory on hot rows for fewer relocations
// as the trajectory grows.
func slackFor(rowLen int) int { return rowLen/4 + 4 }

// Refresh produces the next immutable snapshot by merging the delta
// into this one: touched rows are appended in place (when the change is
// a pure append into remaining slack) or relocated with fresh slack
// into the arena's spare capacity. When the relocations do not fit
// that capacity, the arena is compacted into a fresh one if dead space
// exceeds half the capacity live rows hold, and doubled otherwise;
// the new arena and the per-node arrays come from storage of retired
// snapshots of the lineage when it is large enough (see Retire).
// Untouched rows share their storage with the base snapshot. The
// result is logically identical to freezing the mutated graph from
// scratch: same rows, same counts, same metrics. The delta must extend
// exactly this snapshot (by version); drive refreshes through
// Graph.Refreeze to get that pairing for free.
func (s *Snapshot) Refresh(d *Delta) (*Snapshot, error) {
	if d == nil {
		return nil, errors.New("graph: Refresh needs a non-nil delta")
	}
	if d.baseVersion != s.version {
		return nil, fmt.Errorf("graph: delta extends snapshot v%d, not v%d", d.baseVersion, s.version)
	}
	if d.baseN != s.N() || d.n < d.baseN {
		return nil, fmt.Errorf("graph: delta node counts %d -> %d do not extend a %d-node snapshot", d.baseN, d.n, s.N())
	}
	if d.n >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: snapshot overflow: %d nodes", d.n)
	}
	oldN, n := d.baseN, d.n
	changes, m, strength, err := s.rowChanges(d)
	if err != nil {
		return nil, err
	}
	next := &Snapshot{m: m, strength: strength, version: nextSnapshotVersion()}
	// Only the tip refresh continues the lineage; a second refresh off
	// the same base starts its own, so the two never trade storage.
	tip := s.arena != nil && s.arena.claim(s.version, next.version)
	lin := &lineage{}
	if tip {
		lin = s.arena.lin
	}
	na := lin.takeNodes(n)
	next.offsets, next.ends, next.caps = na.offsets, na.ends, na.caps
	copy(next.offsets, s.offsets[:oldN])
	clear(next.offsets[oldN:])
	copy(next.ends, s.ends[:oldN])
	clear(next.ends[oldN:])
	if s.caps != nil {
		copy(next.caps, s.caps[:oldN])
	} else {
		for u := 0; u < oldN; u++ {
			next.caps[u] = s.ends[u] - s.offsets[u]
		}
	}
	clear(next.caps[oldN:])

	liveArcs := 2 * next.m
	// Size the relocations first, so the arena is reallocated at most
	// once per refresh: when they overflow its spare capacity, compact
	// if dead space (arena length beyond the capacity rows hold) is
	// over half of the held capacity, else grow the arena once.
	nb, wt := s.neighbors, s.weights
	need := 0
	for i := 0; i < len(changes); {
		cs := rowRun(changes, i)
		i += len(cs)
		u := int(cs[0].node)
		off := next.offsets[u]
		if !pureAppend(nb, off, int(next.ends[u]-off), int(next.caps[u]), cs) {
			newLen := mergedLen(int(next.ends[u]-off), cs)
			need += newLen + slackFor(newLen)
		}
	}
	fits := len(nb)+need <= cap(nb)
	compact := false
	if !fits {
		held := 0
		for _, c := range next.caps[:oldN] {
			held += int(c)
		}
		compact = len(nb)-held > held/2
	}
	// Compact as well when this snapshot is no longer the lineage tip
	// (someone else extended the arena).
	if compact || !tip {
		if err := s.rebuildInto(next, changes, liveArcs, lin); err != nil {
			return nil, err
		}
		return next, nil
	}
	a := s.arena
	if !fits {
		if len(nb)+need > math.MaxInt32 {
			return nil, fmt.Errorf("graph: snapshot overflow: arena beyond int32 (%d arcs)", len(nb)+need)
		}
		rnb, rwt := lin.takeArena(max(len(nb)+need, recycleArcs(liveArcs)))
		if rnb == nil {
			size := min(max(2*cap(nb), len(nb)+need), math.MaxInt32)
			rnb, rwt = make([]int32, 0, size), make([]int32, 0, size)
		}
		nb, wt = append(rnb, nb...), append(rwt, wt...)
		a = &arena{lin: lin, tip: next.version, recycle: true}
	}

	for i := 0; i < len(changes); {
		cs := rowRun(changes, i)
		i += len(cs)
		u := int(cs[0].node)
		off := next.offsets[u]
		oldLen := int(next.ends[u] - off)
		// Pure append: the written region lies beyond every earlier
		// snapshot's ends[u], so sharing the row storage stays safe.
		if pureAppend(nb, off, oldLen, int(next.caps[u]), cs) {
			for k, c := range cs {
				nb[off+int32(oldLen+k)] = c.nbr
				wt[off+int32(oldLen+k)] = c.newW
			}
			next.ends[u] = off + int32(oldLen+len(cs))
			continue
		}

		// Relocate: merge the old row with the changes into the arena's
		// spare capacity, which lies beyond every earlier snapshot's
		// arena length, with new slack.
		newLen := mergedLen(oldLen, cs)
		start := len(nb)
		nb, wt = mergeRow(nb, wt, s.neighbors[off:off+int32(oldLen)], s.weights[off:off+int32(oldLen)], cs)
		end := start + newLen + slackFor(newLen)
		nb, wt = nb[:end], wt[:end]
		next.offsets[u] = int32(start)
		next.ends[u] = int32(start + newLen)
		next.caps[u] = int32(end - start)
	}
	next.offsets[n] = int32(len(nb))
	next.neighbors, next.weights = nb, wt
	a.attach(next)
	next.recountMaxDeg()
	return next, nil
}

// rowChanges validates the delta against s and splits each changed
// edge into its two row views, grouped by row and sorted by neighbor
// within each row, with the edge and strength counters after the
// delta. Delta edges are sorted by (U, V) with U < V, so row u's views
// are its V-views (neighbor U < u, ascending) followed by its U-views
// (neighbor V > u, ascending, already contiguous in the delta): only
// the V-views need sorting, by packed V<<32 | delta-index keys.
func (s *Snapshot) rowChanges(d *Delta) (changes []rowChange, m, strength int, err error) {
	edges := d.Edges()
	m, strength = s.m, s.strength
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.U >= e.V || int(e.V) >= d.n {
			return nil, 0, 0, fmt.Errorf("graph: delta edge (%d,%d) out of range", e.U, e.V)
		}
		if i > 0 && (e.U < edges[i-1].U || e.U == edges[i-1].U && e.V <= edges[i-1].V) {
			return nil, 0, 0, fmt.Errorf("graph: delta edge (%d,%d) out of (U, V) order", e.U, e.V)
		}
		if e.OldW == e.NewW || e.OldW < 0 || e.NewW < 0 {
			return nil, 0, 0, fmt.Errorf("graph: delta edge (%d,%d) weight %d -> %d is not a change", e.U, e.V, e.OldW, e.NewW)
		}
		if got := int32(s.EdgeWeight(int(e.U), int(e.V))); got != e.OldW {
			return nil, 0, 0, fmt.Errorf("graph: delta edge (%d,%d) claims old weight %d, snapshot has %d", e.U, e.V, e.OldW, got)
		}
		if e.OldW == 0 {
			m++
		} else if e.NewW == 0 {
			m--
		}
		strength += int(e.NewW - e.OldW)
		keys[i] = uint64(e.V)<<32 | uint64(i)
	}
	slices.Sort(keys)
	changes = make([]rowChange, 0, 2*len(edges))
	ui := 0 // first U-view not yet emitted
	for _, k := range keys {
		e := edges[uint32(k)]
		for ; ui < len(edges) && edges[ui].U < e.V; ui++ {
			u := edges[ui]
			changes = append(changes, rowChange{node: u.U, nbr: u.V, oldW: u.OldW, newW: u.NewW})
		}
		changes = append(changes, rowChange{node: e.V, nbr: e.U, oldW: e.OldW, newW: e.NewW})
	}
	for _, u := range edges[ui:] {
		changes = append(changes, rowChange{node: u.U, nbr: u.V, oldW: u.OldW, newW: u.NewW})
	}
	return changes, m, strength, nil
}

// rowRun returns the run of sorted changes starting at i that share
// its node: one row's changes.
func rowRun(changes []rowChange, i int) []rowChange {
	j := i
	for j < len(changes) && changes[j].node == changes[i].node {
		j++
	}
	return changes[i:j]
}

// pureAppend reports whether a row's changes can be written into its
// own slack: every change inserts a neighbor id above the current row
// tail, and the row's capacity holds them all.
func pureAppend(nb []int32, off int32, oldLen, capacity int, cs []rowChange) bool {
	if oldLen+len(cs) > capacity {
		return false
	}
	for _, c := range cs {
		if c.oldW != 0 || (oldLen > 0 && c.nbr <= nb[off+int32(oldLen)-1]) {
			return false
		}
	}
	return true
}

// mergedLen returns the row length after applying the changes: old
// entries minus removals plus insertions.
func mergedLen(oldLen int, cs []rowChange) int {
	n := oldLen
	for _, c := range cs {
		if c.oldW == 0 {
			n++
		} else if c.newW == 0 {
			n--
		}
	}
	return n
}

// mergeRow appends the merge of a sorted row with its sorted change
// list onto the arena slices, applying insertions, removals and weight
// updates in one pass.
func mergeRow(nb, wt, rowNb, rowWt []int32, cs []rowChange) ([]int32, []int32) {
	i, j := 0, 0
	for i < len(rowNb) || j < len(cs) {
		switch {
		case j >= len(cs) || (i < len(rowNb) && rowNb[i] < cs[j].nbr):
			nb = append(nb, rowNb[i])
			wt = append(wt, rowWt[i])
			i++
		case i >= len(rowNb) || rowNb[i] > cs[j].nbr:
			// Insertion; a removal of an absent edge cannot pass the
			// old-weight validation, so newW > 0 here.
			nb = append(nb, cs[j].nbr)
			wt = append(wt, cs[j].newW)
			j++
		default: // same neighbor: removal or weight change
			if cs[j].newW > 0 {
				nb = append(nb, rowNb[i])
				wt = append(wt, cs[j].newW)
			}
			i++
			j++
		}
	}
	return nb, wt
}

// rebuildInto compacts the refreshed topology into a new arena, retired
// storage of the lineage when it holds recycleArcs(liveArcs), else a
// fresh one: every row is copied (touched rows merged with their
// changes) with an eighth of slack, dropping all relocation garbage. A
// fresh arena reserves twice the compacted size, so the relocations of
// the following epochs land in spare capacity instead of a new arena.
// Short rows get no slack of their own: most rows of a growth model
// never change again, and those that do relocate once into the
// reserve. next already carries offsets/ends/caps copies and updated
// counters.
func (s *Snapshot) rebuildInto(next *Snapshot, changes []rowChange, liveArcs int, lin *lineage) error {
	n := next.N()
	nb, wt := lin.takeArena(recycleArcs(liveArcs))
	if nb == nil {
		budget := min(2*(int64(liveArcs)+int64(liveArcs)/8), math.MaxInt32)
		nb, wt = make([]int32, 0, budget), make([]int32, 0, budget)
	}
	oldN := s.N()
	ci := 0
	for u := 0; u < n; u++ {
		cj := ci
		for cj < len(changes) && int(changes[cj].node) == u {
			cj++
		}
		cs := changes[ci:cj]
		ci = cj
		var rowNb, rowWt []int32
		if u < oldN {
			rowNb, rowWt = s.Neighbors(u), s.Weights(u)
		}
		newLen := mergedLen(len(rowNb), cs)
		newCap := newLen + newLen/8
		if int64(len(nb))+int64(newCap) > math.MaxInt32 {
			return fmt.Errorf("graph: snapshot overflow: compaction beyond int32 at node %d", u)
		}
		start := int32(len(nb))
		if len(cs) == 0 {
			nb = append(nb, rowNb...)
			wt = append(wt, rowWt...)
		} else {
			nb, wt = mergeRow(nb, wt, rowNb, rowWt, cs)
		}
		nb, wt = nb[:int(start)+newCap], wt[:int(start)+newCap]
		next.offsets[u] = start
		next.ends[u] = start + int32(newLen)
		next.caps[u] = int32(newCap)
	}
	next.offsets[n] = int32(len(nb))
	next.neighbors, next.weights = nb, wt
	(&arena{lin: lin, tip: next.version, recycle: true}).attach(next)
	next.recountMaxDeg()
	return nil
}

// recountMaxDeg rescans row lengths; removals can shrink the old
// maximum, so the O(N) recount keeps MaxDegree exact.
func (s *Snapshot) recountMaxDeg() {
	maxDeg := 0
	for u := range s.ends {
		if d := int(s.ends[u] - s.offsets[u]); d > maxDeg {
			maxDeg = d
		}
	}
	s.maxDeg = maxDeg
}

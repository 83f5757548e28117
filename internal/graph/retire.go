package graph

import "sync"

// This file implements snapshot retirement. A growth trajectory
// refreshes one snapshot per epoch, and every refresh needs storage of
// its own: the per-node offsets/ends/caps arrays, a delta buffer, and
// from time to time a new arc arena when relocations outgrow the old
// one. Snapshot.Retire is the caller's promise that it will not read a
// snapshot again. Retired storage that no live snapshot still shares
// goes back to the snapshot's lineage, and the lineage's next refreshes
// take it instead of allocating. A snapshot that is never retired
// behaves as if this file did not exist.

// lineage is the storage pool of one Freeze/Refresh chain. A freeze
// starts a lineage, and every refresh that holds its base's arena tip
// (arena.claim) continues it. A refresh off a snapshot that is no
// longer the tip starts a lineage of its own, so storage retired on
// one branch never feeds another. Each pool keeps at most one entry per
// kind, the largest; steady trajectories retire one snapshot per
// refresh, so one is all they reuse.
type lineage struct {
	mu sync.Mutex
	// recycling records that a snapshot of the lineage has retired:
	// from then on new per-node arrays get headroom for growth, so the
	// arrays of a snapshot two epochs back still fit the next one.
	recycling bool
	nodes     nodeArrays  // retired per-node arrays, len 0
	nb, wt    []int32     // a retired arc arena no live snapshot shares, len 0
	edges     []DeltaEdge // a retired delta buffer, len 0
}

// nodeArrays are the per-node arrays of a refreshed snapshot.
type nodeArrays struct{ offsets, ends, caps []int32 }

// arena is one backing array of arc storage shared by the snapshots
// that alias it, and the extension rights over it: only the lineage tip
// may append to it or write into row slack, because everything it
// writes lies beyond every earlier snapshot's visible row ends. A
// refresh that doubles or compacts moves its result to a new arena.
type arena struct {
	lin *lineage
	tip uint64 // guarded by lin.mu
	// live counts the unretired snapshots on this storage (guarded by
	// lin.mu); the storage goes back to lin when the last one retires.
	live int
	// recycle is false for the tight arenas of Freeze: they hold
	// exactly the arcs of their epoch and could never serve a later
	// compaction, so they are left to the garbage collector.
	recycle bool
}

// claim transfers extension rights from the snapshot version `from` to
// `to`; it fails when `from` is no longer the tip (a second refresh off
// the same base), in which case the caller must copy instead of extend.
func (a *arena) claim(from, to uint64) bool {
	a.lin.mu.Lock()
	defer a.lin.mu.Unlock()
	if a.tip != from {
		return false
	}
	a.tip = to
	return true
}

// attach records that s lives on a.
func (a *arena) attach(s *Snapshot) {
	a.lin.mu.Lock()
	a.live++
	a.lin.mu.Unlock()
	s.arena = a
}

// takeNodes returns offsets (length n+1), ends and caps (length n) for a
// refreshed snapshot, reusing retired arrays when they are large
// enough. Reused contents are stale; the caller overwrites every entry.
func (l *lineage) takeNodes(n int) nodeArrays {
	l.mu.Lock()
	p, grow := l.nodes, l.recycling
	l.nodes = nodeArrays{}
	l.mu.Unlock()
	if cap(p.offsets) > n {
		return nodeArrays{p.offsets[:n+1], p.ends[:n], p.caps[:n]}
	}
	c := n
	if grow {
		c += n / 2
	}
	return nodeArrays{make([]int32, n+1, c+1), make([]int32, n, c), make([]int32, n, c)}
}

// takeArena returns retired arc storage of at least min entries, or
// nils. Storage too small for min stays pooled: a doubling asks for
// more than the compaction that may come next.
func (l *lineage) takeArena(min int) (nb, wt []int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	nb, wt = l.nb, l.wt
	l.nb, l.wt = nil, nil
	if cap(nb) < min {
		return nil, nil
	}
	return nb, wt
}

// takeEdges returns a retired delta buffer (length 0), or nil.
func (l *lineage) takeEdges() []DeltaEdge {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.edges
	l.edges = nil
	return e
}

// recycleArcs returns the arena size a compaction or doubling accepts
// from retired storage: half again the live arcs. A compaction writes
// at most an eighth more than the live arcs, and the rest is room for
// the relocations of the following epochs.
func recycleArcs(liveArcs int) int { return liveArcs + liveArcs/2 }

// Retire declares that the caller will not read s again, nor the delta
// of the refresh Graph.Refreeze made from s. The storage only s held —
// the per-node arrays of a refreshed snapshot, that delta's edge
// buffer, and the arc arena once the last snapshot on it retires —
// then feeds later refreshes of the same lineage. Snapshots built by
// Freeze give back no arrays of their own. Retire drops s's arrays, so
// a read after it panics instead of seeing recycled rows. Retiring
// twice is a no-op. Retire must not run concurrently with reads of s
// or of that delta; other snapshots of the lineage stay valid.
func (s *Snapshot) Retire() {
	a := s.arena
	if a == nil || s.offsets == nil {
		return
	}
	l := a.lin
	l.mu.Lock()
	l.recycling = true
	if s.caps != nil && cap(s.offsets) > cap(l.nodes.offsets) {
		l.nodes = nodeArrays{s.offsets[:0], s.ends[:0], s.caps[:0]}
	}
	if d := s.spawned; d != nil {
		if cap(d.edges) > cap(l.edges) {
			l.edges = d.edges[:0]
		}
		d.edges, d.retired = nil, true
	}
	a.live--
	if a.live == 0 && a.recycle && cap(s.neighbors) > cap(l.nb) {
		l.nb, l.wt = s.neighbors[:0], s.weights[:0]
	}
	l.mu.Unlock()
	s.offsets, s.ends, s.caps, s.neighbors, s.weights = nil, nil, nil, nil, nil
	s.arcEdge, s.spawned = nil, nil
}

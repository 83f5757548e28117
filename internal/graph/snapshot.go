package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable compressed-sparse-row (CSR) view of a Graph,
// built with Freeze and advanced along a growth trajectory with Refresh.
// The adjacency of node u is the slice neighbors[offsets[u]:ends[u]],
// sorted ascending, with parallel edge multiplicities in weights. Flat
// arrays turn the per-source traversals of the analysis packages (BFS,
// Brandes, triangle counting) from pointer-chasing over per-row slices
// into sequential cache-friendly scans, and, being immutable, a Snapshot is
// safe to share across goroutines without locking — the substrate of
// the parallel metrics engine.
//
// Snapshots produced by Freeze are tight: ends aliases offsets[1:], so
// rows tile the arc arrays exactly. Snapshots produced by Refresh may
// carry slack — rows with storage capacity beyond their length, and
// relocated rows leaving gaps — so arc indices are only meaningful
// inside a row's [offsets[u], ends[u]) range. Every snapshot carries a
// process-unique monotonically increasing version (see Version), the
// identity the engine's memoization keys on.
//
// The mutable row-backed Graph remains the API for generation and
// rewiring; analysis freezes once and reads the snapshot, refreshing
// from the graph's mutation delta at each later observation epoch. A
// trajectory that is done with an epoch's snapshot retires it (Retire),
// and the next refreshes of the lineage reuse its storage.
type Snapshot struct {
	offsets   []int32 // len N+1; row of node u starts at offsets[u]
	ends      []int32 // len N; row of node u ends at ends[u]; tight snapshots alias offsets[1:]
	caps      []int32 // len N or nil; per-row storage capacity (nil = rows are tight)
	neighbors []int32 // arc arena; sorted ascending within each row
	weights   []int32 // arc arena; multiplicity of each arc
	m         int     // number of simple edges
	strength  int     // total multiplicity over simple edges
	maxDeg    int
	version   uint64
	arena     *arena // the arc storage and its growth rights (see retire.go)
	spawned   *Delta // the delta Graph.Refreeze refreshed s with, recycled by Retire

	edgeOnce sync.Once
	arcEdge  []int32 // lazy: arc index -> simple-edge index in [0, M)
}

// snapshotVersions hands out process-unique snapshot versions, so any
// two snapshots ever built — across graphs, chains and compactions —
// carry distinct identities.
var snapshotVersions atomic.Uint64

func nextSnapshotVersion() uint64 { return snapshotVersions.Add(1) }

// Freeze builds the CSR snapshot of g and starts the graph's mutation
// delta log, so a later Refreeze against the returned snapshot costs
// time proportional to the changes rather than the graph. Neighbor
// lists are sorted ascending, so the snapshot is deterministic for a
// given topology. Freeze panics if the arc count overflows int32; CLI
// entry points use FreezeChecked to turn that into an error.
func (g *Graph) Freeze() *Snapshot {
	s, err := g.FreezeChecked()
	if err != nil {
		panic(err.Error())
	}
	return s
}

// FreezeChecked is Freeze returning an error instead of panicking when
// the node or arc count overflows the snapshot's int32 design envelope
// (~1 billion arcs). Oversized maps fail with a message; the tools
// route through this variant.
func (g *Graph) FreezeChecked() (*Snapshot, error) {
	n := g.N()
	arcs := 2 * g.m
	if arcs > math.MaxInt32 || n >= math.MaxInt32 {
		return nil, fmt.Errorf("graph: snapshot overflow: %d nodes, %d arcs exceed the int32 CSR envelope", n, arcs)
	}
	s := &Snapshot{
		offsets:   make([]int32, n+1),
		neighbors: make([]int32, arcs),
		weights:   make([]int32, arcs),
		m:         g.m,
		strength:  g.strength,
		version:   nextSnapshotVersion(),
	}
	s.ends = s.offsets[1:]
	(&arena{lin: &lineage{}, tip: s.version}).attach(s)
	for u, row := range g.rows {
		s.offsets[u+1] = s.offsets[u] + int32(len(row))
		s.maxDeg = max(s.maxDeg, len(row))
	}
	// Rows are already sorted: split them into the arc arrays.
	for u, row := range g.rows {
		base := s.offsets[u]
		for j, a := range row {
			s.neighbors[base+int32(j)] = a.v
			s.weights[base+int32(j)] = a.w
		}
	}
	g.startLog(s)
	return s, nil
}

// Version returns the snapshot's process-unique identity. Versions
// increase monotonically along a Freeze/Refresh lineage, so caches
// keyed by version can never serve a stale entry after a refresh.
func (s *Snapshot) Version() uint64 { return s.version }

// N returns the number of nodes. It panics on a retired snapshot (see
// Retire), and so does every read that goes through it.
func (s *Snapshot) N() int {
	if s.offsets == nil {
		panic("graph: read of a retired snapshot")
	}
	return len(s.offsets) - 1
}

// MemBytes returns the heap bytes held by the snapshot's arrays — the
// cost an artifact cache should charge for keeping it resident. The
// ends row is skipped when it aliases offsets (tight snapshots), and
// the lazy arc→edge cache is charged as materialized (routing
// materializes it on first use) without touching its once-guard, so
// the accounting is race-free against concurrent readers.
func (s *Snapshot) MemBytes() int64 {
	b := int64(cap(s.offsets)) * 4
	if len(s.offsets) < 2 || len(s.ends) == 0 || &s.ends[0] != &s.offsets[1] {
		b += int64(cap(s.ends)) * 4
	}
	b += int64(cap(s.caps)) * 4
	b += int64(cap(s.neighbors)) * 4
	b += int64(cap(s.weights)) * 4
	b += int64(len(s.neighbors)) * 4 // arc→edge cache
	return b
}

// M returns the number of simple edges.
func (s *Snapshot) M() int { return s.m }

// TotalStrength returns the sum of multiplicities over all simple edges.
func (s *Snapshot) TotalStrength() int { return s.strength }

// Degree returns the topological degree of u.
func (s *Snapshot) Degree(u int) int {
	return int(s.ends[u] - s.offsets[u])
}

// Neighbors returns the sorted neighbor slice of u. The slice aliases
// the snapshot and must not be modified.
func (s *Snapshot) Neighbors(u int) []int32 {
	return s.neighbors[s.offsets[u]:s.ends[u]]
}

// Weights returns the multiplicities parallel to Neighbors(u). The
// slice aliases the snapshot and must not be modified.
func (s *Snapshot) Weights(u int) []int32 {
	return s.weights[s.offsets[u]:s.ends[u]]
}

// CSR exposes the raw row arrays backing Neighbors — offsets, ends,
// and the arc-level neighbor arena — so traversal kernels can hold the
// slice headers in locals across a whole sweep instead of re-deriving
// them per node through the accessor methods. Row u spans
// neighbors[offsets[u]:ends[u]]. All three slices alias the snapshot
// and must not be modified.
func (s *Snapshot) CSR() (offsets, ends, neighbors []int32) {
	return s.offsets, s.ends, s.neighbors
}

// ArcRange returns the half-open arc index range of node u, for callers
// indexing per-arc data (see ArcEdgeIDs). In refreshed snapshots rows
// need not tile the arena, so arc indices are only valid within a row.
func (s *Snapshot) ArcRange(u int) (lo, hi int32) {
	return s.offsets[u], s.ends[u]
}

// ArcSpace returns the size of the arc index space: every arc index
// handed out by ArcRange is below it. Parallel per-arc arrays must be
// allocated with this length, not 2M — in refreshed snapshots rows
// carry slack and relocation gaps, so live arcs need not tile the
// space.
func (s *Snapshot) ArcSpace() int { return len(s.neighbors) }

// arcOf returns the arc index of (u,v), or -1 when the edge is absent.
func (s *Snapshot) arcOf(u, v int) int32 {
	lo, hi := s.offsets[u], s.ends[u]
	row := s.neighbors[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	if i < len(row) && row[i] == int32(v) {
		return lo + int32(i)
	}
	return -1
}

// HasEdge reports whether the simple edge (u,v) exists, by binary search
// over the sorted neighbor row.
func (s *Snapshot) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= s.N() || v >= s.N() {
		return false
	}
	return s.arcOf(u, v) >= 0
}

// EdgeWeight returns the multiplicity of (u,v), zero if absent.
func (s *Snapshot) EdgeWeight(u, v int) int {
	if u < 0 || v < 0 || u >= s.N() || v >= s.N() {
		return 0
	}
	if a := s.arcOf(u, v); a >= 0 {
		return int(s.weights[a])
	}
	return 0
}

// AvgDegree returns the mean topological degree 2M/N, zero for an empty
// snapshot.
func (s *Snapshot) AvgDegree() float64 {
	if s.N() == 0 {
		return 0
	}
	return 2 * float64(s.m) / float64(s.N())
}

// MaxDegree returns the largest topological degree.
func (s *Snapshot) MaxDegree() int { return s.maxDeg }

// Edges calls fn for every simple edge with u < v and multiplicity w, in
// (u, v) sorted order, stopping early if fn returns false.
func (s *Snapshot) Edges(fn func(u, v, w int) bool) {
	n := s.N()
	for u := 0; u < n; u++ {
		lo, hi := s.offsets[u], s.ends[u]
		for a := lo; a < hi; a++ {
			v := int(s.neighbors[a])
			if v > u {
				if !fn(u, v, int(s.weights[a])) {
					return
				}
			}
		}
	}
}

// EdgeList returns all simple edges sorted by (U,V). The edge at index i
// is the simple edge with id i as assigned by ArcEdgeIDs.
func (s *Snapshot) EdgeList() []Edge {
	return s.AppendEdges(make([]Edge, 0, s.m))
}

// AppendEdges appends the snapshot's edges to buf in the same (u, v)
// sorted order as EdgeList and returns the extended slice — EdgeList
// without the fresh allocation, for refresh paths that walk the edge
// list every epoch through a reusable buffer.
func (s *Snapshot) AppendEdges(buf []Edge) []Edge {
	s.Edges(func(u, v, w int) bool {
		buf = append(buf, Edge{U: u, V: v, W: w})
		return true
	})
	return buf
}

// ArcEdgeIDs returns, for every arc index, the id of its simple edge in
// [0, M). Both arcs of an edge map to the same id, and ids follow the
// (u, v) sorted order of EdgeList, so EdgeList()[id] is the edge. The
// mapping is computed once and cached; the returned slice must not be
// modified. Entries outside live row ranges are meaningless.
func (s *Snapshot) ArcEdgeIDs() []int32 {
	s.edgeOnce.Do(func() {
		s.arcEdge, _ = s.FillArcEdgeIDs(nil, nil)
	})
	return s.arcEdge
}

// FillArcEdgeIDs computes the ArcEdgeIDs mapping into buf — grown when
// too small, contents overwritten — without touching the snapshot's
// lazy cache, and returns it with the cursor scratch (N entries, grown
// when too small) it used. Refresh paths that rebuild the mapping for
// every epoch's new snapshot use it to cycle both buffers instead of
// leaving a cached copy on each dead snapshot. The same caveat
// applies: entries outside live row ranges are meaningless (here:
// stale).
//
// The fill is one O(M) pass with no search. Row u's arcs above u take
// consecutive ids, and cursor[u] records the first. A later row w > u
// meets its arc to u in ascending w, the order in which row u lists
// its neighbours above u, so that arc takes cursor[u], which then
// advances.
func (s *Snapshot) FillArcEdgeIDs(buf, cursor []int32) (ids, cur []int32) {
	if cap(buf) < len(s.neighbors) {
		// An eighth of headroom: churn refreezes let the arcs slab creep
		// a few entries per epoch (removal holes are not compacted), and
		// an exact-size buffer would re-allocate on every refresh.
		buf = make([]int32, len(s.neighbors), len(s.neighbors)+len(s.neighbors)/8+64)
	}
	buf = buf[:len(s.neighbors)]
	n := s.N()
	if cap(cursor) < n {
		cursor = make([]int32, n, n+n/8+64)
	}
	cursor = cursor[:n]
	next := int32(0)
	for u := 0; u < n; u++ {
		cursor[u] = next
		lo, hi := s.offsets[u], s.ends[u]
		for a := lo; a < hi; a++ {
			if v := s.neighbors[a]; int(v) > u {
				buf[a] = next
				next++
			} else {
				buf[a] = cursor[v]
				cursor[v]++
			}
		}
	}
	return buf, cursor
}

// Package graph implements the topology substrate of netmodel: an
// undirected weighted multigraph over densely numbered nodes.
//
// The representation follows the conventions of the AS-level modeling
// literature: nodes are autonomous systems (or routers), simple edges are
// adjacencies, and an integer edge multiplicity models link bandwidth —
// a single high-capacity connection is equivalent to multiple parallel
// unit connections. The "degree" of a node counts distinct neighbors
// (the topological degree k); its "strength" sums multiplicities (the
// weighted degree, bandwidth b).
//
// The mutable Graph keeps one row of (neighbor, multiplicity) arcs per
// node, sorted by neighbor id, plus a per-node strength counter, so
// Degree and Strength are O(1) and an edge lookup binary-searches the
// shorter of its two endpoint rows. Growth models attach new nodes,
// which carry the largest ids, so most insertions land at a row's tail.
// Node ids and multiplicities are int32, the envelope the frozen
// Snapshot shares. Analysis freezes the graph into an immutable
// compressed-sparse-row Snapshot, a straight copy of the rows.
//
// Self-loops are rejected: neither AS adjacencies nor router links are
// self-referential at this level of abstraction.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// arc is one entry of a node's row: neighbor id and edge multiplicity.
type arc struct {
	v, w int32
}

// Graph is an undirected weighted multigraph. The zero value is not
// usable; create instances with New.
type Graph struct {
	rows     [][]arc // per-node arcs sorted by neighbor; each edge appears in both endpoint rows
	str      []int   // per-node strength: the sum of the row's multiplicities
	m        int     // number of simple edges
	strength int     // total multiplicity over simple edges (counted once per edge)
	log      mutLog  // edges touched since the last freeze (see delta.go)
}

// Edge is a simple edge with its multiplicity; U < V always holds for
// edges returned by this package.
type Edge struct {
	U, V, W int
}

// checkNodes panics when a graph of n nodes would leave the int32 node-id
// envelope. The message is a constant so the check allocates nothing.
func checkNodes(n int) {
	if n > math.MaxInt32 {
		panic("graph: node count exceeds the 2147483647-node int32 envelope")
	}
}

// New returns a graph with n isolated nodes. It panics when n exceeds
// math.MaxInt32, before allocating anything.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	checkNodes(n)
	return &Graph{rows: make([][]arc, n), str: make([]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rows) }

// M returns the number of simple edges (distinct adjacent pairs).
func (g *Graph) M() int { return g.m }

// TotalStrength returns the sum of multiplicities over all simple edges —
// the total bandwidth B of the network. TotalStrength >= M always.
func (g *Graph) TotalStrength() int { return g.strength }

// MemEstimate returns the heap bytes the mutable graph holds: the row
// headers, every row's arc capacity, the strength array and the
// mutation log. Rows are plain slices, so the census is exact up to
// allocator size-class rounding.
func (g *Graph) MemEstimate() int64 {
	b := int64(cap(g.rows))*int64(unsafe.Sizeof([]arc(nil))) +
		int64(cap(g.str))*int64(unsafe.Sizeof(int(0))) +
		int64(cap(g.log.touched))*int64(unsafe.Sizeof(uint64(0)))
	for _, row := range g.rows {
		b += int64(cap(row)) * int64(unsafe.Sizeof(arc{}))
	}
	return b
}

// AddNode appends an isolated node and returns its index. It panics
// when the graph already holds math.MaxInt32 nodes.
func (g *Graph) AddNode() int {
	checkNodes(len(g.rows) + 1)
	g.rows = append(g.rows, nil)
	g.str = append(g.str, 0)
	return len(g.rows) - 1
}

// Reserve grows the node capacity to at least n without adding nodes,
// so a generator that knows its final size pays one allocation instead
// of repeated AddNode growth. N is unchanged.
func (g *Graph) Reserve(n int) {
	checkNodes(n)
	if extra := n - len(g.rows); extra > 0 {
		g.rows = slices.Grow(g.rows, extra)
		g.str = slices.Grow(g.str, extra)
	}
}

// valid reports whether u is an existing node index.
func (g *Graph) valid(u int) bool { return u >= 0 && u < len(g.rows) }

// search returns the position of neighbor v in the sorted row, or the
// position where it would be inserted, and whether it is present.
func search(row []arc, v int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if row[h].v < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(row) && row[lo].v == v
}

// locate returns the endpoint of (u,v) with the shorter row, the other
// endpoint, the position of the latter in the former's row and whether
// the edge exists; found is false for out-of-range endpoints.
func (g *Graph) locate(u, v int) (a, b, i int, found bool) {
	if !g.valid(u) || !g.valid(v) {
		return u, v, -1, false
	}
	if len(g.rows[u]) > len(g.rows[v]) {
		u, v = v, u
	}
	i, found = search(g.rows[u], int32(v))
	return u, v, i, found
}

// AddEdge adds one unit of multiplicity between u and v, creating the
// simple edge if absent. It returns true when the simple edge is new,
// and an error for invalid endpoints or a multiplicity that would
// overflow int32.
func (g *Graph) AddEdge(u, v int) (created bool, err error) {
	if !g.valid(u) || !g.valid(v) {
		return false, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.rows))
	}
	if u == v {
		return false, errors.New("graph: self-loops are not allowed")
	}
	a, b, i, found := g.locate(u, v)
	j, _ := search(g.rows[b], int32(a))
	if !found {
		g.rows[a] = slices.Insert(g.rows[a], i, arc{v: int32(b), w: 1})
		g.rows[b] = slices.Insert(g.rows[b], j, arc{v: int32(a), w: 1})
		g.m++
	} else {
		if g.rows[a][i].w == math.MaxInt32 {
			return false, fmt.Errorf("graph: multiplicity of edge (%d,%d) would overflow int32", u, v)
		}
		g.rows[a][i].w++
		g.rows[b][j].w++
	}
	g.str[u]++
	g.str[v]++
	g.strength++
	g.logTouch(u, v)
	return !found, nil
}

// MustAddEdge is AddEdge for callers that have already validated their
// indices (generators on their own nodes); it panics on error.
func (g *Graph) MustAddEdge(u, v int) bool {
	created, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return created
}

// RemoveEdge removes one unit of multiplicity between u and v, deleting
// the simple edge when the multiplicity reaches zero. It returns an error
// if the edge does not exist.
func (g *Graph) RemoveEdge(u, v int) error {
	a, b, i, found := g.locate(u, v)
	if !found {
		return fmt.Errorf("graph: edge (%d,%d) does not exist", u, v)
	}
	j, _ := search(g.rows[b], int32(a))
	if g.rows[a][i].w == 1 {
		g.rows[a] = slices.Delete(g.rows[a], i, i+1)
		g.rows[b] = slices.Delete(g.rows[b], j, j+1)
		g.m--
	} else {
		g.rows[a][i].w--
		g.rows[b][j].w--
	}
	g.str[u]--
	g.str[v]--
	g.strength--
	g.logTouch(u, v)
	return nil
}

// HasEdge reports whether the simple edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, _, _, found := g.locate(u, v)
	return found
}

// EdgeWeight returns the multiplicity of (u,v), zero if absent.
func (g *Graph) EdgeWeight(u, v int) int {
	a, _, i, found := g.locate(u, v)
	if !found {
		return 0
	}
	return int(g.rows[a][i].w)
}

// Degree returns the topological degree of u: its number of distinct
// neighbors.
func (g *Graph) Degree(u int) int { return len(g.rows[u]) }

// Strength returns the weighted degree (bandwidth) of u: the sum of
// multiplicities of its incident edges.
func (g *Graph) Strength(u int) int { return g.str[u] }

// Neighbors calls fn for every neighbor v of u with the edge multiplicity
// w, in ascending neighbor order, stopping early if fn returns false.
// fn must not mutate g.
func (g *Graph) Neighbors(u int, fn func(v, w int) bool) {
	for _, a := range g.rows[u] {
		if !fn(int(a.v), int(a.w)) {
			return
		}
	}
}

// Edges calls fn for every simple edge with u < v and multiplicity w,
// stopping early if fn returns false. Edges come sorted by (u, v).
func (g *Graph) Edges(fn func(u, v, w int) bool) {
	for u, row := range g.rows {
		for _, a := range row {
			if u < int(a.v) && !fn(u, int(a.v), int(a.w)) {
				return
			}
		}
	}
}

// EdgeList returns all simple edges sorted by (U,V), deterministic for a
// given topology.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.m)
	g.Edges(func(u, v, w int) bool {
		out = append(out, Edge{U: u, V: v, W: w})
		return true
	})
	return out
}

// AvgDegree returns the mean topological degree 2M/N, zero for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.rows) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.rows))
}

// MaxDegree returns the largest topological degree, zero for an empty
// graph.
func (g *Graph) MaxDegree() int {
	best := 0
	for _, row := range g.rows {
		best = max(best, len(row))
	}
	return best
}

// Copy returns a deep copy of g whose rows share one exactly sized arc
// buffer. The copy starts with no mutation log; its first Refreeze after
// a Freeze of its own pays a full rebuild.
func (g *Graph) Copy() *Graph {
	c := &Graph{rows: make([][]arc, len(g.rows)), str: slices.Clone(g.str), m: g.m, strength: g.strength}
	buf := make([]arc, 2*g.m)
	for u, row := range g.rows {
		c.rows[u] = buf[:len(row):len(row)]
		copy(c.rows[u], row)
		buf = buf[len(row):]
	}
	return c
}

// CheckInvariants verifies internal consistency: rows strictly
// ascending (so no repeated neighbor), no self-loops, positive
// multiplicities, every arc mirrored with the same multiplicity,
// per-node strengths and the edge and strength counters. It is intended
// for tests and returns the first violation found.
func (g *Graph) CheckInvariants() error {
	if len(g.str) != len(g.rows) {
		return fmt.Errorf("graph: %d strengths for %d rows", len(g.str), len(g.rows))
	}
	m, total := 0, 0
	for u, row := range g.rows {
		s := 0
		for k, a := range row {
			v := int(a.v)
			switch {
			case a.w <= 0:
				return fmt.Errorf("graph: non-positive multiplicity on (%d,%d)", u, v)
			case u == v:
				return fmt.Errorf("graph: self-loop on %d", u)
			case !g.valid(v):
				return fmt.Errorf("graph: arc (%d,%d) out of range", u, v)
			case k > 0 && row[k-1].v >= a.v:
				return fmt.Errorf("graph: row %d not strictly ascending at %d", u, v)
			}
			if j, ok := search(g.rows[v], int32(u)); !ok || g.rows[v][j].w != a.w {
				return fmt.Errorf("graph: arc (%d,%d) of multiplicity %d has no mirror", u, v, a.w)
			}
			s += int(a.w)
			if u < v {
				m++
				total += int(a.w)
			}
		}
		if s != g.str[u] {
			return fmt.Errorf("graph: strength of %d is %d, recount %d", u, g.str[u], s)
		}
	}
	if m != g.m {
		return fmt.Errorf("graph: edge counter %d, recount %d", g.m, m)
	}
	if total != g.strength {
		return fmt.Errorf("graph: strength counter %d, recount %d", g.strength, total)
	}
	return nil
}

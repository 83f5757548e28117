package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"netmodel/internal/par"
)

// Build constructs a graph over n nodes from an edge multiset, sharding
// row construction across workers (<= 0 means GOMAXPROCS). Each entry
// contributes max(1, W) units of multiplicity between U and V; repeated
// pairs accumulate. Self-loops, out-of-range endpoints and
// multiplicities beyond int32 are rejected.
//
// Nodes are assigned to workers by index (u % workers). Every worker
// scans the full edge slice, appends the arcs of the rows it owns into
// one exactly sized buffer, then sorts each row and folds repeated
// neighbors into one arc; the edge/strength counters reduce over nodes.
// All of it is integer arithmetic on a static schedule, so the result
// is identical for every worker count and equal to adding the edges
// sequentially. This is the back end of the sharded generators: plan
// shards produce edges, Build turns them into a Graph without a serial
// insertion pass.
func Build(n int, edges []Edge, workers int) (*Graph, error) {
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes exceed the %d-node limit", n, math.MaxInt32)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop on %d", e.U)
		}
		if e.W > math.MaxInt32 {
			return nil, fmt.Errorf("graph: edge (%d,%d) multiplicity %d overflows int32", e.U, e.V, e.W)
		}
	}
	g := New(n)
	if n == 0 {
		return g, nil
	}
	workers = min(par.Workers(workers), n)
	if len(edges) < 4*par.Chunk {
		workers = 1
	}
	tallies := make([]buildTally, workers)
	// Each owner pass is one coarse item, so the grain-one scheduler
	// keeps all passes genuinely concurrent.
	par.ForEach(workers, workers, func(_, w int) {
		tallies[w] = g.fillOwned(edges, w, workers)
	})
	for _, t := range tallies {
		if t.overflow {
			return nil, errors.New("graph: an accumulated edge multiplicity overflows int32")
		}
		g.m += t.m
		g.strength += t.s
	}
	return g, nil
}

// buildTally is one owner's share of the edge and strength counters;
// overflow reports an accumulated multiplicity beyond int32.
type buildTally struct {
	m, s     int
	overflow bool
}

// fillOwned builds the rows of every node u with u % workers == w. The
// per-node strength array doubles as the degree count that sizes the
// rows; only owned entries are touched, so owners never share a row.
func (g *Graph) fillOwned(edges []Edge, w, workers int) buildTally {
	n := g.N()
	for _, e := range edges {
		if e.U%workers == w {
			g.str[e.U]++
		}
		if e.V%workers == w {
			g.str[e.V]++
		}
	}
	total := 0
	for u := w; u < n; u += workers {
		total += g.str[u]
	}
	buf := make([]arc, total)
	for u := w; u < n; u += workers {
		d := g.str[u]
		g.rows[u] = buf[:0:d]
		buf = buf[d:]
	}
	for _, e := range edges {
		mult := int32(max(e.W, 1))
		if e.U%workers == w {
			g.rows[e.U] = append(g.rows[e.U], arc{v: int32(e.V), w: mult})
		}
		if e.V%workers == w {
			g.rows[e.V] = append(g.rows[e.V], arc{v: int32(e.U), w: mult})
		}
	}
	// Sort each row and fold repeated neighbors into one arc.
	var t buildTally
	for u := w; u < n; u += workers {
		row := g.rows[u]
		slices.SortFunc(row, func(x, y arc) int { return cmp.Compare(x.v, y.v) })
		k, s := 0, 0
		for _, a := range row {
			s += int(a.w)
			if int(a.v) > u {
				t.s += int(a.w)
			}
			if k > 0 && row[k-1].v == a.v {
				sum := int64(row[k-1].w) + int64(a.w)
				t.overflow = t.overflow || sum > math.MaxInt32
				row[k-1].w = int32(min(sum, math.MaxInt32))
				continue
			}
			if int(a.v) > u {
				t.m++
			}
			row[k] = a
			k++
		}
		g.rows[u] = row[:k]
		g.str[u] = s
	}
	return t
}

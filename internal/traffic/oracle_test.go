package traffic

import (
	"errors"

	"netmodel/internal/graph"
)

// The dense traffic matrix and its sequential map-based router are the
// reference RouteFrozenDemand and GravityDemand are tested against:
// every demand and load is computed the obvious way, O(N²) in memory.

// Matrix is a traffic matrix: Demand[u][v] is the offered load from u to
// v. It is dense; intended for maps up to a few thousand nodes.
type Matrix struct {
	Demand [][]float64
}

// Gravity builds a gravity-model matrix with the given per-node masses,
// scaled so the total offered load equals total. Self-demand is zero.
func Gravity(masses []float64, total float64) (*Matrix, error) {
	n := len(masses)
	if n < 2 {
		return nil, errors.New("traffic: need at least two nodes")
	}
	if total <= 0 {
		return nil, errors.New("traffic: total load must be positive")
	}
	var sum float64
	for _, m := range masses {
		if m < 0 {
			return nil, errors.New("traffic: negative mass")
		}
		sum += m
	}
	if sum == 0 {
		return nil, errors.New("traffic: all masses zero")
	}
	d := make([][]float64, n)
	var gross float64
	for u := range d {
		d[u] = make([]float64, n)
		for v := range d[u] {
			if u != v {
				d[u][v] = masses[u] * masses[v]
				gross += d[u][v]
			}
		}
	}
	scale := total / gross
	for u := range d {
		for v := range d[u] {
			d[u][v] *= scale
		}
	}
	return &Matrix{Demand: d}, nil
}

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	var s float64
	for _, row := range m.Demand {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// N implements Demand.
func (m *Matrix) N() int { return len(m.Demand) }

// Row implements Demand, copying the dense row into buf when it has
// the capacity — the shared Demand contract — and falling back to the
// backing row otherwise.
func (m *Matrix) Row(src int, buf []float64) []float64 {
	row := m.Demand[src]
	if cap(buf) >= len(row) {
		buf = buf[:len(row)]
		copy(buf, row)
		return buf
	}
	return row
}

// Route routes the matrix over hop-count shortest paths with even ECMP
// splitting, returning per-link loads. When useCapacity is set, each
// link's utilization is load divided by its multiplicity and the report
// carries the worst one.
func Route(g *graph.Graph, m *Matrix, useCapacity bool) (*LoadReport, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("traffic: empty graph")
	}
	if len(m.Demand) != n {
		return nil, errors.New("traffic: matrix size mismatch")
	}
	// edge index
	type ekey struct{ u, v int }
	loads := make(map[ekey]float64, g.M())
	key := func(u, v int) ekey {
		if u > v {
			u, v = v, u
		}
		return ekey{u, v}
	}
	rep := &LoadReport{}
	dist := make([]int, n)
	sigma := make([]float64, n)
	order := make([]int, 0, n)
	preds := make([][]int, n)
	flowIn := make([]float64, n) // demand from s entering v along shortest DAG
	for s := 0; s < n; s++ {
		// BFS shortest-path DAG from s (Brandes-style counting).
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			preds[i] = preds[i][:0]
			flowIn[i] = 0
		}
		order = order[:0]
		dist[s] = 0
		sigma[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			g.Neighbors(u, func(v, w int) bool {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
				return true
			})
		}
		// Push demand from the farthest nodes back toward s, splitting
		// over predecessors proportionally to path counts.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if v == s {
				continue
			}
			demand := m.Demand[s][v] + flowIn[v]
			if demand == 0 {
				continue
			}
			for _, p := range preds[v] {
				share := demand * sigma[p] / sigma[v]
				loads[key(p, v)] += share
				flowIn[p] += share
			}
		}
		for v := 0; v < n; v++ {
			if v != s && dist[v] < 0 {
				rep.Undelivered += m.Demand[s][v]
			}
		}
	}
	var sum float64
	for k, l := range loads {
		rep.Links = append(rep.Links, LinkLoad{U: k.u, V: k.v, Load: l})
		sum += l
		if l > rep.MaxLoad {
			rep.MaxLoad = l
		}
		if useCapacity {
			cap := float64(g.EdgeWeight(k.u, k.v))
			if cap > 0 {
				if util := l / cap; util > rep.MaxUtilization {
					rep.MaxUtilization = util
				}
			}
		}
	}
	if len(rep.Links) > 0 {
		rep.MeanLoad = sum / float64(len(rep.Links))
	}
	return rep, nil
}

// Package traffic turns topologies into load: gravity-model demand,
// shortest-path routing of demand onto links, and the utilization
// statistics that close the loop between topology and the capacity
// planning an ISP actually pays for.
//
// The gravity model is the standard traffic-matrix synthesis of the
// measurement literature: demand between u and v is proportional to
// m(u)·m(v), where the mass m is any per-node activity proxy (customer
// count, degree). Demand is routed on hop-count shortest paths with even
// splitting over ties (ECMP), the same abstraction used in path-level
// Internet studies.
package traffic

import (
	"errors"

	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
)

// Demand is a row-streamed view of a traffic matrix: the frozen router
// pulls one source row at a time, so implementations never need to hold
// all N² entries.
type Demand interface {
	// N returns the number of nodes the demand is defined over.
	N() int
	// Row returns the demand from src to every node (self-demand zero).
	// When buf has capacity for N entries, implementations reslice,
	// fill and return buf; otherwise they return an internal backing
	// row or a fresh slice. Either way the caller only reads the result
	// until its next Row call with the same buf, and never mutates it.
	Row(src int, buf []float64) []float64
}

// GravityDemand is the streaming form of the gravity model: row u is
// computed on demand as scale·m(u)·m(v), never materializing the dense
// N×N matrix — the representation that lets 100k-node maps route within
// memory.
type GravityDemand struct {
	masses []float64
	scale  float64
}

// NewGravityDemand validates masses and precomputes the scale factor
// under which total offered load equals total. The gross load is the
// closed form (Σm)² − Σm², so construction is O(N).
func NewGravityDemand(masses []float64, total float64) (*GravityDemand, error) {
	n := len(masses)
	if n < 2 {
		return nil, errors.New("traffic: need at least two nodes")
	}
	if total <= 0 {
		return nil, errors.New("traffic: total load must be positive")
	}
	var sum, sumSq float64
	for _, m := range masses {
		if m < 0 {
			return nil, errors.New("traffic: negative mass")
		}
		sum += m
		sumSq += m * m
	}
	gross := sum*sum - sumSq
	if gross <= 0 {
		return nil, errors.New("traffic: gravity demand needs at least two positive masses")
	}
	return &GravityDemand{masses: masses, scale: total / gross}, nil
}

// N implements Demand.
func (d *GravityDemand) N() int { return len(d.masses) }

// Row implements Demand, filling buf with scale·m(src)·m(v) under the
// shared contract: buf is resliced when its capacity suffices and
// replaced by a fresh slice otherwise (there is no dense backing row to
// fall back to).
func (d *GravityDemand) Row(src int, buf []float64) []float64 {
	if cap(buf) < len(d.masses) {
		buf = make([]float64, len(d.masses))
	}
	buf = buf[:len(d.masses)]
	w := d.masses[src] * d.scale
	for v, m := range d.masses {
		buf[v] = w * m
	}
	buf[src] = 0
	return buf
}

// LinkLoad holds the routed load of one simple edge.
type LinkLoad struct {
	U, V int
	Load float64
}

// LoadReport summarizes routing a matrix over a topology.
type LoadReport struct {
	Links       []LinkLoad // one entry per simple edge, order unspecified
	MaxLoad     float64
	MeanLoad    float64
	Undelivered float64 // demand between disconnected pairs
	// MaxUtilization is MaxLoad divided by the capacity of the busiest
	// link when capacities (edge multiplicities) are used, 0 otherwise.
	MaxUtilization float64
}

// RouteFrozenDemand routes a row-streamed demand over a frozen
// snapshot, sharding the per-source shortest-path DAG computations
// across `workers` goroutines (<= 0 means GOMAXPROCS). Demand rows are
// materialized per source inside each worker's scratch — row batches,
// never the dense N×N matrix — so gravity routing of a 100k-node map
// stays O(N) in demand memory. Each worker accumulates loads into its
// own per-edge array (edge ids from Snapshot.ArcEdgeIDs), merged in
// worker order; the result matches the dense sequential reference (the
// package tests' oracle) up to floating-point summation order and
// reproduces bit for bit at a fixed worker count.
func RouteFrozenDemand(s *graph.Snapshot, d Demand, useCapacity bool, workers int) (*LoadReport, error) {
	n := s.N()
	if n == 0 {
		return nil, errors.New("traffic: empty graph")
	}
	if d.N() != n {
		return nil, errors.New("traffic: matrix size mismatch")
	}
	workers = par.Workers(workers)
	arcEdge := s.ArcEdgeIDs()
	edges := s.EdgeList() // edges[id] is the simple edge with that id
	type routeScratch struct {
		dist, queue []int32
		sigma       []float64
		flowIn      []float64
		row         []float64
		loads       []float64
		undelivered float64
	}
	scratch := make([]*routeScratch, workers)
	par.For(n, len(scratch), func(w, src int) {
		sc := scratch[w]
		if sc == nil {
			sc = &routeScratch{
				dist:   make([]int32, n),
				queue:  make([]int32, n),
				sigma:  make([]float64, n),
				flowIn: make([]float64, n),
				row:    make([]float64, n),
				loads:  make([]float64, s.M()),
			}
			scratch[w] = sc
		}
		demandRow := d.Row(src, sc.row)
		order := metrics.BFSFrozen(s, src, sc.dist, sc.queue)
		for i := range sc.sigma {
			sc.sigma[i] = 0
			sc.flowIn[i] = 0
		}
		metrics.SigmaForward(s, src, order, sc.dist, sc.sigma)
		// Push demand from the farthest nodes back toward src, splitting
		// over shortest-path predecessors proportionally to path counts.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if int(v) == src {
				continue
			}
			demand := demandRow[v] + sc.flowIn[v]
			if demand == 0 {
				continue
			}
			dv := sc.dist[v]
			lo, _ := s.ArcRange(int(v))
			for j, p := range s.Neighbors(int(v)) {
				if sc.dist[p]+1 != dv {
					continue
				}
				share := demand * sc.sigma[p] / sc.sigma[v]
				sc.loads[arcEdge[int(lo)+j]] += share
				sc.flowIn[p] += share
			}
		}
		for v := 0; v < n; v++ {
			if v != src && sc.dist[v] < 0 {
				sc.undelivered += demandRow[v]
			}
		}
	})
	total := make([]float64, s.M())
	rep := &LoadReport{}
	for _, sc := range scratch {
		if sc == nil {
			continue
		}
		rep.Undelivered += sc.undelivered
		for id, l := range sc.loads {
			total[id] += l
		}
	}
	var sum float64
	for id, l := range total {
		if l == 0 {
			continue
		}
		e := edges[id]
		rep.Links = append(rep.Links, LinkLoad{U: e.U, V: e.V, Load: l})
		sum += l
		if l > rep.MaxLoad {
			rep.MaxLoad = l
		}
		if useCapacity && e.W > 0 {
			if util := l / float64(e.W); util > rep.MaxUtilization {
				rep.MaxUtilization = util
			}
		}
	}
	if len(rep.Links) > 0 {
		rep.MeanLoad = sum / float64(len(rep.Links))
	}
	return rep, nil
}

// HotSpots returns the indices (into rep.Links) of the k most loaded
// links, most loaded first; ties keep the lower index first. k values
// outside [0, len(Links)] are clamped.
func (rep *LoadReport) HotSpots(k int) []int {
	idx := make([]int, len(rep.Links))
	for i := range idx {
		idx[i] = i
	}
	// partial selection sort: k is small in practice
	if k < 0 {
		k = 0
	}
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if rep.Links[idx[j]].Load > rep.Links[idx[best]].Load {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// UniformMasses returns all-ones masses for n nodes.
func UniformMasses(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 1
	}
	return m
}

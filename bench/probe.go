package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// probeRefS is the probe's time on the host the bounds were set on (a
// 2-core 2.1 GHz Xeon VM, go1.24.0), measured with the host quiet. The
// normalized metrics are expressed at that speed.
const probeRefS = 0.15

// hostProbe is a fixed reference kernel that uses none of netmodel's
// code: breadth-first searches over a skewed random graph, then a sort.
// On a shared host the speed a process gets drifts by up to 1.6x over
// minutes. The probe is timed just before and just after each measured
// repetition, and the time metrics are scaled by probeRefS over its time,
// so a change to netmodel moves them and the host's drift mostly does
// not. Timed in the parent, it adds nothing to the child's memory
// metrics.
type hostProbe struct {
	off, adj   []int32 // the graph, compressed sparse rows
	dist, q    []int32 // breadth-first search scratch
	keys, sort []int
}

const (
	probeNodes   = 200000
	probeDegree  = 8 // mean degree
	probeSources = 8
	probeKeys    = 600000
)

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewPCG(1, 2))
	// Each node links to probeDegree/2 earlier nodes, half of them
	// uniformly and half by copying an endpoint of a random earlier edge,
	// which skews the degrees like the generated maps'.
	type edge struct{ a, b int32 }
	edges := make([]edge, 0, probeNodes*probeDegree/2)
	off := make([]int32, probeNodes+1)
	for u := 1; u < probeNodes; u++ {
		for k := 0; k < probeDegree/2; k++ {
			v := int32(r.IntN(u))
			if len(edges) > 0 && r.IntN(2) == 0 {
				if e := edges[r.IntN(len(edges))]; r.IntN(2) == 0 {
					v = e.a
				} else {
					v = e.b
				}
			}
			edges = append(edges, edge{int32(u), v})
			off[u+1]++
			off[v+1]++
		}
	}
	for i := 1; i <= probeNodes; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, off[probeNodes])
	pos := slices.Clone(off[:probeNodes])
	for _, e := range edges {
		adj[pos[e.a]], adj[pos[e.b]] = e.b, e.a
		pos[e.a]++
		pos[e.b]++
	}
	keys := make([]int, probeKeys)
	for i := range keys {
		keys[i] = r.Int()
	}
	p := &hostProbe{off: off, adj: adj, dist: make([]int32, probeNodes), q: make([]int32, 0, probeNodes),
		keys: keys, sort: make([]int, probeKeys)}
	p.time() // fault in the scratch pages, so that no timed call pays for it
	return p
}

// time runs the kernel once and returns its wall seconds.
func (p *hostProbe) time() float64 {
	t0 := time.Now()
	for k := 0; k < probeSources; k++ {
		p.bfs(int32(k * probeNodes / probeSources))
	}
	copy(p.sort, p.keys)
	slices.Sort(p.sort)
	return time.Since(t0).Seconds()
}

// bfs fills p.dist with hop counts from src (-1 where unreachable).
func (p *hostProbe) bfs(src int32) {
	for i := range p.dist {
		p.dist[i] = -1
	}
	p.dist[src] = 0
	q := append(p.q[:0], src)
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, v := range p.adj[p.off[u]:p.off[u+1]] {
			if p.dist[v] < 0 {
				p.dist[v] = p.dist[u] + 1
				q = append(q, v)
			}
		}
	}
	p.q = q
}

package metrics

import "netmodel/internal/graph"

// bruteBetweenness computes betweenness by explicit shortest-path
// enumeration over all pairs (exponential-ish, tiny graphs only).
func bruteBetweenness(g *graph.Graph) []float64 {
	srcs := make([]int, g.N())
	for i := range srcs {
		srcs[i] = i
	}
	return bruteBetweennessFrom(g, srcs, 1)
}

// bruteBetweennessFrom is bruteBetweenness restricted to paths that
// start at srcs, each source's contribution multiplied by scale — the
// sampled estimator written from its definition.
func bruteBetweennessFrom(g *graph.Graph, srcs []int, scale float64) []float64 {
	n := g.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	for _, s := range srcs {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			paths := shortestPaths(g, s, t)
			if len(paths) == 0 {
				continue
			}
			through := make([]int, n)
			for _, p := range paths {
				for _, v := range p[1 : len(p)-1] {
					through[v]++
				}
			}
			for v := 0; v < n; v++ {
				if v != s && v != t {
					bc[v] += scale * float64(through[v]) / float64(len(paths))
				}
			}
		}
	}
	norm := float64(n-1) * float64(n-2)
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// shortestPaths enumerates all shortest paths from s to t by BFS layers.
func shortestPaths(g *graph.Graph, s, t int) [][]int {
	dist := bfs(g, s)
	if dist[t] < 0 {
		return nil
	}
	var out [][]int
	var walk func(v int, acc []int)
	walk = func(v int, acc []int) {
		acc = append(acc, v)
		if v == s {
			rev := make([]int, len(acc))
			for i, x := range acc {
				rev[len(acc)-1-i] = x
			}
			out = append(out, rev)
			return
		}
		g.Neighbors(v, func(u, _ int) bool {
			if dist[u] == dist[v]-1 {
				walk(u, acc)
			}
			return true
		})
	}
	walk(t, nil)
	return out
}

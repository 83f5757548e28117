package metrics

import (
	"errors"
	"math"
	"sort"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// This file holds the test-only reference implementations the CSR
// kernels are checked against: small graph builders, and the
// straightforward adjacency-map versions of the metrics that have no
// brute-force enumeration oracle (BFS distances, path statistics,
// closeness, clustering, the degree family) plus the metric-vector
// compositions built from them. They walk *graph.Graph maps with none
// of the kernels' flat-array, sorted-row or direction-optimizing
// tricks, so agreement is evidence of correctness, not of a shared bug.

// star builds a star graph: node 0 connected to 1..n-1.
func star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// path builds a path graph 0-1-...-n-1.
func path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// complete builds K_n.
func complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

// cycleGraph builds C_n.
func cycleGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return g
}

// triangleWithTail builds the triangle 0-1-2 with the pendant edge 2-3.
func triangleWithTail() *graph.Graph {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	return g
}

// randomGraph builds an Erdős–Rényi-ish graph for cross-checks.
func randomGraph(r *rng.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustAddEdge(i, j)
			}
		}
	}
	return g
}

// bfs returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func bfs(g *graph.Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.Neighbors(u, func(v, w int) bool {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
			return true
		})
	}
	return dist
}

// pathLengths measures shortest-path statistics by BFS from every node
// (sources <= 0 or >= N) or from the first `sources` entries of r.Perm.
func pathLengths(g *graph.Graph, r *rng.Rand, sources int) (PathStats, error) {
	n := g.N()
	if n == 0 {
		return PathStats{}, errors.New("metrics: empty graph")
	}
	var srcs []int
	if sources <= 0 || sources >= n {
		srcs = make([]int, n)
		for i := range srcs {
			srcs[i] = i
		}
	} else {
		if r == nil {
			return PathStats{}, errors.New("metrics: sampling requires a generator")
		}
		srcs = r.Perm(n)[:sources]
	}
	counts := make(map[int]int)
	total, sum, diam := 0, 0.0, 0
	for _, s := range srcs {
		for v, d := range bfs(g, s) {
			if v == s || d <= 0 {
				continue
			}
			counts[d]++
			total++
			sum += float64(d)
			if d > diam {
				diam = d
			}
		}
	}
	st := PathStats{Distribution: make(map[int]float64, len(counts)), Diameter: diam, Sources: len(srcs)}
	if total > 0 {
		st.Avg = sum / float64(total)
		for d, c := range counts {
			st.Distribution[d] = float64(c) / float64(total)
		}
	}
	return st, nil
}

// closeness is Wasserman-Faust closeness from one BFS per node.
func closeness(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		sum, reach := 0, 0
		for _, d := range bfs(g, u) {
			if d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			out[u] = float64(reach) / float64(sum) * float64(reach) / float64(n-1)
		}
	}
	return out
}

// harmonicCloseness is Σ_v 1/d(u,v) / (N-1) from one BFS per node.
func harmonicCloseness(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	for u := 0; u < n; u++ {
		sum := 0.0
		for _, d := range bfs(g, u) {
			if d > 0 {
				sum += 1 / float64(d)
			}
		}
		out[u] = sum / float64(n-1)
	}
	return out
}

// localClustering derives c(u) = 2T(u) / (k_u (k_u - 1)) from the
// brute-force triangle enumeration.
func localClustering(g *graph.Graph) []float64 {
	t := bruteTrianglesPerNode(g)
	c := make([]float64, g.N())
	for u := range c {
		if k := g.Degree(u); k >= 2 {
			c[u] = 2 * float64(t[u]) / float64(k*(k-1))
		}
	}
	return c
}

// avgClustering averages local clustering over nodes of degree >= 2.
func avgClustering(g *graph.Graph) float64 {
	sum, n := 0.0, 0
	for u, c := range localClustering(g) {
		if g.Degree(u) >= 2 {
			sum += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// transitivity is 3·triangles / #connected-triples.
func transitivity(g *graph.Graph) float64 {
	tri := 0
	for _, t := range bruteTrianglesPerNode(g) {
		tri += t
	}
	triples := 0
	for u := 0; u < g.N(); u++ {
		k := g.Degree(u)
		triples += k * (k - 1) / 2
	}
	if triples == 0 {
		return 0
	}
	return 3 * float64(tri/3) / float64(triples)
}

// clusteringSpectrum is the mean local clustering per degree >= 2.
func clusteringSpectrum(g *graph.Graph) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u, c := range localClustering(g) {
		if k := g.Degree(u); k >= 2 {
			sum[k] += c
			cnt[k]++
		}
	}
	out := make(map[int]float64, len(sum))
	for k, s := range sum {
		out[k] = s / float64(cnt[k])
	}
	return out
}

// degreesAsFloats returns the degree sequence as float64.
func degreesAsFloats(g *graph.Graph) []float64 {
	out := make([]float64, g.N())
	for u := range out {
		out[u] = float64(g.Degree(u))
	}
	return out
}

// degreeHistogram returns hist[k] = number of nodes of degree k.
func degreeHistogram(g *graph.Graph) []int {
	hist := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.N(); u++ {
		hist[g.Degree(u)]++
	}
	return hist
}

// degreeDistribution returns P(k) keyed by degree.
func degreeDistribution(g *graph.Graph) map[int]float64 {
	out := make(map[int]float64)
	n := g.N()
	if n == 0 {
		return out
	}
	for u := 0; u < n; u++ {
		out[g.Degree(u)]++
	}
	for k := range out {
		out[k] /= float64(n)
	}
	return out
}

// degreeCCDF returns Pc(k) = Σ_{k' >= k} P(k') sorted by k.
func degreeCCDF(g *graph.Graph) (ks []int, pc []float64) {
	dist := degreeDistribution(g)
	for k := range dist {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	pc = make([]float64, len(ks))
	cum := 0.0
	for i := len(ks) - 1; i >= 0; i-- {
		cum += dist[ks[i]]
		pc[i] = cum
	}
	return ks, pc
}

// knn is the average nearest-neighbor degree spectrum k̄nn(k).
func knn(g *graph.Graph) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		k := g.Degree(u)
		if k == 0 {
			continue
		}
		nsum := 0.0
		g.Neighbors(u, func(v, w int) bool {
			nsum += float64(g.Degree(v))
			return true
		})
		sum[k] += nsum / float64(k)
		cnt[k]++
	}
	out := make(map[int]float64, len(sum))
	for k, s := range sum {
		out[k] = s / float64(cnt[k])
	}
	return out
}

// assortativity is Newman's r over both orientations of every edge.
func assortativity(g *graph.Graph) float64 {
	var n, sx, sy, sxx, syy, sxy float64
	g.Edges(func(u, v, w int) bool {
		du, dv := float64(g.Degree(u)), float64(g.Degree(v))
		for _, p := range [2][2]float64{{du, dv}, {dv, du}} {
			n++
			sx += p[0]
			sy += p[1]
			sxx += p[0] * p[0]
			syy += p[1] * p[1]
			sxy += p[0] * p[1]
		}
		return true
	})
	if n < 2 {
		return 0
	}
	num := sxy/n - (sx/n)*(sy/n)
	den := math.Sqrt((sxx/n - (sx/n)*(sx/n)) * (syy/n - (sy/n)*(sy/n)))
	if den == 0 {
		return 0
	}
	return num / den
}

// maxCore is the deepest shell of the peeling oracle.
func maxCore(g *graph.Graph) int {
	m := 0
	for _, c := range bruteCoreness(g) {
		m = max(m, c)
	}
	return m
}

// components returns the connected components of s as sorted node
// slices, largest first with ties broken by smallest contained index —
// the ranking whose first entry ComponentsHybrid's giant label must name.
func components(s *graph.Snapshot) [][]int {
	n := s.N()
	seen := make([]bool, n)
	var comps [][]int
	for src := 0; src < n; src++ {
		if seen[src] {
			continue
		}
		seen[src] = true
		comp := []int{src}
		for head := 0; head < len(comp); head++ {
			for _, v := range s.Neighbors(comp[head]) {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, int(v))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// giantOf returns the largest connected component of g (the first of
// components), renumbered in ascending order of the original ids, as a
// mutable graph.
func giantOf(g *graph.Graph) *graph.Graph {
	s := g.Freeze()
	comps := components(s)
	if len(comps) == 0 {
		return graph.New(0)
	}
	toNew := make([]int, s.N())
	for i := range toNew {
		toNew[i] = -1
	}
	for i, u := range comps[0] {
		toNew[u] = i
	}
	var edges []graph.Edge
	for _, e := range s.EdgeList() {
		if toNew[e.U] >= 0 {
			edges = append(edges, graph.Edge{U: toNew[e.U], V: toNew[e.V], W: e.W})
		}
	}
	giant, err := graph.Build(len(comps[0]), edges, 1)
	if err != nil {
		panic(err)
	}
	return giant
}

// measure is the reference metric vector: path and core statistics on
// the giant component, the degree tail fitted by discrete MLE.
func measure(g *graph.Graph, r *rng.Rand, pathSources int) (Snapshot, error) {
	s := Snapshot{N: g.N(), M: g.M(), AvgDegree: g.AvgDegree(), MaxDegree: g.MaxDegree()}
	if g.N() == 0 {
		s.GiantFrac = 1
		return s, nil
	}
	if fit, err := stats.FitPowerLawDiscrete(degreesAsFloats(g)); err == nil {
		s.Gamma, s.GammaKS = fit.Alpha, fit.KS
	}
	s.AvgClustering = avgClustering(g)
	s.Transitivity = transitivity(g)
	s.Assortativity = assortativity(g)
	giant := giantOf(g)
	s.GiantFrac = float64(giant.N()) / float64(g.N())
	if giant.N() > 1 {
		ps, err := pathLengths(giant, r, pathSources)
		if err != nil {
			return s, err
		}
		s.AvgPathLen, s.Diameter = ps.Avg, ps.Diameter
	}
	s.MaxCore = maxCore(g)
	return s, nil
}

// measureGrowth is the reference growth observation vector (without
// the distance family).
func measureGrowth(g *graph.Graph) GrowthStats {
	st := GrowthStats{N: g.N(), M: g.M(), Strength: g.TotalStrength(), AvgDegree: g.AvgDegree(), MaxDegree: g.MaxDegree()}
	if g.N() == 0 {
		return st
	}
	if fit, err := stats.FitPowerLawHistogram(degreeHistogram(g)); err == nil {
		st.Gamma, st.GammaKS = fit.Alpha, fit.KS
	}
	st.AvgClustering = avgClustering(g)
	st.Transitivity = transitivity(g)
	st.MaxCore = maxCore(g)
	return st
}

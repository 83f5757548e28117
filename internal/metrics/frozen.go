package metrics

import (
	"errors"
	"math"
	"sort"

	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// This file holds the CSR kernels of the metrics package: every kernel
// accepts an immutable *graph.Snapshot and scans its flat sorted
// arrays. The per-source and per-node kernels (BFSFrozen,
// BrandesFrozen, CycleNodeFrozen) are exported so the parallel engine
// can shard them across workers, the triangle kernel shards itself
// (TrianglesPerNodeWith), and the *From* reducers turn their outputs
// into whole-graph statistics. Whole-graph metrics are measured through
// internal/engine; PathLengthsFrozen stays as the per-source reference
// the engine's batched path statistics are tested against.

// BFSFrozen fills dist with the hop distance from src to every node
// (-1 for unreachable) and returns the BFS visit order in queue. Both
// dist and queue must have length s.N(); their previous contents are
// discarded. The returned slice is queue truncated to the visited
// count.
func BFSFrozen(s *graph.Snapshot, src int, dist []int32, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= s.N() {
		return queue[:0]
	}
	dist[src] = 0
	queue[0] = int32(src)
	size := 1
	for head := 0; head < size; head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range s.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue[size] = v
				size++
			}
		}
	}
	return queue[:size]
}

// BrandesScratch is the reusable per-worker state of one Brandes source
// traversal.
type BrandesScratch struct {
	dist  []int32
	sigma []float64
	delta []float64
	queue []int32
}

// NewBrandesScratch allocates scratch for an n-node snapshot.
func NewBrandesScratch(n int) *BrandesScratch {
	return &BrandesScratch{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		queue: make([]int32, n),
	}
}

// SigmaForward fills sigma with the number of shortest paths from src
// to every node, given the BFS visit order and distances of one
// BFSFrozen run. sigma must have length s.N() and be zeroed on entry.
// Shared by Brandes betweenness and the ECMP traffic router so path
// counting can never diverge between them.
func SigmaForward(s *graph.Snapshot, src int, order []int32, dist []int32, sigma []float64) {
	sigma[src] = 1
	for _, u := range order {
		du := dist[u]
		su := sigma[u]
		for _, v := range s.Neighbors(int(u)) {
			if dist[v] == du+1 {
				sigma[v] += su
			}
		}
	}
}

// BrandesFrozen runs one source of Brandes' betweenness algorithm over
// the snapshot, adding scale times each node's dependency into bc. The
// backward pass rescans neighbor rows instead of storing predecessor
// lists: for unweighted BFS DAGs, v precedes w exactly when
// dist[v]+1 == dist[w].
func BrandesFrozen(s *graph.Snapshot, src int, sc *BrandesScratch, bc []float64, scale float64) {
	for i := range sc.sigma {
		sc.sigma[i] = 0
		sc.delta[i] = 0
	}
	order := BFSFrozen(s, src, sc.dist, sc.queue)
	SigmaForward(s, src, order, sc.dist, sc.sigma)
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		coeff := (1 + sc.delta[w]) / sc.sigma[w]
		dw := sc.dist[w]
		for _, v := range s.Neighbors(int(w)) {
			if sc.dist[v]+1 == dw {
				sc.delta[v] += sc.sigma[v] * coeff
			}
		}
		if int(w) != src {
			bc[w] += sc.delta[w] * scale
		}
	}
}

// PathSources is the source selection of the path statistics: all
// nodes when sources <= 0 or >= n, otherwise a uniform sample. It
// errors on an empty graph and on sampling without a generator.
func PathSources(n int, r *rng.Rand, sources int) ([]int, error) {
	if n == 0 {
		return nil, errors.New("metrics: empty graph")
	}
	if sources <= 0 || sources >= n {
		srcs := make([]int, n)
		for i := range srcs {
			srcs[i] = i
		}
		return srcs, nil
	}
	if r == nil {
		return nil, errors.New("metrics: sampling requires a generator")
	}
	return r.Perm(n)[:sources], nil
}

// PathHistogram is the exact integer reduction of a set of BFS sources:
// counts[d] pairs at distance d, plus the running sum and diameter.
// Merging histograms and converting with ToStats reproduces the
// floating-point results of a single sequential pass bit for bit,
// because every intermediate quantity is integral.
type PathHistogram struct {
	Counts []int64
	Sum    int64
	Total  int64
}

// AccumulateDistances folds one BFS distance vector (from source src)
// into the histogram.
func (h *PathHistogram) AccumulateDistances(src int, dist []int32) {
	for v, d := range dist {
		if v == src || d <= 0 {
			continue
		}
		for int(d) >= len(h.Counts) {
			h.Counts = append(h.Counts, make([]int64, len(h.Counts)+8)...)
		}
		h.Counts[d]++
		h.Sum += int64(d)
		h.Total++
	}
}

// Merge adds other into h.
func (h *PathHistogram) Merge(other *PathHistogram) {
	if len(other.Counts) > len(h.Counts) {
		h.Counts = append(h.Counts, make([]int64, len(other.Counts)-len(h.Counts))...)
	}
	for d, c := range other.Counts {
		h.Counts[d] += c
	}
	h.Sum += other.Sum
	h.Total += other.Total
}

// ToStats converts the histogram into PathStats for the given source
// count.
func (h *PathHistogram) ToStats(sources int) PathStats {
	st := PathStats{Distribution: make(map[int]float64), Sources: sources}
	for d := len(h.Counts) - 1; d >= 1; d-- {
		if h.Counts[d] > 0 {
			st.Diameter = d
			break
		}
	}
	if h.Total > 0 {
		st.Avg = float64(h.Sum) / float64(h.Total)
		for d, c := range h.Counts {
			if c > 0 {
				st.Distribution[d] = float64(c) / float64(h.Total)
			}
		}
	}
	return st
}

// PathLengthsFrozen measures shortest-path statistics by BFS from every
// node (sources <= 0 or >= N) or from a uniform sample of `sources`
// nodes. Sampling makes the N² cost tractable on large maps; the
// distribution estimate is unbiased for connected graphs. It runs one
// BFSHybrid per source and is the reference the engine's batched
// MS-BFS statistics are tested against.
func PathLengthsFrozen(s *graph.Snapshot, r *rng.Rand, sources int) (PathStats, error) {
	n := s.N()
	srcs, err := PathSources(n, r, sources)
	if err != nil {
		return PathStats{}, err
	}
	dist := make([]int32, n)
	sc := NewBFSScratch(n)
	var h PathHistogram
	for _, src := range srcs {
		BFSHybrid(s, src, dist, sc)
		h.AccumulateDistances(src, dist)
	}
	return h.ToStats(len(srcs)), nil
}

// orientedRows is the degree-oriented out-adjacency of a snapshot, the
// input of the triangle kernel. Nodes are ranked by (degree, id), and
// the edge {u, v} is kept once, in the row of its lower-ranked end, so
// a hub keeps only its few higher-degree neighbours. Each row is the
// snapshot's id-sorted row with the lower-ranked neighbours filtered
// out, so it stays sorted by id and the build needs no sort.
type orientedRows struct {
	off []int32 // len N+1; out-row of u is adj[off[u]:off[u+1]]
	adj []int32 // len M
}

// orientByDegree builds the degree-oriented out-rows of s in one pass
// over its rows: u -> v exists iff (deg u, u) < (deg v, v). Rows are
// read through offsets/ends, so refreshed snapshots with slack work.
func orientByDegree(s *graph.Snapshot) orientedRows {
	n := s.N()
	offsets, ends, nbrs := s.CSR()
	r := orientedRows{off: make([]int32, n+1), adj: make([]int32, s.M())}
	k := int32(0)
	for u := 0; u < n; u++ {
		r.off[u] = k
		du := ends[u] - offsets[u]
		for _, v := range nbrs[offsets[u]:ends[u]] {
			if dv := ends[v] - offsets[v]; dv > du || dv == du && int(v) > u {
				r.adj[k] = v
				k++
			}
		}
	}
	r.off[n] = k
	return r
}

// countTriangles counts every triangle whose lowest-ranked corner is u,
// crediting all three corners in t (len N). It marks out(u) in mark, a
// bitset with one bit per node that is zero on entry and zero again on
// return, then scans out(v) for every v in out(u): each marked w
// closes a triangle. A merge of out(u) with out(v) would find the same
// w but re-read out(u) for every v. A triangle of rank order
// a < b < c is found exactly once, at u = a, v = b, w = c, so calls
// for disjoint sets of u partition the triangle set and per-worker t
// arrays sum to the exact per-node counts. Orienting by rank bounds
// the total work at O(M^1.5) (Chiba–Nishizeki).
func (r orientedRows) countTriangles(u int, t []int, mark []uint64) {
	off, adj := r.off, r.adj
	a := adj[off[u]:off[u+1]]
	if len(a) < 2 {
		return
	}
	for _, w := range a {
		mark[w>>6] |= 1 << (w & 63)
	}
	tu := 0
	for _, v := range a {
		tv := 0
		for _, w := range adj[off[v]:off[v+1]] {
			if mark[w>>6]&(1<<(w&63)) != 0 {
				t[w]++
				tv++
			}
		}
		t[v] += tv
		tu += tv
	}
	t[u] += tu
	for _, w := range a {
		mark[w>>6] = 0
	}
}

// TrianglesPerNodeWith returns T(u), the number of triangles through
// each node, counted on the simple adjacency structure with the
// degree-oriented kernel across workers (<= 0 means GOMAXPROCS). The
// out-rows are built once per call; the counting loop over u is
// sharded with par.For, each worker with its own mark bitset. Worker 0
// counts straight into the result, so one worker allocates no partial;
// each further worker's partial array is summed in afterwards, which
// is exact at any worker count because every triangle is found once.
func TrianglesPerNodeWith(s *graph.Snapshot, workers int) []int {
	n := s.N()
	workers = par.Workers(workers)
	r := orientByDegree(s)
	t := make([]int, n)
	partial := make([][]int, workers)
	mark := make([][]uint64, workers)
	partial[0] = t
	par.For(n, workers, func(w, u int) {
		if partial[w] == nil {
			partial[w] = make([]int, n)
		}
		if mark[w] == nil {
			mark[w] = make([]uint64, (n+63)/64)
		}
		r.countTriangles(u, partial[w], mark[w])
	})
	for _, p := range partial[1:] {
		for i, v := range p {
			t[i] += v
		}
	}
	return t
}

// LocalClusteringFromTriangles converts per-node triangle counts into
// local clustering coefficients c(u) = 2T(u) / (k_u (k_u - 1)), with
// c = 0 for degree < 2.
func LocalClusteringFromTriangles(s *graph.Snapshot, t []int) []float64 {
	c := make([]float64, s.N())
	for u := range c {
		k := s.Degree(u)
		if k >= 2 {
			c[u] = 2 * float64(t[u]) / float64(k*(k-1))
		}
	}
	return c
}

// AvgClusteringFromTriangles averages local clustering over nodes of
// degree >= 2 (the convention of the AS-map measurements; including
// low-degree nodes would only dilute the signal with structural zeros)
// straight from per-node triangle counts, without building the
// local-clustering vector. Each node's term is the expression of
// LocalClusteringFromTriangles, rounded to float64 before it joins the
// sum, and the terms are summed in node order, so the result equals
// averaging that vector over the same nodes bit for bit.
func AvgClusteringFromTriangles(s *graph.Snapshot, t []int) float64 {
	sum, n := 0.0, 0
	for u := range t {
		if k := s.Degree(u); k >= 2 {
			sum += float64(2 * float64(t[u]) / float64(k*(k-1)))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TransitivityFromTriangles computes the global clustering coefficient
// 3·triangles / #connected-triples from per-node triangle counts.
func TransitivityFromTriangles(s *graph.Snapshot, t []int) float64 {
	tri := 0
	for _, ti := range t {
		tri += ti
	}
	tri /= 3
	triples := 0
	for u := 0; u < s.N(); u++ {
		k := s.Degree(u)
		triples += k * (k - 1) / 2
	}
	if triples == 0 {
		return 0
	}
	return 3 * float64(tri) / float64(triples)
}

// ClusteringSpectrumFromLocal bins local clustering by degree into the
// c(k) spectrum: the mean local clustering of nodes of degree k, for
// every occurring degree >= 2. A decaying spectrum c(k) ~ k^-1 signals
// hierarchical structure (Ravasz-Barabási); the AS map decays with
// exponent ≈ 0.75.
func ClusteringSpectrumFromLocal(s *graph.Snapshot, c []float64) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := range c {
		k := s.Degree(u)
		if k < 2 {
			continue
		}
		sum[k] += c[u]
		cnt[k]++
	}
	out := make(map[int]float64, len(sum))
	for k, v := range sum {
		out[k] = v / float64(cnt[k])
	}
	return out
}

// KCoreFrozen computes the k-core decomposition with the
// Batagelj-Zaversnik bucket algorithm, O(M). The coreness of node u is
// the largest k such that u belongs to a maximal subgraph of minimum
// degree k. The decomposition exposes the Internet's hierarchical shell
// structure (LANET-VI style analyses).
func KCoreFrozen(s *graph.Snapshot) KCoreResult {
	n := s.N()
	res := KCoreResult{Coreness: make([]int, n)}
	if n == 0 {
		return res
	}
	work := make([]int32, 3*n)
	core := work[:n]
	res.MaxCore = peel(s, core, work[n:2*n], work[2*n:])
	for u, c := range core {
		res.Coreness[u] = int(c)
	}
	return res
}

// peel is the Batagelj-Zaversnik bucket peel shared by KCoreFrozen and
// the CoreMap build, on int32 working arrays of length s.N(): core
// receives each node's coreness, vert the removal order and pos its
// inverse. The removal order visits levels in ascending coreness, so it
// is a valid k-order. peel returns the largest coreness.
func peel(s *graph.Snapshot, core, vert, pos []int32) int {
	n := s.N()
	if n == 0 {
		return 0
	}
	offsets, ends, nbrs := s.CSR()
	maxDeg := int32(0)
	for u := 0; u < n; u++ {
		core[u] = ends[u] - offsets[u]
		if core[u] > maxDeg {
			maxDeg = core[u]
		}
	}
	// bin[d] is the first position of degree bucket d in vert.
	bin := make([]int32, maxDeg+1)
	for _, d := range core {
		bin[d]++
	}
	start := int32(0)
	for d, num := range bin {
		bin[d] = start
		start += num
	}
	for u, d := range core {
		pos[u] = bin[d]
		vert[bin[d]] = int32(u)
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	for _, v := range vert {
		cv := core[v]
		for _, u := range nbrs[offsets[v]:ends[v]] {
			cu := core[u]
			if cu <= cv {
				continue
			}
			pu, pw := pos[u], bin[cu]
			if w := vert[pw]; w != u {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[cu]++
			core[u]--
		}
	}
	return int(core[vert[n-1]])
}

// RichClubFrozen returns φ(k) = 2E_{>k} / (N_{>k}(N_{>k}−1)) for every
// degree threshold k at which the club membership changes, sorted by k
// ascending. φ approaching 1 at high thresholds is the "rich-club
// phenomenon" of the AS-level Internet (Zhou-Mondragón 2004): top-degree
// ASs form a near-clique.
//
// Cost is O(M + N log N): nodes are added in descending degree order
// while edge counts into the current club are accumulated incrementally.
func RichClubFrozen(s *graph.Snapshot) []RichClubPoint {
	n := s.N()
	if n < 2 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := s.Degree(order[a]), s.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	inClub := make([]bool, n)
	edges := 0
	var out []RichClubPoint
	for idx := 0; idx < n; {
		d := s.Degree(order[idx])
		for idx < n && s.Degree(order[idx]) == d {
			u := order[idx]
			for _, v := range s.Neighbors(u) {
				if inClub[v] {
					edges++
				}
			}
			inClub[u] = true
			idx++
		}
		if d == 0 {
			break
		}
		club := idx
		p := RichClubPoint{K: d - 1, N: club, E: edges}
		if club >= 2 {
			p.Phi = 2 * float64(edges) / (float64(club) * float64(club-1))
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// CycleScratch is the reusable per-worker state of CycleNodeFrozen.
type CycleScratch struct {
	cnt     []int64
	touched []int32
}

// NewCycleScratch allocates scratch for an n-node snapshot.
func NewCycleScratch(n int) *CycleScratch {
	return &CycleScratch{cnt: make([]int64, n), touched: make([]int32, 0, 256)}
}

// CycleNodeFrozen computes node i's contribution to the ordered 4-cycle
// sum Σ_{j≠i} C(codeg(i,j),2) and to tr A⁵ in one 2-neighborhood pass.
// Summing over all i yields Σ_i Σ_{j≠i} C(codeg(i,j),2) and tr A⁵: the
// 4-cycle term skips the k == i diagonal that the count vector retains
// for the quadratic form.
func CycleNodeFrozen(s *graph.Snapshot, i int, sc *CycleScratch) (ordered4, trA5 int64) {
	sc.touched = sc.touched[:0]
	for _, j := range s.Neighbors(i) {
		for _, k := range s.Neighbors(int(j)) {
			if sc.cnt[k] == 0 {
				sc.touched = append(sc.touched, k)
			}
			sc.cnt[k]++
		}
	}
	for _, k := range sc.touched {
		if int(k) != i {
			c := sc.cnt[k]
			ordered4 += c * (c - 1) / 2
		}
	}
	for _, u := range sc.touched {
		cu := sc.cnt[u]
		for _, v := range s.Neighbors(int(u)) {
			if cv := sc.cnt[v]; cv != 0 {
				trA5 += cu * cv
			}
		}
	}
	for _, u := range sc.touched {
		sc.cnt[u] = 0
	}
	return ordered4, trA5
}

// CyclesFromParts assembles exact 3-, 4- and 5-cycle counts from
// per-node triangle counts and the summed CycleNodeFrozen
// contributions; degree(i) is read from the snapshot.
//
// C3 comes from per-node triangle counts. C4 uses the codegree identity
// C4 = ¼ Σ_{i≠j} C(codeg(i,j), 2). C5 uses the trace identity
//
//	C5 = (tr A⁵ − 5 tr A³ − 5 Σ_i (d_i−2)(A³)_ii) / 10
//
// with tr A⁵ evaluated node by node as (A²e_i)ᵀA(A²e_i), (A³)_ii = 2T(i)
// and tr A³ = 6·C3. The cost is dominated by the A² rows of the hubs;
// exact counting is intended for maps up to a few thousand nodes (the
// scaling-experiment regime).
func CyclesFromParts(s *graph.Snapshot, tri []int, ordered4, trA5 int64) CycleCounts {
	var out CycleCounts
	n := s.N()
	if n < 3 {
		return out
	}
	var totalT int64
	for _, t := range tri {
		totalT += int64(t)
	}
	out.C3 = totalT / 3
	out.C4 = ordered4 / 4
	if n < 5 {
		return out
	}
	var corr int64
	for i, t := range tri {
		corr += int64(s.Degree(i)-2) * 2 * int64(t)
	}
	trA3 := 6 * out.C3
	out.C5 = (trA5 - 5*trA3 - 5*corr) / 10
	return out
}

// DegreesAsFloatsFrozen returns the degree sequence as float64 for the
// stats package (power-law fitting).
func DegreesAsFloatsFrozen(s *graph.Snapshot) []float64 {
	out := make([]float64, s.N())
	for u := range out {
		out[u] = float64(s.Degree(u))
	}
	return out
}

// DegreeDistributionFrozen returns P(k), the fraction of nodes with
// each occurring topological degree, keyed by degree.
func DegreeDistributionFrozen(s *graph.Snapshot) map[int]float64 {
	out := make(map[int]float64)
	n := s.N()
	if n == 0 {
		return out
	}
	for u := 0; u < n; u++ {
		out[s.Degree(u)]++
	}
	for k := range out {
		out[k] /= float64(n)
	}
	return out
}

// DegreeCCDFFrozen returns the cumulative degree distribution
// Pc(k) = Σ_{k' >= k} P(k') as (k, Pc) pairs sorted by k. This is the
// curve plotted in every AS-map degree figure.
func DegreeCCDFFrozen(s *graph.Snapshot) (ks []int, pc []float64) {
	dist := DegreeDistributionFrozen(s)
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

// KnnFrozen returns the average nearest-neighbor degree spectrum
// k̄nn(k): for each occurring degree k, the mean over nodes of degree k
// of the mean degree of their neighbors. A decreasing spectrum is the
// signature of the Internet's disassortativity (Pastor-Satorras et al.
// 2001).
func KnnFrozen(s *graph.Snapshot) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for u := 0; u < s.N(); u++ {
		k := s.Degree(u)
		if k == 0 {
			continue
		}
		nsum := 0.0
		for _, v := range s.Neighbors(u) {
			nsum += float64(s.Degree(int(v)))
		}
		sum[k] += nsum / float64(k)
		cnt[k]++
	}
	out := make(map[int]float64, len(sum))
	for k, v := range sum {
		out[k] = v / float64(cnt[k])
	}
	return out
}

// AssortativityFrozen returns the Pearson degree-degree correlation
// coefficient over edges (Newman's r). Negative values mean
// disassortative mixing; the AS-level Internet measures r ≈ -0.19. It
// returns 0 for graphs with fewer than 2 edges or zero variance.
func AssortativityFrozen(s *graph.Snapshot) float64 {
	var n, sx, sy, sxx, syy, sxy float64
	s.Edges(func(u, v, w int) bool {
		// Count each edge in both orientations so r is symmetric.
		du, dv := float64(s.Degree(u)), float64(s.Degree(v))
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

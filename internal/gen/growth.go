package gen

import (
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// This file is the sharded growth kernel: the machinery that lets the
// degree-driven generator families (BA, GLP, PFP) and the flat pair
// models (ER, Waxman) evaluate edge candidates in parallel while
// staying deterministic, mirroring the metrics engine's design.
//
// Growth models are sequential by definition — every attachment changes
// the weights the next attachment samples — so the kernel trades exact
// step-by-step coupling for frozen-weight rounds:
//
//  1. Plan: freeze the current preference weights into an alias table,
//     read-only for the round, and let every arrival (or step) of the
//     round draw its edge candidates against it in parallel. Each item
//     samples with its own sub-stream, derived from the run seed and a
//     global item counter via rng.Rand.Split, so a plan is a pure
//     function of the seed — independent of worker count and
//     scheduling.
//  2. Commit: apply the planned edges sequentially in item order,
//     updating weights and discarding duplicates exactly where the
//     sequential model would.
//  3. Build: hand the accumulated edge list to graph.Build, which
//     shards adjacency construction across the pool.
//
// Rounds grow geometrically (an eighth of the committed node count), so
// frozen weights are stale by a bounded fraction; the degree-
// distribution property tests in growth_test.go pin the resulting
// topologies to the same statistics as the sequential references, and
// the sequential implementations remain the reference path: workers <=
// 1 dispatches to them bit for bit.
//
// Determinism contract: GenerateSharded output is a pure function of
// the seed — identical across runs and across every worker count >= 2.

// growthRootTag keys the derivation of a kernel's stream root off the
// caller's generator state, keeping per-item streams disjoint from the
// main stream the model continues to draw from (step types, positions).
const growthRootTag = ^uint64(0)

// growthMinBatch is the smallest planning round; below it the parallel
// plan would not amortize its scheduling.
const growthMinBatch = 64

// growthBatch returns the next round size: an eighth of the committed
// node count, floored at growthMinBatch and capped by the remaining
// arrivals. A pure function of the committed count, so the round
// structure never depends on the worker pool.
func growthBatch(n, remaining int) int {
	b := n / 8
	if b < growthMinBatch {
		b = growthMinBatch
	}
	if b > remaining {
		b = remaining
	}
	return b
}

// growth is the shared state of one sharded growth run. Node ids are
// dense; weights, degrees and the edge multiset live in flat arrays so
// the plan phase reads and the commit phase writes without a graph in
// the loop — the Graph is materialized once at the end.
type growth struct {
	workers int
	root    rng.Rand // frozen derivation root for per-item streams
	stream  uint64   // next per-item stream index

	n       int       // committed node count
	weights []float64 // preference weight per committed node
	degree  []int32
	edges   []graph.Edge
	seen    map[uint64]struct{} // committed simple edges; nil unless the model needs duplicate checks
	live    *graph.Graph        // trajectory mode: the graph, maintained commit by commit
	table   rng.Alias           // the round's sampling table, rebuilt by freeze
}

// newGrowth starts a kernel run: the stream root derives from r's
// current state once, and r stays with the caller for the sequential
// draws growth models make between rounds.
func newGrowth(r *rng.Rand, workers, capHint int) *growth {
	g := &growth{
		workers: par.Workers(workers),
		weights: make([]float64, 0, capHint),
		degree:  make([]int32, 0, capHint),
		edges:   make([]graph.Edge, 0, 2*capHint),
	}
	r.SplitInto(&g.root, growthRootTag)
	return g
}

// trackDuplicates enables the committed-edge index for models that must
// discard duplicate links (GLP, PFP). Models whose commits cannot
// collide (BA: every edge touches the arriving node) skip the index and
// its per-edge hashing cost.
func (g *growth) trackDuplicates(capHint int) {
	g.seen = make(map[uint64]struct{}, 2*capHint)
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// mirror switches the kernel into trajectory mode: commits are applied
// to a live graph as they happen, so epoch observers see real graph
// states mid-run and build() returns the live graph instead of a final
// parallel construction. Call before any node or edge is committed;
// the live graph reserves the run's node capacity hint up front.
func (g *growth) mirror() {
	g.live = graph.New(g.n)
	g.live.Reserve(cap(g.weights))
}

// addNode commits a new isolated node and returns its id.
func (g *growth) addNode() int {
	g.weights = append(g.weights, 0)
	g.degree = append(g.degree, 0)
	g.n++
	if g.live != nil {
		g.live.AddNode()
	}
	return g.n - 1
}

// addEdge commits one simple edge. Callers check hasEdge first when the
// model discards duplicates; repeated pairs would otherwise accumulate
// multiplicity in the built graph.
func (g *growth) addEdge(u, v int) {
	if g.live != nil {
		// Trajectory mode: the live graph is the edge store; the flat
		// list would never be read by build().
		g.live.MustAddEdge(u, v)
	} else {
		g.edges = append(g.edges, graph.Edge{U: u, V: v, W: 1})
	}
	if g.seen != nil {
		g.seen[edgeKey(u, v)] = struct{}{}
	}
	g.degree[u]++
	g.degree[v]++
}

// hasEdge reports whether the simple edge has been committed. Valid
// only after trackDuplicates.
func (g *growth) hasEdge(u, v int) bool {
	_, ok := g.seen[edgeKey(u, v)]
	return ok
}

// freeze rebuilds the round's sampling table over the committed
// weights, into the kernel's own table (valid until the next freeze).
// nil means no positive weight remains.
func (g *growth) freeze() *rng.Alias {
	if g.n == 0 {
		return nil
	}
	if err := g.table.Rebuild(g.weights[:g.n]); err != nil {
		return nil
	}
	return &g.table
}

// forItems shards fn over the round's items. Item i receives the
// sub-stream Split(counter + i) of the kernel root, so what it plans
// depends only on the seed and its global item index — never on which
// worker runs it. fn must write only index-private state.
func (g *growth) forItems(items int, fn func(i int, rs *rng.Rand)) {
	childs := make([]rng.Rand, par.Workers(g.workers))
	start := g.stream
	root := &g.root
	par.For(items, g.workers, func(w, i int) {
		rs := &childs[w]
		root.SplitInto(rs, start+uint64(i))
		fn(i, rs)
	})
	g.stream += uint64(items)
}

// sampleDistinct draws up to k distinct candidates from the frozen
// table with the shard stream rs, skipping indices for which excl
// returns true, appending into buf (reused). The fast path is alias
// rejection; when one candidate dominates the table or fewer than k
// positive weights remain, it falls back to an explicit weighted scan
// over the frozen weights — still a pure function of (table, stream),
// mirroring the fewer-than-k behavior of Fenwick.SampleDistinct.
func (g *growth) sampleDistinct(t *rng.Alias, rs *rng.Rand, k int, excl func(int) bool, buf []int) []int {
	buf = buf[:0]
	if t == nil || k <= 0 {
		return buf
	}
	limit := 16*k + 32
draws:
	for tries := 0; len(buf) < k && tries < limit; tries++ {
		c := t.NextWith(rs)
		if excl != nil && excl(c) {
			continue
		}
		for _, p := range buf {
			if p == c {
				continue draws
			}
		}
		buf = append(buf, c)
	}
	for len(buf) < k {
		n := t.Len()
		rem := 0.0
	remsum:
		for i := 0; i < n; i++ {
			if g.weights[i] <= 0 || (excl != nil && excl(i)) {
				continue
			}
			for _, p := range buf {
				if p == i {
					continue remsum
				}
			}
			rem += g.weights[i]
		}
		if rem <= 0 {
			break
		}
		target := rs.Float64() * rem
		chosen := -1
	scan:
		for i := 0; i < n; i++ {
			if g.weights[i] <= 0 || (excl != nil && excl(i)) {
				continue
			}
			for _, p := range buf {
				if p == i {
					continue scan
				}
			}
			chosen = i
			target -= g.weights[i]
			if target <= 0 {
				break
			}
		}
		if chosen < 0 {
			break
		}
		buf = append(buf, chosen)
	}
	return buf
}

// build materializes the committed edge multiset as a Graph, sharding
// adjacency construction across the pool. In trajectory mode the live
// graph already is that multiset, maintained commit by commit.
func (g *growth) build() (*graph.Graph, error) {
	if g.live != nil {
		return g.live, nil
	}
	return graph.Build(g.n, g.edges, g.workers)
}

// shardRows shards fn over rows [0, n): the flat-model counterpart of
// the growth rounds, for families whose candidate evaluations are
// independent per row (ER skip sampling, Waxman pair probes). Row i
// draws from sub-stream Split(i) of a root derived from r, and each
// worker collects edges into a private buffer; the buffers concatenate
// in worker order, and since graph.Build is order-insensitive the built
// topology is identical at every worker count.
func shardRows(r *rng.Rand, n, workers int, fn func(row int, rs *rng.Rand, emit func(u, v int))) []graph.Edge {
	width := par.Workers(workers)
	var root rng.Rand
	r.SplitInto(&root, growthRootTag)
	bufs := make([][]graph.Edge, width)
	childs := make([]rng.Rand, width)
	par.For(n, workers, func(w, row int) {
		rs := &childs[w]
		root.SplitInto(rs, uint64(row))
		fn(row, rs, func(u, v int) {
			bufs[w] = append(bufs[w], graph.Edge{U: u, V: v, W: 1})
		})
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]graph.Edge, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

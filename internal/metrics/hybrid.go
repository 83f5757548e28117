package metrics

import (
	"math"
	"math/bits"

	"netmodel/internal/graph"
)

// This file is the direction-optimizing BFS kernel shared by every
// dist-only traversal consumer: the frozen path-metric kernels, the
// DistMap cold rebuilds and budget fallbacks, the routing-tree builds
// of the traffic package, and the component scans of the failure
// layer. The kernel switches between the classic top-down frontier
// expansion and a bottom-up sweep (Beamer's hybrid): when the frontier
// carries a large share of the unexplored arcs, scanning the unvisited
// nodes for any parent in the frontier touches far fewer arcs than
// expanding every frontier edge — on the scale-free topologies this
// repo generates, the two or three middle BFS levels hold almost the
// whole graph, and the bottom-up sweep early-exits at the first parent
// found. BFS levels are direction-independent, so the distance vector
// is bit-identical to BFSFrozen's whatever the per-level direction
// choices; only the within-level discovery order differs, which is why
// order-consuming kernels (BrandesFrozen, the ECMP demand router) stay
// on the classic kernel and pin it as the equivalence baseline.
//
// Visited state is split: a bitset carries the hot per-arc membership
// test (n/8 bytes stays L1/L2-resident where the distance row's random
// reads miss — the difference between the hybrid winning and losing on
// sparse maps), while an epoch-stamped int32 array carries the
// component labels of multi-source scans without per-call clears. The
// bitset is cleared once per visited epoch (n/64 words, trivial), the
// stamps only on int32 rollover, and frontier membership for the
// bottom-up parent test is a second bitset — so steady-state calls
// through a reused BFSScratch allocate nothing.

// bfsAlpha and bfsBeta are the direction-switching thresholds: go
// bottom-up when the frontier's arc count exceeds 1/bfsAlpha of the
// arcs out of unvisited nodes, return top-down when the frontier
// shrinks below n/bfsBeta nodes. Beamer's canonical alpha of 14 is
// tuned for social networks with average degree in the tens; on the
// degree-4 topologies this repo generates it flips one level early,
// paying a full sweep of far-node arcs that top-down would skip — the
// measured crossover on BA/ER/GLP/PFP maps sits between 2 and 9, so
// split the difference.
const (
	bfsAlpha = 6
	bfsBeta  = 24
)

// BFSScratch is the reusable state of the hybrid BFS: epoch-stamped
// visited marks, the two frontier queues, the frontier bitsets of the
// bottom-up sweep, and a spare distance row for callers that only need
// reachability (component scans). A scratch may be reused across
// snapshots and sources of any size; it grows monotonically and is not
// safe for concurrent use.
type BFSScratch struct {
	stamp []int32
	round int32
	cur   []int32
	next  []int32
	vis   []uint64 // visited-this-epoch bitset (the hot membership test)
	front []uint64 // current-level frontier bitset (bottom-up mode)
	nfr   []uint64 // next-level frontier bitset (bottom-up mode)
	dist  []int32  // spare row for distance-free scans
}

// NewBFSScratch allocates scratch for an n-node snapshot; the scratch
// grows on demand when later used on larger graphs.
func NewBFSScratch(n int) *BFSScratch {
	sc := &BFSScratch{}
	sc.ensure(n)
	return sc
}

func (sc *BFSScratch) ensure(n int) {
	if len(sc.stamp) < n {
		sc.stamp = append(sc.stamp, make([]int32, n-len(sc.stamp))...)
		sc.cur = append(sc.cur, make([]int32, n-len(sc.cur))...)
		sc.next = append(sc.next, make([]int32, n-len(sc.next))...)
	}
	if words := (n + 63) / 64; len(sc.front) < words {
		sc.vis = append(sc.vis, make([]uint64, words-len(sc.vis))...)
		sc.front = append(sc.front, make([]uint64, words-len(sc.front))...)
		sc.nfr = append(sc.nfr, make([]uint64, words-len(sc.nfr))...)
	}
}

// begin opens a visited epoch covering up to rounds marks: the visited
// bitset is cleared (one word per 64 nodes), and the stamp array only
// on the (astronomically rare) int32 rollover so stale stamps can
// never read as a live component label.
func (sc *BFSScratch) begin(n, rounds int) {
	sc.ensure(n)
	for i := range sc.vis[:(n+63)/64] {
		sc.vis[i] = 0
	}
	if sc.round > math.MaxInt32-int32(rounds)-1 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.round = 0
	}
}

// BFSHybrid fills dist with the hop distance from src to every node
// (-1 for unreachable), bit-identical to BFSFrozen over the same
// snapshot and source, and returns the number of reachable nodes
// (including src). dist must have length s.N(). Unlike BFSFrozen it
// produces no visit order — per level it traverses top-down or
// bottom-up, whichever touches fewer arcs — so order-consuming callers
// keep the classic kernel.
func BFSHybrid(s *graph.Snapshot, src int, dist []int32, sc *BFSScratch) int {
	n := s.N()
	if src < 0 || src >= n {
		for i := range dist {
			dist[i] = -1
		}
		return 0
	}
	sc.begin(n, 1)
	sc.round++
	visited := sc.runFrom(s, src, dist, false)
	if visited < n {
		vis := sc.vis
		for wi := 0; wi < (n+63)/64; wi++ {
			w := vis[wi]
			if w == ^uint64(0) {
				continue
			}
			for rem := ^w; rem != 0; rem &= rem - 1 {
				v := wi<<6 + bits.TrailingZeros64(rem)
				if v >= n {
					break
				}
				dist[v] = -1
			}
		}
	}
	return visited
}

// runFrom runs one direction-optimizing BFS from src, writing exact
// hop distances for every node it reaches and setting its visited bit.
// Nodes whose visited bit is set count as visited — begin clears the
// bitset once per epoch, so earlier components of one scan stay
// visited — and unreached nodes keep their old dist entries (the
// caller fills -1 where it needs them). With label set, every reached
// node is additionally stamped with sc.round — the component label of
// multi-source scans; single-source callers skip the stamp writes and
// their 4·n bytes of store traffic. Returns the number of nodes
// reached.
//
// The frontier lives in whichever representation its producer built:
// top-down levels keep a queue, bottom-up levels keep only the nfr
// bitset and a count (no per-discovery queue append), and each
// direction switch converts lazily — queue→bitset entering bottom-up,
// bitset→queue when the shrunken frontier returns to top-down.
func (sc *BFSScratch) runFrom(s *graph.Snapshot, src int, dist []int32, label bool) int {
	n := s.N()
	offs, ends, nbrs := s.CSR()
	stamp, vis := sc.stamp, sc.vis
	rcur := sc.round
	if label {
		stamp[src] = rcur
	}
	vis[uint32(src)>>6] |= 1 << (uint32(src) & 63)
	dist[src] = 0
	curArr, nextArr := sc.cur, sc.next
	cur := curArr[:1]
	cur[0] = int32(src)
	visited := 1
	// arcsLeft counts arcs out of unvisited nodes; frontArcs counts
	// arcs out of the current frontier — the two sides of the
	// direction-switch heuristic.
	arcsLeft := 2*s.M() - s.Degree(src)
	frontArcs := s.Degree(src)
	frontCount := 1
	words := (n + 63) / 64
	bottomUp := false
	bitsValid := false // sc.front holds the current frontier's bitset
	queueValid := true // cur holds the current frontier's queue
	for d := int32(0); frontCount > 0; d++ {
		if !bottomUp {
			if frontArcs*bfsAlpha > arcsLeft && frontCount > 1 {
				bottomUp = true
			}
		} else if frontCount*bfsBeta < n {
			bottomUp = false
		}
		nextArcs := 0
		nd := d + 1
		if bottomUp {
			front := sc.front[:words]
			if !bitsValid {
				for i := range front {
					front[i] = 0
				}
				for _, u := range cur {
					front[uint32(u)>>6] |= 1 << (uint32(u) & 63)
				}
				bitsValid = true
			}
			nfr := sc.nfr[:words]
			for i := range nfr {
				nfr[i] = 0
			}
			cnt := 0
			// Sweep only the unvisited: whole words of visited nodes
			// skip in one compare, the rest iterate their zero bits.
			for wi := 0; wi < words; wi++ {
				w := vis[wi]
				if w == ^uint64(0) {
					continue
				}
				for rem := ^w; rem != 0; rem &= rem - 1 {
					v := wi<<6 + bits.TrailingZeros64(rem)
					if v >= n {
						break
					}
					for j := offs[v]; j < ends[v]; j++ {
						u := nbrs[j]
						if front[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
							vis[wi] |= 1 << (uint32(v) & 63)
							if label {
								stamp[v] = rcur
							}
							dist[v] = nd
							nfr[uint32(v)>>6] |= 1 << (uint32(v) & 63)
							nextArcs += int(ends[v] - offs[v])
							cnt++
							break
						}
					}
				}
			}
			sc.front, sc.nfr = sc.nfr, sc.front
			frontCount = cnt
			queueValid = false
		} else {
			if !queueValid {
				// Returning from bottom-up: materialize the queue from
				// the frontier bitset (ascending, like a level build).
				cur = curArr[:0]
				for wi, w := range sc.front[:words] {
					for ; w != 0; w &= w - 1 {
						cur = append(cur, int32(wi<<6+bits.TrailingZeros64(w)))
					}
				}
				queueValid = true
			}
			next := nextArr[:0]
			for _, u := range cur {
				for j := offs[u]; j < ends[u]; j++ {
					v := nbrs[j]
					if vis[uint32(v)>>6]&(1<<(uint32(v)&63)) == 0 {
						vis[uint32(v)>>6] |= 1 << (uint32(v) & 63)
						if label {
							stamp[v] = rcur
						}
						dist[v] = nd
						next = append(next, v)
						nextArcs += int(ends[v] - offs[v])
					}
				}
			}
			curArr, nextArr = nextArr, curArr
			cur = next
			frontCount = len(next)
			bitsValid = false
		}
		visited += frontCount
		arcsLeft -= nextArcs
		frontArcs = nextArcs
		if visited == n {
			break // nothing left to discover: skip the last expansion
		}
	}
	sc.cur, sc.next = curArr, nextArr
	return visited
}

// ComponentsHybrid labels every node with its connected-component id
// via the hybrid kernel, writing comp[v] (len s.N()) and appending the
// component sizes onto sizes (pass sizes[:0] of a reused buffer for an
// allocation-free steady state). Ids are assigned in ascending order
// of each component's smallest node, so the id with the maximal size —
// first such id on ties — is the giant component: the largest, ties
// broken by smallest contained node. One visited epoch spans the whole
// scan: the per-component traversals share the scratch's stamp array
// and never re-clear it.
func ComponentsHybrid(s *graph.Snapshot, sc *BFSScratch, comp []int32, sizes []int32) []int32 {
	n := s.N()
	sc.begin(n, n)
	if len(sc.dist) < n {
		sc.dist = append(sc.dist, make([]int32, n-len(sc.dist))...)
	}
	r0 := sc.round + 1
	for v := 0; v < n; v++ {
		if sc.vis[uint32(v)>>6]&(1<<(uint32(v)&63)) == 0 {
			sc.round++
			sc.runFrom(s, v, sc.dist, true)
			sizes = append(sizes, 0)
		}
	}
	for v := 0; v < n; v++ {
		id := sc.stamp[v] - r0
		comp[v] = id
		sizes[id]++
	}
	return sizes
}

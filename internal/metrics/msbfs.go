package metrics

import (
	"math/bits"

	"netmodel/internal/graph"
	"netmodel/internal/par"
)

// This file is the multi-source BFS kernel of the path statistics
// (MS-BFS, Then et al., "The More the Merrier: Efficient Multi-Source
// Graph Traversal", PVLDB 2014). Up to 64 sources traverse the graph
// together, one bit lane each: per node, seen holds the lanes that
// have reached it, visit the lanes whose frontier it is on at the
// current level. The frontier is also kept as a node list, and each
// level runs in one of two directions, as the hybrid BFS does:
//
//   - push: every frontier node u ORs its new lanes into its
//     neighbours, next[v] |= visit[u] &^ seen[v], touching only the
//     frontier's arcs;
//   - pull: one sweep over the nodes, next[v] = (OR over N(v) of
//     visit[u]) &^ seen[v], reading each arc once for the whole batch.
//     A node whose seen word already holds every lane of the batch can
//     gain nothing and skips its arcs, and a node stops reading arcs
//     once every lane it lacks has been found.
//
// A level pulls when the frontier's arcs outnumber a quarter of the
// sweep's cost — the arcs of the nodes not yet saturated plus one
// visit per node — and pushes otherwise. On small-world maps the few
// middle levels hold almost the whole graph and pull; on
// large-diameter maps (random geometric graphs) and on maps whose
// giant is a small share of the nodes, the frontier stays thin and
// every level pushes, so a node's arcs are read once per level at
// which new lanes reach it — at most once per lane, the reads of one
// top-down BFS per source. The popcount of a level's new bits is the
// number of (source, node) pairs at that distance, which is all a
// PathHistogram records, so the histogram kernel (AccumulateMSBFS)
// never materializes a distance row. Every quantity is an integer, and
// the histogram is bit-identical to per-source BFSHybrid runs folded by
// AccumulateDistances whatever the direction choices.
//
// The DistMap's blocks (dynbfs.go) use the same lane numbering: the
// level-writing variant fillLanes runs the same traversal, one shared
// level step (msbfsLevel), and writes each new lane's level into the
// block's node-major entries instead of counting it. It builds the
// lanes of cold maps, of new exact-mode sources and of repair tasks
// that overran their budget, one MS-BFS pass per lane range.

// msbfsLanes is the batch width: one bit of a uint64 lane word per
// source.
const msbfsLanes = 64

// msbfsAlpha is the direction switch: a level pulls when msbfsAlpha
// times the frontier's arc count exceeds the pull sweep's cost. On
// BA/GLP/gnp/waxman/rgg maps of 3k-50k nodes, 4 was at or near the
// fastest choice for every family; 16 made small random geometric
// graphs pull and lose 3x.
const msbfsAlpha = 4

// MSBFSScratch is the reusable state of one AccumulateMSBFS worker:
// the seen, visit and next lane words and the two frontier lists, one
// entry per node each (32 bytes per node). The zero value is ready for
// use; the rows grow monotonically to the largest snapshot seen. A
// scratch is not safe for concurrent use.
type MSBFSScratch struct {
	seen, visit, next []uint64
	cur, nxt          []int32
}

func (sc *MSBFSScratch) ensure(n int) {
	if len(sc.seen) < n {
		sc.seen = make([]uint64, n)
		sc.visit = make([]uint64, n)
		sc.next = make([]uint64, n)
		sc.cur = make([]int32, 0, n)
		sc.nxt = make([]int32, 0, n)
	}
}

// AccumulateMSBFS folds the BFS distances from every source in srcs
// (each in [0, s.N()); repeats count once per occurrence) into the
// histogram, with the same result as BFSHybrid plus
// AccumulateDistances per source: pairs at distance d >= 1 are
// counted, a source itself and the nodes it cannot reach are not. The
// sources run in batches of 64 in their given order, sharded across
// one worker per scratch in scs (at least one); with one scratch, or a
// single batch, steady-state calls allocate nothing beyond the
// histogram's growth to a new maximal distance.
func (h *PathHistogram) AccumulateMSBFS(s *graph.Snapshot, srcs []int, scs []*MSBFSScratch) {
	batches := (len(srcs) + msbfsLanes - 1) / msbfsLanes
	workers := min(len(scs), batches)
	if workers <= 1 {
		for b := range batches {
			h.msbfs(s, msbfsBatch(srcs, b), scs[0])
		}
		return
	}
	hs := make([]PathHistogram, workers)
	par.ForEach(batches, workers, func(w, b int) {
		hs[w].msbfs(s, msbfsBatch(srcs, b), scs[w])
	})
	for w := range hs {
		h.Merge(&hs[w])
	}
}

// msbfsBatch returns batch b of srcs: its sources 64·b up to 64·b+63.
func msbfsBatch(srcs []int, b int) []int {
	return srcs[b*msbfsLanes : min((b+1)*msbfsLanes, len(srcs))]
}

// msbfs folds one batch of at most 64 sources into the histogram. The
// scratch's visit and next words are all zero between calls; seen is
// cleared on entry.
func (h *PathHistogram) msbfs(s *graph.Snapshot, srcs []int, sc *MSBFSScratch) {
	n := s.N()
	sc.ensure(n)
	seen, visit, next := sc.seen, sc.visit, sc.next
	clear(seen[:n])
	cur, nxt := sc.cur[:0], sc.nxt[:0]
	offs, ends, nbrs := s.CSR()
	// A short batch's full mask is its low len(srcs) lanes: with ^0 a
	// node every source has reached would never read as saturated.
	full := ^uint64(0) >> (msbfsLanes - len(srcs))
	// unsatArcs counts the arcs of nodes missing some lane, frontArcs
	// the arcs of the current frontier: the two sides of the direction
	// switch.
	unsatArcs, frontArcs := 2*s.M(), 0
	for i, src := range srcs {
		if visit[src] == 0 {
			cur = append(cur, int32(src))
			frontArcs += int(ends[src] - offs[src])
		}
		seen[src] |= 1 << i
		visit[src] |= 1 << i
	}
	for _, u := range cur {
		if seen[u] == full {
			unsatArcs -= int(ends[u] - offs[u])
		}
	}
	for d := 1; ; d++ {
		nxt = msbfsLevel(n, offs, ends, nbrs, seen, visit, next, cur, nxt, full, frontArcs*msbfsAlpha > unsatArcs+n)
		c := 0
		frontArcs = 0
		for _, v := range nxt {
			nv := next[v]
			sv := seen[v] | nv
			seen[v] = sv
			c += bits.OnesCount64(nv)
			deg := int(ends[v] - offs[v])
			frontArcs += deg
			if sv == full {
				unsatArcs -= deg
			}
		}
		for _, u := range cur {
			visit[u] = 0
		}
		visit, next = next, visit
		cur, nxt = nxt, cur[:0]
		if c == 0 {
			break
		}
		for d >= len(h.Counts) {
			h.Counts = append(h.Counts, make([]int64, len(h.Counts)+8)...)
		}
		h.Counts[d] += int64(c)
		h.Sum += int64(d) * int64(c)
		h.Total += int64(c)
	}
	sc.visit, sc.next = visit, next
	sc.cur, sc.nxt = cur, nxt
}

// msbfsLevel expands the frontier cur by one level, pulling when pull
// is set and pushing otherwise, and returns nxt holding the newly
// reached nodes, their new lanes (those of full a node lacked) ORed
// into next. seen is not updated; both kernels fold next into it while
// accounting for the level.
func msbfsLevel(n int, offs, ends, nbrs []int32, seen, visit, next []uint64, cur, nxt []int32, full uint64, pull bool) []int32 {
	if pull {
		for v := range n {
			sv := seen[v]
			if sv == full {
				continue
			}
			miss := full &^ sv
			var acc uint64
			for _, u := range nbrs[offs[v]:ends[v]] {
				if acc |= visit[u]; acc&miss == miss {
					break
				}
			}
			if acc &= miss; acc != 0 {
				next[v] = acc
				nxt = append(nxt, int32(v))
			}
		}
		return nxt
	}
	for _, u := range cur {
		vu := visit[u]
		for _, v := range nbrs[offs[u]:ends[u]] {
			if b := vu &^ seen[v]; b != 0 {
				if next[v] == 0 {
					nxt = append(nxt, v)
				}
				next[v] |= b
			}
		}
	}
	return nxt
}

// fillLanes is the level-writing MS-BFS of the distance map: one
// traversal from the lanes of blk in full, lane l starting at srcs[l],
// writes every lane's hop distance to each of s's nodes into
// blk.at(v)[l]. The traversal and its direction switch are those of
// msbfs; where msbfs counts a level's new bits, fillLanes writes the
// level into each new lane.
//
// With rec nil the lanes must read -1 on entry (fresh pages): reached
// entries get their level and the rest keep -1. With rec non-nil the
// lanes may hold any earlier distances (a warm block being rebuilt):
// every entry whose value changes, unreached ones reset to -1
// included, is recorded in rec's change records before it is written.
func (sc *MSBFSScratch) fillLanes(s *graph.Snapshot, blk *distBlock, srcs []int32, full uint64, rec *laneScratch) {
	n := s.N()
	sc.ensure(n)
	seen, visit, next := sc.seen, sc.visit, sc.next
	clear(seen[:n])
	cur, nxt := sc.cur[:0], sc.nxt[:0]
	offs, ends, nbrs := s.CSR()
	set := func(v int32, lanes uint64, d int32) {
		p := blk.at(v)
		if rec != nil {
			if lanes &^= lanesEq(p, lanes, d); lanes == 0 {
				return
			}
			rec.record(v, lanes, p)
		}
		p.set(lanes, d)
	}
	unsatArcs, frontArcs := 2*s.M(), 0
	for m := full; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		src := srcs[l]
		if visit[src] == 0 {
			cur = append(cur, src)
			frontArcs += int(ends[src] - offs[src])
		}
		seen[src] |= 1 << l
		visit[src] |= 1 << l
		set(src, 1<<l, 0)
	}
	for _, u := range cur {
		if seen[u] == full {
			unsatArcs -= int(ends[u] - offs[u])
		}
	}
	for d := int32(1); len(cur) > 0; d++ {
		nxt = msbfsLevel(n, offs, ends, nbrs, seen, visit, next, cur, nxt, full, frontArcs*msbfsAlpha > unsatArcs+n)
		frontArcs = 0
		for _, v := range nxt {
			nv := next[v]
			sv := seen[v] | nv
			seen[v] = sv
			deg := int(ends[v] - offs[v])
			frontArcs += deg
			if sv == full {
				unsatArcs -= deg
			}
			set(v, nv, d)
		}
		for _, u := range cur {
			visit[u] = 0
		}
		visit, next = next, visit
		cur, nxt = nxt, cur[:0]
	}
	if rec != nil {
		for v := range n {
			if miss := full &^ seen[v]; miss != 0 {
				set(int32(v), miss, -1)
			}
		}
	}
	sc.visit, sc.next = visit, next
	sc.cur, sc.nxt = cur, nxt
}

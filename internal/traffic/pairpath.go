package traffic

import "netmodel/internal/graph"

// This file resolves one canonical path without its origin's tree. A
// cached tree — its origin's distance row — pays a BFS over every arc;
// when the tree cache cannot hold an epoch's origins the tree is
// evicted before a second flow reads it, so admitPending
// resolves those origins' few destinations by pair search instead,
// whose cost is the two search balls rather than the map.
//
// The pair path is the tree path, edge for edge. The tree parent of v
// is its first CSR neighbor u with d_s(u) = d_s(v) − 1 (selectParent).
// Walking back from dst along that rule only visits nodes of the s–dst
// shortest-path DAG, and for v on the DAG at depth k a neighbor u has
// d_s(u) = k − 1 exactly when u lies on DAG layer k − 1. So the walk
// needs d_s only on the DAG: from the s-ball for layers up to the depth
// a the forward search completed, and from DAG-layer membership beyond
// it.

// pairMaxDests is the most missed destinations an origin may have in
// one epoch and still be resolved by pair searches under cache
// pressure. One tree costs tens of pair searches on the maps measured
// (the kernels-pair-vs-tree row), so origins with more destinations
// keep their tree, which serves all of them at once.
const pairMaxDests = 8

// pairScratch is the reusable state of pairPath: per-node distance rows
// for both search sides and a DAG-membership row, each valid only where
// its stamp equals the current round (so a search never clears O(n)
// state), and three frontier buffers rotated between the two searches
// and the DAG layers. The zero value is ready; the rows grow to the
// snapshot size on first use, after which a search allocates nothing
// but the path it returns (and nothing at all into a buffer with room).
type pairScratch struct {
	round        uint32
	sMark, tMark []uint32 // sMark[v] == round: ds[v] is d(src, v)
	dagMark      []uint32 // dagMark[v] == round: v is on a DAG layer past a
	ds, dt       []int32
	bufs         [3][]int32
}

// memBytes is the heap the scratch holds live.
func (ps *pairScratch) memBytes() int64 {
	b := int64(len(ps.sMark)) * 20
	for _, buf := range ps.bufs {
		b += int64(cap(buf)) * 4
	}
	return b
}

// begin sizes the rows for n nodes and opens a fresh stamp round.
func (ps *pairScratch) begin(n int) uint32 {
	if k := n - len(ps.sMark); k > 0 {
		ps.sMark = append(ps.sMark, make([]uint32, k)...)
		ps.tMark = append(ps.tMark, make([]uint32, k)...)
		ps.dagMark = append(ps.dagMark, make([]uint32, k)...)
		ps.ds = append(ps.ds, make([]int32, k)...)
		ps.dt = append(ps.dt, make([]int32, k)...)
	}
	ps.round++
	if ps.round == 0 { // wrapped: stale stamps could alias the new round
		clear(ps.sMark)
		clear(ps.tMark)
		clear(ps.dagMark)
		ps.round = 1
	}
	return ps.round
}

// expandLevel appends the unstamped neighbors of front to out, stamping
// them at depth, and returns out with its total arc count and whether
// any appended node carries the other side's stamp.
func expandLevel(s *graph.Snapshot, front, out []int32, mark, other []uint32, dist []int32, depth int32, round uint32) ([]int32, int, bool) {
	offsets, ends, nbr := s.CSR()
	arcs, met := 0, false
	for _, u := range front {
		for _, w := range nbr[offsets[u]:ends[u]] {
			if mark[w] == round {
				continue
			}
			mark[w], dist[w] = round, depth
			out = append(out, w)
			arcs += int(ends[w] - offsets[w])
			met = met || other[w] == round
		}
	}
	return out, arcs, met
}

// pairPath appends the edge ids of the canonical shortest path from dst
// back to src onto buf — exactly what walkPath(s, arcEdge, dist, buf,
// dst) returns over src's cold distance row dist (buildTreeInto), in the
// same dst→src order — and reports whether dst is reachable.
//
// A balanced bidirectional BFS expands one complete level at a time on
// the side whose frontier has fewer arcs and stops after the first
// level that meets the other ball. With the forward ball complete to
// depth a and the backward ball to depth b, the balls were disjoint one
// level earlier, so D = d(src, dst) = a + b, and the meeting nodes at
// d_s = a, d_t = b form DAG layer a. Layer j + 1 is the set of
// neighbors of layer j whose d_t is D − j − 1. A side whose frontier
// empties without meeting the other proves the pair unreachable.
func (ps *pairScratch) pairPath(s *graph.Snapshot, arcEdge []int32, src, dst int, buf []int32) ([]int32, bool) {
	if src == dst {
		return buf, true
	}
	round := ps.begin(s.N())
	sMark, tMark, dagMark, ds, dt := ps.sMark, ps.tMark, ps.dagMark, ps.ds, ps.dt
	sMark[src], ds[src] = round, 0
	tMark[dst], dt[dst] = round, 0
	sFront := append(ps.bufs[0][:0], int32(src))
	tFront := append(ps.bufs[1][:0], int32(dst))
	spare := ps.bufs[2][:0]
	sArcs, tArcs := s.Degree(src), s.Degree(dst)

	var a, b int32
	var front []int32 // the level just completed
	for {
		var met bool
		if sArcs <= tArcs {
			a++
			spare, sArcs, met = expandLevel(s, sFront, spare[:0], sMark, tMark, ds, a, round)
			sFront, spare = spare, sFront
			front = sFront
		} else {
			b++
			spare, tArcs, met = expandLevel(s, tFront, spare[:0], tMark, sMark, dt, b, round)
			tFront, spare = spare, tFront
			front = tFront
		}
		if met {
			break
		}
		if len(front) == 0 {
			ps.bufs = [3][]int32{sFront, tFront, spare}
			return buf, false
		}
	}
	d := a + b

	// DAG layer a is the meeting set; layers a+1 .. d-1 follow it,
	// rotated through the buffers the searches no longer need.
	cur := spare[:0]
	for _, v := range front {
		if sMark[v] == round && tMark[v] == round {
			cur = append(cur, v)
		}
	}
	nxt := sFront[:0]
	offsets, ends, nbr := s.CSR()
	for j := a; j < d-1; j++ {
		want := d - j - 1
		nxt = nxt[:0]
		for _, u := range cur {
			for _, w := range nbr[offsets[u]:ends[u]] {
				if tMark[w] == round && dt[w] == want && dagMark[w] != round {
					dagMark[w] = round
					nxt = append(nxt, w)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	ps.bufs = [3][]int32{cur, nxt, tFront}

	// The walk back from dst with selectParent's rule, one hop closer per
	// step: d_s from the forward ball up to depth a, DAG membership past it.
	v := int32(dst)
	for k := d; k > 0; k-- {
		lo, hi := s.ArcRange(int(v))
		for arc := lo; arc < hi; arc++ {
			u := nbr[arc]
			var closer bool
			if k-1 <= a {
				closer = sMark[u] == round && ds[u] == k-1
			} else {
				closer = dagMark[u] == round && dt[u] == d-k+1
			}
			if closer {
				buf = append(buf, arcEdge[arc])
				v = u
				break
			}
		}
	}
	return buf, true
}

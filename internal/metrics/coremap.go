package metrics

import (
	"math"

	"netmodel/internal/graph"
)

// CoreMap maintains the k-core decomposition of a growing snapshot with
// the order-based method of Zhang, Yu, Zhang and Qin ("A Fast
// Order-Based Approach for Core Maintenance", ICDE 2017).
//
// The state is a k-order: the nodes in a sequence where coreness never
// decreases, kept as one list per core level with integer labels for
// O(1) order comparison within a level. Every node v carries deg+(v),
// its neighbors later in the order, with the invariant
// deg+(v) <= core(v): peeling the nodes in this order never meets a
// remaining degree above the assigned coreness, which bounds every true
// coreness from above. Insertions only raise corenesses, so an order
// that keeps the invariant proves the maintained values exact.
//
// An inserted edge (u, v) with u earlier in the order raises deg+(u).
// When that breaks the invariant at level K = core(u), a forward pass
// walks level K in order from u, visiting only nodes with a candidate
// neighbor before them (a heap over the level's labels): a node whose
// later neighbors plus earlier candidates exceed K becomes a candidate,
// one that does not settles, and its settling demotes earlier
// candidates that counted on it, cascading. Surviving candidates form
// the new head of level K+1; every other node of level K keeps its
// place, demoted candidates right after the node whose settling demoted
// them. The pass visits only nodes whose remaining degree rises, not
// the whole subcore.
//
// New nodes enter level 0 with deg+ = 0. A delta with removals rebuilds
// from a fresh peel; so does a nil delta or one with a foreign base.
type CoreMap struct {
	s       *graph.Snapshot
	core    []int32 // coreness, also the node's level in the k-order
	dplus   []int32 // deg+: neighbors later in the k-order
	maxCore int

	// The k-order: a doubly linked list per level (-1 ends a list), with
	// labels strictly increasing along each list. A candidate's label
	// holds its rank among the pass's candidates instead.
	next, prev []int32
	label      []uint64
	head, tail []int32

	// Insertion-pass scratch, zero between passes. The build borrows
	// dstar and pend as the peel's vert and pos arrays.
	dstar   []int32 // deg*: candidate neighbors earlier in the order
	state   []uint8
	pend    []int32 // delta insertions per node not yet applied
	heap    []int32 // pending nodes of the pass's level, by label
	cands   []int32 // candidates in k-order
	queue   []int32 // demoted candidates awaiting settlement
	touched []int32

	edges []graph.DeltaEdge // the delta being applied
	at    int               // index in edges of the insertion being applied

	refreshes, rebuilds int
}

// Pass states of a node; untouched is the zero value.
const (
	untouched uint8 = iota
	pending         // in the heap, after the scan point
	candidate       // may rise to level K+1
	demoted         // candidate that lost its support, queued to settle
	settled         // stays at level K
)

// labelSpace bounds the k-order labels: every label lies in [0, labelSpace).
const labelSpace = uint64(1) << 62

// endStep is the label gap a node takes at either end of a level. Each
// new node enters level 0 at its tail and most rise to the head of
// level 1 with their next edge, so the ends take fixed steps rather
// than halving their gap every time.
const endStep = uint64(1) << 24

// labelCap[b] is the most labels an aligned block of 2^b label values
// may hold before a relabel may spread them over it: 2^b / 1.4^b, the
// density rule of Bender et al.'s list labeling ("Two Simplified
// Algorithms for Maintaining Order in a List", ESA 2002), which makes a
// relabel O(log n) amortized per insertion. At b = 62 the cap exceeds
// MaxInt32, so a block that fits always exists.
var labelCap = func() (c [63]uint64) {
	for b := range c {
		c[b] = uint64(math.Ldexp(1, b) / math.Pow(1.4, float64(b)))
	}
	return c
}()

// NewCoreMap builds the order state of s from one Batagelj-Zaversnik
// peel, whose removal order is a valid k-order.
func NewCoreMap(s *graph.Snapshot) *CoreMap {
	cm := &CoreMap{}
	cm.build(s)
	return cm
}

// Refreshes returns how many deltas were applied incrementally.
func (cm *CoreMap) Refreshes() int { return cm.refreshes }

// Rebuilds returns how many refreshes re-peeled instead: deltas with
// removals, nil deltas and deltas with a foreign base. The construction
// peel is not counted.
func (cm *CoreMap) Rebuilds() int { return cm.rebuilds }

// MaxCore returns the largest coreness, the k-core depth of the map,
// read from the maintained state with no copy.
func (cm *CoreMap) MaxCore() int { return cm.maxCore }

// Result returns the decomposition as a KCoreResult with a fresh
// Coreness slice, so a result a caller holds never changes under later
// refreshes.
func (cm *CoreMap) Result() KCoreResult {
	res := KCoreResult{Coreness: make([]int, len(cm.core)), MaxCore: cm.maxCore}
	for u, c := range cm.core {
		res.Coreness[u] = int(c)
	}
	return res
}

// build replaces the state with a fresh peel of s.
func (cm *CoreMap) build(s *graph.Snapshot) {
	n := s.N()
	cm.s = s
	cm.core = make([]int32, n)
	cm.dplus = make([]int32, n)
	cm.next = make([]int32, n)
	cm.prev = make([]int32, n)
	cm.label = make([]uint64, n)
	cm.dstar = make([]int32, n)
	cm.state = make([]uint8, n)
	cm.pend = make([]int32, n)
	vert, pos := cm.dstar, cm.pend
	cm.maxCore = peel(s, cm.core, vert, pos)
	offsets, ends, nbrs := s.CSR()
	for v := 0; v < n; v++ {
		for _, u := range nbrs[offsets[v]:ends[v]] {
			if pos[u] > pos[v] {
				cm.dplus[v]++
			}
		}
	}
	cm.head = make([]int32, cm.maxCore+1)
	cm.tail = make([]int32, cm.maxCore+1)
	for k := range cm.head {
		cm.head[k], cm.tail[k] = -1, -1
	}
	// Link each level in removal order, labels spread evenly over the
	// label space.
	for i := 0; i < n; {
		k := cm.core[vert[i]]
		j := i
		for j < n && cm.core[vert[j]] == k {
			j++
		}
		step := labelSpace / uint64(j-i+1)
		for x := i; x < j; x++ {
			v := vert[x]
			cm.label[v] = uint64(x-i+1) * step
			cm.prev[v], cm.next[v] = -1, -1
			if x > i {
				cm.prev[v] = vert[x-1]
				cm.next[vert[x-1]] = v
			}
		}
		cm.head[k], cm.tail[k] = vert[i], vert[j-1]
		i = j
	}
	clear(vert)
	clear(pos)
}

// Refresh moves the state to next, the refreshed successor of the
// current snapshot with delta d between them. Insertion-only deltas are
// applied one edge at a time by the order-based pass; anything else
// re-peels. Either way the corenesses afterwards are exactly those of a
// cold peel of next.
func (cm *CoreMap) Refresh(next *graph.Snapshot, d *graph.Delta) {
	rebuild := d == nil || d.BaseVersion() != cm.s.Version()
	if !rebuild {
		_, removed := d.Counts()
		rebuild = removed > 0
	}
	if rebuild {
		cm.rebuilds++
		cm.build(next)
		return
	}
	edges := d.Edges()
	cm.refreshes++
	cm.s = next
	cm.grow(next.N())
	for _, e := range edges {
		if e.OldW == 0 {
			cm.pend[e.U]++
			cm.pend[e.V]++
		}
	}
	cm.edges = edges
	for i, e := range edges {
		if e.OldW != 0 {
			continue // multiplicity change: degrees untouched
		}
		cm.at = i
		cm.pend[e.U]--
		cm.pend[e.V]--
		cm.insert(e.U, e.V)
	}
	cm.edges = nil
}

// grow appends nodes up to n at the tail of level 0, with no edges yet.
func (cm *CoreMap) grow(n int) {
	old := len(cm.core)
	if n <= old {
		return
	}
	cm.core = growRow(cm.core, n, 0)
	cm.dplus = growRow(cm.dplus, n, 0)
	cm.dstar = growRow(cm.dstar, n, 0)
	cm.state = growRow(cm.state, n, untouched)
	cm.pend = growRow(cm.pend, n, 0)
	cm.next = growRow(cm.next, n, 0)
	cm.prev = growRow(cm.prev, n, 0)
	cm.label = growRow(cm.label, n, 0)
	for v := int32(old); int(v) < n; v++ {
		cm.link(0, cm.tail[0], v)
	}
}

// pendingEdge reports whether edge (w, z) of the refreshed rows is an
// insertion of the delta still to be applied. Callers ask only when
// both endpoints have insertions pending, the only way they can share
// one.
func (cm *CoreMap) pendingEdge(w, z int32) bool {
	a, b := min(w, z), max(w, z)
	lo, hi := cm.at+1, len(cm.edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := cm.edges[mid]; e.U < a || (e.U == a && e.V < b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(cm.edges) && cm.edges[lo].U == a && cm.edges[lo].V == b && cm.edges[lo].OldW == 0
}

// insert applies the inserted edge (u, v), already in the rows.
func (cm *CoreMap) insert(u, v int32) {
	if cm.core[v] < cm.core[u] || (cm.core[v] == cm.core[u] && cm.label[v] < cm.label[u]) {
		u, v = v, u
	}
	k := cm.core[u]
	cm.dplus[u]++
	if cm.dplus[u] > k {
		cm.promote(u, k)
	}
}

// promote runs the forward pass over level k from u, whose deg+ just
// exceeded k, and moves the surviving candidates to the head of level
// k+1.
func (cm *CoreMap) promote(u, k int32) {
	cm.push(u)
	for len(cm.heap) > 0 {
		w := cm.pop()
		switch {
		case cm.dplus[w]+cm.dstar[w] > k:
			cm.admit(w, k)
		case cm.dstar[w] == 0:
			cm.state[w] = settled
		default:
			cm.settle(w, k)
		}
	}
	if int(k+1) == len(cm.head) {
		cm.head, cm.tail = append(cm.head, -1), append(cm.tail, -1)
	}
	after := int32(-1)
	for _, x := range cm.cands {
		if cm.state[x] != candidate {
			continue
		}
		cm.core[x] = k + 1
		cm.link(k+1, after, x)
		after = x
	}
	if after >= 0 && int(k+1) > cm.maxCore {
		cm.maxCore = int(k + 1)
	}
	for _, x := range cm.touched {
		cm.state[x] = untouched
		cm.dstar[x] = 0
	}
	cm.touched = cm.touched[:0]
	cm.cands = cm.cands[:0]
}

// admit makes w a candidate: it leaves level k's list, and every later
// level-k neighbor gains it as an earlier candidate.
func (cm *CoreMap) admit(w, k int32) {
	cm.unlink(k, w)
	offsets, ends, nbrs := cm.s.CSR()
	wp := cm.pend[w] != 0
	for _, z := range nbrs[offsets[w]:ends[w]] {
		if cm.core[z] != k || (wp && cm.pend[z] != 0 && cm.pendingEdge(w, z)) {
			continue
		}
		switch cm.state[z] {
		case untouched:
			if cm.label[z] > cm.label[w] {
				cm.dstar[z]++
				cm.push(z)
			}
		case pending: // the heap holds only nodes after w
			cm.dstar[z]++
		}
	}
	cm.state[w] = candidate
	cm.label[w] = uint64(len(cm.cands))
	cm.cands = append(cm.cands, w)
}

// settle keeps w at level k: its earlier candidate neighbors will end up
// after it, so they join its deg+ and leave theirs. Candidates that no
// longer reach k+1 are demoted in cascade and placed right after w, in
// demotion order.
func (cm *CoreMap) settle(w, k int32) {
	cm.dplus[w] += cm.dstar[w]
	cm.dstar[w] = 0
	cm.state[w] = settled
	offsets, ends, nbrs := cm.s.CSR()
	wp := cm.pend[w] != 0
	for _, x := range nbrs[offsets[w]:ends[w]] {
		if cm.state[x] == candidate && !(wp && cm.pend[x] != 0 && cm.pendingEdge(w, x)) {
			cm.dplus[x]--
			cm.check(x, k)
		}
	}
	after := w
	for i := 0; i < len(cm.queue); i++ {
		x := cm.queue[i]
		rank := cm.label[x]
		// Every remaining candidate neighbor, earlier or later, now ends
		// up after x; x's final deg+ is exact and at most k.
		cm.dplus[x] += cm.dstar[x]
		cm.dstar[x] = 0
		cm.state[x] = settled
		xp := cm.pend[x] != 0
		for _, z := range nbrs[offsets[x]:ends[x]] {
			if cm.core[z] != k || (xp && cm.pend[z] != 0 && cm.pendingEdge(x, z)) {
				continue
			}
			switch cm.state[z] {
			case candidate, demoted:
				if cm.label[z] < rank {
					cm.dplus[z]--
				} else {
					cm.dstar[z]--
				}
				cm.check(z, k)
			case pending:
				cm.dstar[z]--
			}
		}
		cm.link(k, after, x)
		after = x
	}
	cm.queue = cm.queue[:0]
}

// check demotes candidate x once it can no longer reach level k+1.
func (cm *CoreMap) check(x, k int32) {
	if cm.state[x] == candidate && cm.dplus[x]+cm.dstar[x] <= k {
		cm.state[x] = demoted
		cm.queue = append(cm.queue, x)
	}
}

// push adds x to the pass's heap of pending level-k nodes.
func (cm *CoreMap) push(x int32) {
	cm.state[x] = pending
	cm.touched = append(cm.touched, x)
	h := append(cm.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if cm.label[h[p]] < cm.label[x] {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	cm.heap = h
}

// pop removes and returns the earliest pending node. Relabels keep the
// relative order of a level, so the heap stays valid under them.
func (cm *CoreMap) pop() int32 {
	h := cm.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && cm.label[h[c+1]] < cm.label[h[c]] {
			c++
		}
		if cm.label[last] < cm.label[h[c]] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	cm.heap = h
	return top
}

// link inserts x into level k's list after node after (-1: at the head)
// and gives it a label between its neighbors, relabeling when they
// leave no gap.
func (cm *CoreMap) link(k, after, x int32) {
	succ := cm.head[k]
	if after >= 0 {
		succ = cm.next[after]
		cm.next[after] = x
	} else {
		cm.head[k] = x
	}
	if succ >= 0 {
		cm.prev[succ] = x
	} else {
		cm.tail[k] = x
	}
	cm.prev[x], cm.next[x] = after, succ
	lo, hi := uint64(0), labelSpace // x's label lies in [lo, hi)
	if after >= 0 {
		lo = cm.label[after] + 1
	}
	if succ >= 0 {
		hi = cm.label[succ]
	}
	switch {
	case lo >= hi:
		cm.relabel(x)
	case hi-lo <= 2*endStep:
		cm.label[x] = lo + (hi-lo)/2
	case after < 0:
		cm.label[x] = hi - endStep
	case succ < 0:
		cm.label[x] = lo + endStep
	default:
		cm.label[x] = lo + (hi-lo)/2
	}
}

// relabel spreads the labels of the smallest aligned label block around
// x that is sparse enough, evenly over the block; x, just linked, has
// no label yet.
func (cm *CoreMap) relabel(x int32) {
	anchor := cm.prev[x]
	if anchor < 0 {
		anchor = cm.next[x]
	}
	a := cm.label[anchor]
	first, last := x, x
	count := uint64(1)
	for b := 1; ; b++ {
		size := uint64(1) << b
		base := a &^ (size - 1)
		for p := cm.prev[first]; p >= 0 && cm.label[p] >= base; p = cm.prev[p] {
			first = p
			count++
		}
		for q := cm.next[last]; q >= 0 && cm.label[q] < base+size; q = cm.next[q] {
			last = q
			count++
		}
		if count > labelCap[b] && b < len(labelCap)-1 {
			continue
		}
		step := size / count
		l := base + step/2
		for y := first; ; y = cm.next[y] {
			cm.label[y] = l
			l += step
			if y == last {
				return
			}
		}
	}
}

// unlink removes x from level k's list.
func (cm *CoreMap) unlink(k, x int32) {
	p, q := cm.prev[x], cm.next[x]
	if p >= 0 {
		cm.next[p] = q
	} else {
		cm.head[k] = q
	}
	if q >= 0 {
		cm.prev[q] = p
	} else {
		cm.tail[k] = p
	}
}

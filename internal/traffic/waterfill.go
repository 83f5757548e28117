package traffic

// This file is the epoch engine's max-min water-filling allocator,
// extracted behind a pooled scratch so a steady-state epoch allocates
// nothing: the per-link flow lists share one link-major slab instead of
// a per-epoch map, the link/capacity arrays persist across epochs, and
// which flows are already fixed is one bit per table index rather than
// a read of the flow. The filler reads only the flow table's hot column
// (path span and rate, flowtable.go), so most slab visits — a flow
// fixed at an earlier bottleneck — touch the bitset alone. The
// arithmetic — bottleneck selection by strict < over links in first-use
// order, flows fixed in per-link admission order, the exhausted
// bottleneck's residue snapped to exactly zero — is the epoch engine's
// original, bit for bit (the record-major fill it replaced is the test
// oracle, FuzzWaterfill); the event engine's lazy-heap solver is
// validated against it. Max-min fairness is the only sharing rule
// either engine implements.

// wfState is the pooled state of the water-filling allocator.
type wfState struct {
	nflows []int32   // flows still unallocated across the link
	capRem []float64 // capacity not yet claimed by fixed flows
	links  []int32   // links carrying active flows, first-use order
	// Link e's flow indexes, in admission order, are
	// slab[lstart[e]:lend[e]]; links take slab ranges in first-use order.
	lstart, lend []int32
	slab         []int32
	fixed        []uint64 // bit i: table index i already has its rate
}

func newWFState(nlinks int) *wfState {
	return &wfState{
		nflows: make([]int32, nlinks),
		capRem: make([]float64, nlinks),
		lstart: make([]int32, nlinks),
		lend:   make([]int32, nlinks),
	}
}

// ensure grows the per-link arrays to cover nlinks, for a state pooled
// across runs on different snapshots. fill's invariant — nflows
// all-zero between calls, every other entry initialized at first use —
// holds across runs, so growth is the only work.
func (wf *wfState) ensure(nlinks int) {
	if n := len(wf.nflows); n < nlinks {
		wf.nflows = append(wf.nflows, make([]int32, nlinks-n)...)
		wf.capRem = append(wf.capRem, make([]float64, nlinks-n)...)
		wf.lstart = append(wf.lstart, make([]int32, nlinks-n)...)
		wf.lend = append(wf.lend, make([]int32, nlinks-n)...)
	}
}

// fill computes the epoch's max-min fair rates over the active flows:
// repeatedly find the bottleneck link (smallest equal share among
// links still carrying unallocated flows), fix its flows at that
// share, and release their claim on the rest of their paths.
// Afterwards wf.links lists the carrying links for the observation
// pass, with wf.capRem holding their unclaimed capacity; the caller
// zeroes wf.nflows as it consumes them.
func (wf *wfState) fill(active *flowTable, arena *pathArena, capEdge []float64) {
	// Count each link's flows, lay the links' slab ranges out in
	// first-use order, then fill the ranges in admission order.
	wf.links = wf.links[:0]
	for fi := 0; fi < active.n; fi++ {
		h := active.hotAt(fi)
		h.rate = -1
		for _, e := range arena.path(h.path) {
			if wf.nflows[e] == 0 {
				wf.links = append(wf.links, e)
				wf.capRem[e] = capEdge[e]
			}
			wf.nflows[e]++
		}
	}
	arcs := int32(0)
	for _, e := range wf.links {
		wf.lstart[e], wf.lend[e] = arcs, arcs
		arcs += wf.nflows[e]
	}
	if int(arcs) > cap(wf.slab) {
		wf.slab = make([]int32, arcs, max(int(arcs), 2*cap(wf.slab)))
	}
	wf.slab = wf.slab[:arcs]
	for fi := 0; fi < active.n; fi++ {
		for _, e := range arena.path(active.hotAt(fi).path) {
			wf.slab[wf.lend[e]] = int32(fi)
			wf.lend[e]++
		}
	}
	words := (active.n + 63) >> 6
	if words > cap(wf.fixed) {
		wf.fixed = make([]uint64, words, max(words, 2*cap(wf.fixed)))
	}
	wf.fixed = wf.fixed[:words]
	clear(wf.fixed)
	for unfixed := active.n; unfixed > 0; {
		best := int32(-1)
		var bestShare float64
		for _, e := range wf.links {
			if wf.nflows[e] == 0 {
				continue
			}
			share := wf.capRem[e] / float64(wf.nflows[e])
			if best < 0 || share < bestShare {
				best, bestShare = e, share
			}
		}
		if best < 0 {
			break // unreachable: every flow crosses at least one link
		}
		if bestShare < 0 {
			bestShare = 0 // floating-point slack
		}
		for _, fi := range wf.slab[wf.lstart[best]:wf.lend[best]] {
			word, bit := fi>>6, uint64(1)<<(fi&63)
			if wf.fixed[word]&bit != 0 {
				continue
			}
			wf.fixed[word] |= bit
			h := active.hotAt(int(fi))
			h.rate = bestShare
			unfixed--
			for _, e := range arena.path(h.path) {
				wf.capRem[e] -= bestShare
				wf.nflows[e]--
			}
		}
		// The bottleneck's flows all just fixed at capRem/n, so its
		// remaining capacity is exactly zero; snapping away the
		// subtraction chain's ulp residue makes a saturated bottleneck
		// read utilization 1.0 exactly — in both engines, which keeps
		// the CCDF's knife-edge ≥1 bin agreeing.
		wf.capRem[best] = 0
	}
}

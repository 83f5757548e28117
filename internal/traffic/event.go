package traffic

import (
	"netmodel/internal/par"
)

// This file is the event-calendar engine (WorkloadSpec.Engine "event"):
// the scalable implementation of the same epoch-quantized flow dynamics
// the discrete-epoch engine defines. Instead of re-solving the whole
// max-min allocation and scanning every active flow each epoch, it
//
//   - pre-draws the entire arrival calendar from the per-origin
//     seed-split streams (parallel across origins, merged by origin
//     index — the draws are bit-identical to the epoch engine's),
//   - keeps persistent per-link flow sets and marks links dirty when a
//     flow arrives or departs on them,
//   - re-solves only the dirty links' dependency closure — the
//     connected components of the flow–link incidence graph that
//     contain a membership change — with a lazy-heap water-fill whose
//     cost is O(flow-hops · log) instead of O(rounds · links), solving
//     independent components in parallel via par.ForEach and merging by
//     deterministic component index, and
//   - predicts each flow's departure on a calendar heap, invalidated by
//     version counter whenever the flow's rate changes, so epochs in
//     which a flow's component is untouched cost it nothing.
//
// Determinism: admission order, dirty-list order, component discovery
// order and the departure heap's (time, flow id) total order are all
// worker-independent, and the parallel phases (calendar pre-draw, BFS
// tree builds, component solves) write only index-private state — so
// the report is byte-identical at every worker count. Equivalence with
// the epoch engine is exact on the admitted flow population and exact
// up to floating-point association order on rates and completion times
// (the two engines fix bottlenecks in the same ascending-share order
// but break share ties differently), which the equivalence suite pins
// with a tight relative tolerance.

// evFlow is one flow of the event engine. Entries are internal: a
// reroute or retry re-admission detaches the old entry and appends a
// fresh one, so the stable trace identity is tid, not the slice index.
// Without fault injection tid always equals the index.
type evFlow struct {
	src, dst  int32
	tid       int32 // trace identity (epoch engine's admission index)
	retries   int32 // re-admission attempts consumed so far
	done      bool
	version   uint32  // departure-event validity; bump to invalidate
	upEpoch   int32   // epoch remaining was last materialized at
	remaining float64 // unfinished volume as of upEpoch
	size      float64
	arrived   float64
	rate      float64 // current max-min rate; -1 while unallocated
	path      []int32 // snapshot edge ids
}

// depEvent is a predicted departure: flow id completes at instant t
// unless its rate changed since (version mismatch).
type depEvent struct {
	t   float64
	id  int32
	ver uint32
}

// depHeap is a binary min-heap of departure events ordered by
// (t, flow id) — a total order over valid events, so pop order is
// independent of push order and of the worker count.
type depHeap struct{ a []depEvent }

func (h *depHeap) less(x, y depEvent) bool {
	return x.t < y.t || (x.t == y.t && x.id < y.id)
}

func (h *depHeap) push(ev depEvent) {
	h.a = append(h.a, ev)
	for i := len(h.a) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *depHeap) pop() depEvent {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.less(h.a[l], h.a[m]) {
			m = l
		}
		if r < last && h.less(h.a[r], h.a[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return root
}

// shareEntry is one lazy heap entry of the component water-fill: link e
// offered share `share` at link-version ver. Entries whose version no
// longer matches are skipped on pop.
type shareEntry struct {
	share float64
	e     int32
	ver   uint32
}

// shareHeap is a binary min-heap by (share, edge id) — deterministic
// bottleneck selection no matter the push order.
type shareHeap struct{ a []shareEntry }

func (h *shareHeap) reset() { h.a = h.a[:0] }

func (h *shareHeap) less(x, y shareEntry) bool {
	return x.share < y.share || (x.share == y.share && x.e < y.e)
}

func (h *shareHeap) push(en shareEntry) {
	h.a = append(h.a, en)
	for i := len(h.a) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *shareHeap) pop() shareEntry {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.less(h.a[l], h.a[m]) {
			m = l
		}
		if r < last && h.less(h.a[r], h.a[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return root
}

// bottleneckComp is one connected component of the flow–link incidence
// graph touched by this epoch's membership changes, in deterministic
// discovery order. Components are disjoint, so solving them is
// embarrassingly parallel.
type bottleneckComp struct {
	links []int32
	flows []int32
}

// eventSim is the engine's evolving state.
type eventSim struct {
	ctx *simContext
	dt  float64

	flows []evFlow

	// Per-link state. lflows holds live flow ids in admission order
	// (compacted of completed ids whenever the closure visits the
	// link); nact counts them; load is the link's current allocated
	// load, persisted across epochs so clean components are never
	// rescanned.
	lflows [][]int32
	nact   []int32
	load   []float64

	// Dirty links accumulated since the last closure, in deterministic
	// mark order.
	dirtyList []int32
	inDirty   []bool

	// carrying lists links with active flows, in first-activation
	// order; the per-epoch observation pass iterates and compacts it.
	carrying   []int32
	inCarrying []bool

	// Closure scratch: epoch-stamped visited marks (stamp epoch+1, so
	// the zero value is never a valid stamp) and the BFS queue.
	linkSeen []int32
	flowSeen []int32
	queueBuf []int32

	// Solver scratch, written only by the solve owning the link.
	capRem   []float64
	nUnfixed []int32
	linkVer  []uint32

	// comps pools the closure's component descriptors: the slice and
	// each component's links/flows slabs persist across epochs,
	// truncated instead of reallocated.
	comps []bottleneckComp

	departures depHeap

	// nextTID numbers original admissions — the shared trace identity
	// both engines agree on.
	nextTID int32
}

// newEventSim readies the engine state for one run, reusing the
// scratch-pooled instance when there is one. Everything the run reads
// before writing is truncated or zeroed here — link membership, loads,
// closure stamps, the flow table, the departure heap — while pure
// solver scratch (capRem, nUnfixed, linkVer) only grows: its entries
// are initialized per solve, and the heaps' orderings never read the
// version counters, so stale values cannot steer a run. The reset cost
// is proportional to the topology, paid once per run.
func newEventSim(ctx *simContext, cal flatCalendar, scratch *SimScratch) *eventSim {
	nLinks := len(ctx.edges)
	ev := scratch.ev
	if ev == nil {
		ev = &eventSim{}
		scratch.ev = ev
	}
	ev.ctx, ev.dt = ctx, ctx.spec.EpochLen
	if n := len(ev.nact); n < nLinks {
		ev.lflows = append(ev.lflows, make([][]int32, nLinks-n)...)
		ev.nact = append(ev.nact, make([]int32, nLinks-n)...)
		ev.load = append(ev.load, make([]float64, nLinks-n)...)
		ev.inDirty = append(ev.inDirty, make([]bool, nLinks-n)...)
		ev.inCarrying = append(ev.inCarrying, make([]bool, nLinks-n)...)
		ev.linkSeen = append(ev.linkSeen, make([]int32, nLinks-n)...)
		ev.capRem = append(ev.capRem, make([]float64, nLinks-n)...)
		ev.nUnfixed = append(ev.nUnfixed, make([]int32, nLinks-n)...)
		ev.linkVer = append(ev.linkVer, make([]uint32, nLinks-n)...)
	}
	for i := 0; i < nLinks; i++ {
		ev.lflows[i] = ev.lflows[i][:0]
		ev.nact[i] = 0
		ev.load[i] = 0
		ev.inDirty[i] = false
		ev.inCarrying[i] = false
		ev.linkSeen[i] = 0
	}
	ev.dirtyList = ev.dirtyList[:0]
	ev.carrying = ev.carrying[:0]
	// The calendar's total arrival count sizes the flow table and
	// departure heap exactly: without fault injection no admission ever
	// regrows them (reroutes and retries append extra entries,
	// amortized as usual — and kept across runs by a shared scratch).
	if cap(ev.flows) < len(cal.pend) {
		ev.flows = make([]evFlow, 0, len(cal.pend))
		ev.flowSeen = make([]int32, 0, len(cal.pend))
		ev.departures.a = make([]depEvent, 0, len(cal.pend))
	}
	ev.flows = ev.flows[:0]
	ev.flowSeen = ev.flowSeen[:0]
	ev.departures.a = ev.departures.a[:0]
	ev.nextTID = 0
	return ev
}

func (ev *eventSim) markDirty(e int32) {
	if !ev.inDirty[e] {
		ev.inDirty[e] = true
		ev.dirtyList = append(ev.dirtyList, e)
	}
}

// attach appends a live flow entry — an original admission, a reroute's
// replacement, or a retry re-admission — and joins it to its path's
// link sets, dirtying them for the epoch's closure.
func (ev *eventSim) attach(tid, src, dst int32, path []int32, remaining, arrived float64, retries int32, epoch int) {
	id := int32(len(ev.flows))
	ev.flows = append(ev.flows, evFlow{
		src: src, dst: dst, tid: tid, retries: retries,
		upEpoch: int32(epoch), remaining: remaining, size: remaining,
		arrived: arrived, rate: -1, path: path,
	})
	ev.flowSeen = append(ev.flowSeen, 0)
	for _, g := range path {
		ev.nact[g]++
		ev.lflows[g] = append(ev.lflows[g], id)
		ev.markDirty(g)
		if !ev.inCarrying[g] {
			ev.inCarrying[g] = true
			ev.carrying = append(ev.carrying, g)
		}
	}
}

// detach materializes the flow's remaining volume at the given epoch
// and retires its entry: done entries are compacted from link flow sets
// by the next closure, and its links are dirtied so the component
// re-solves without it.
func (ev *eventSim) detach(id int32, epoch int) {
	f := &ev.flows[id]
	if f.rate > 0 && int32(epoch) > f.upEpoch {
		f.remaining -= f.rate * float64(int32(epoch)-f.upEpoch) * ev.dt
	}
	f.upEpoch = int32(epoch)
	f.done = true
	f.version++ // strand any scheduled departure
	for _, g := range f.path {
		ev.nact[g]--
		ev.markDirty(g)
	}
}

// flatCalendar is the pre-drawn arrival calendar flattened into one
// slab: epoch e's arrivals are pend[offs[e]:offs[e+1]]. One backing
// array for the whole horizon instead of a slice per epoch, so the
// per-epoch admission phase allocates nothing — and the total arrival
// count (len(pend)) sizes the engine's flow table exactly up front.
type flatCalendar struct {
	pend []pending
	offs []int32 // len epochs+1, monotone
}

func (fc *flatCalendar) epoch(e int) []pending {
	return fc.pend[fc.offs[e]:fc.offs[e+1]]
}

// buildCalendar pre-draws every origin's arrivals for the whole horizon
// — parallel across origins, since each origin draws only from its own
// split stream — and merges them into per-epoch admission lists in
// ascending origin order, exactly the order the epoch engine draws in.
func buildCalendar(ctx *simContext) flatCalendar {
	epochs := ctx.spec.Epochs
	dt := ctx.spec.EpochLen
	type originCal struct {
		counts []int32
		pend   []pending
	}
	cals := make([]originCal, len(ctx.srcNodes))
	par.ForEach(len(ctx.srcNodes), par.Workers(ctx.workers), func(_, i int) {
		oc := originCal{counts: make([]int32, epochs)}
		for e := 0; e < epochs; e++ {
			before := len(oc.pend)
			oc.pend = ctx.drawArrivals(i, dt, oc.pend)
			oc.counts[e] = int32(len(oc.pend) - before)
		}
		cals[i] = oc
	})
	total := 0
	for i := range cals {
		total += len(cals[i].pend)
	}
	fc := flatCalendar{
		pend: make([]pending, 0, total),
		offs: make([]int32, epochs+1),
	}
	offs := make([]int32, len(cals))
	for e := 0; e < epochs; e++ {
		for i := range cals {
			k := cals[i].counts[e]
			if k > 0 {
				fc.pend = append(fc.pend, cals[i].pend[offs[i]:offs[i]+k]...)
				offs[i] += k
			}
		}
		fc.offs[e+1] = int32(len(fc.pend))
	}
	return fc
}

// closure consumes the dirty list and returns the affected connected
// components of the flow–link incidence graph: BFS from each dirty link
// in mark order, alternating link → live flows → their path links.
// Visiting a flow materializes its remaining volume at the current
// epoch, invalidates its scheduled departure and marks it unallocated;
// visiting a link compacts completed ids out of its flow set. Links and
// flows outside the closure keep their rates, loads and predicted
// departures untouched.
func (ev *eventSim) closure(epoch int) []bottleneckComp {
	stamp := int32(epoch + 1)
	nc := 0
	for _, seed := range ev.dirtyList {
		ev.inDirty[seed] = false
		if ev.linkSeen[seed] == stamp {
			continue
		}
		ev.linkSeen[seed] = stamp
		if nc == len(ev.comps) {
			ev.comps = append(ev.comps, bottleneckComp{})
		}
		c := &ev.comps[nc]
		c.links, c.flows = c.links[:0], c.flows[:0]
		nc++
		queue := append(ev.queueBuf[:0], seed)
		for qi := 0; qi < len(queue); qi++ {
			e := queue[qi]
			c.links = append(c.links, e)
			live := ev.lflows[e][:0]
			for _, fid := range ev.lflows[e] {
				f := &ev.flows[fid]
				if f.done {
					continue
				}
				live = append(live, fid)
				if ev.flowSeen[fid] == stamp {
					continue
				}
				ev.flowSeen[fid] = stamp
				if f.rate > 0 && int32(epoch) > f.upEpoch {
					f.remaining -= f.rate * float64(int32(epoch)-f.upEpoch) * ev.dt
				}
				f.upEpoch = int32(epoch)
				f.rate = -1
				f.version++ // strand any scheduled departure
				c.flows = append(c.flows, fid)
				for _, g := range f.path {
					if ev.linkSeen[g] != stamp {
						ev.linkSeen[g] = stamp
						queue = append(queue, g)
					}
				}
			}
			ev.lflows[e] = live
		}
		ev.queueBuf = queue[:0]
	}
	ev.dirtyList = ev.dirtyList[:0]
	return ev.comps[:nc]
}

// solveComponent water-fills one component from scratch: a lazy heap of
// (capRem/nUnfixed, edge id) keys pops the bottleneck link, fixes its
// unallocated flows at the bottleneck share, and re-keys every link
// those flows cross. Each fix costs O(path · log) instead of the epoch
// engine's O(links) scan per bottleneck round. The component's links
// and flows are private to this call, so parallel solves never touch
// shared state.
func (ev *eventSim) solveComponent(c *bottleneckComp, h *shareHeap) {
	for _, e := range c.links {
		ev.capRem[e] = ev.capEdge(e)
		ev.nUnfixed[e] = ev.nact[e]
		ev.linkVer[e]++
	}
	h.reset()
	for _, e := range c.links {
		if ev.nUnfixed[e] > 0 {
			h.push(shareEntry{ev.capRem[e] / float64(ev.nUnfixed[e]), e, ev.linkVer[e]})
		}
	}
	for unfixed := len(c.flows); unfixed > 0 && len(h.a) > 0; {
		en := h.pop()
		if en.ver != ev.linkVer[en.e] || ev.nUnfixed[en.e] == 0 {
			continue // stale key
		}
		best := en.e
		bestShare := ev.capRem[best] / float64(ev.nUnfixed[best])
		if bestShare < 0 {
			bestShare = 0 // floating-point slack
		}
		for _, fid := range ev.lflows[best] {
			f := &ev.flows[fid]
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfixed--
			for _, g := range f.path {
				ev.capRem[g] -= bestShare
				ev.nUnfixed[g]--
				ev.linkVer[g]++
				if ev.nUnfixed[g] > 0 {
					h.push(shareEntry{ev.capRem[g] / float64(ev.nUnfixed[g]), g, ev.linkVer[g]})
				}
			}
		}
		// Snap the exhausted bottleneck's residue to exactly zero, the
		// same ulp discipline as the epoch engine — saturated
		// bottlenecks read utilization 1.0 exactly in both.
		ev.capRem[best] = 0
	}
	for _, e := range c.links {
		load := ev.capEdge(e) - ev.capRem[e]
		if load < 0 {
			load = 0
		}
		if load > ev.capEdge(e) {
			load = ev.capEdge(e)
		}
		ev.load[e] = load
	}
}

func (ev *eventSim) capEdge(e int32) float64 { return ev.ctx.capEdge[e] }

// simulateEvent runs the event-calendar engine. The per-epoch phases —
// admission, closure, parallel component solves, departure scheduling,
// observation, departures — replicate the epoch engine's ordering
// (arrivals and rates first, link observations under those rates, then
// completions leave at the boundary), so the two engines agree on the
// trajectory.
func simulateEvent(ctx *simContext) (*SimReport, error) {
	return simulateEventCal(ctx, buildCalendar(ctx))
}

// simulateEventCal is simulateEvent against an already-built calendar —
// the seam the steady-state allocation benchmark measures through, so
// the one-time arrival pre-draw stays outside the measured epochs.
func simulateEventCal(ctx *simContext, cal flatCalendar) (*SimReport, error) {
	spec := ctx.spec
	scratch := ctx.cfg.scratch
	if scratch == nil {
		scratch = &SimScratch{} // private to this run
	}
	ev := newEventSim(ctx, cal, scratch)
	rep := &SimReport{Spec: spec, Epochs: make([]EpochStats, 0, spec.Epochs)}
	dt := ev.dt
	obs := newLinkObs(ctx)
	var (
		activeCount int
		now         float64
		curEpoch    int
		admitted    int
		comps       []bottleneckComp
	)
	for w := par.Workers(ctx.workers); len(scratch.solvers) < w; {
		scratch.solvers = append(scratch.solvers, &shareHeap{})
	}
	solvers := scratch.solvers
	// Both per-epoch hot closures are created once per run — the
	// admission callback and the component-solve body read the epoch's
	// state through captured variables, so the steady state's marginal
	// cost carries no closure allocations.
	admitFlow := func(p pending, path []int32) {
		if ctx.fail != nil {
			path = ctx.fail.toBase(path)
		}
		tid := ev.nextTID
		ev.nextTID++
		if ctx.cfg.trace {
			rep.Flows = append(rep.Flows, FlowRecord{
				Src: p.src, Dst: p.dst, Size: p.size, Arrived: now,
			})
		}
		ev.attach(tid, int32(p.src), int32(p.dst), path, p.size, now, 0, curEpoch)
		admitted++
		activeCount++
	}
	solveOne := func(w, i int) {
		ev.solveComponent(&comps[i], solvers[w])
	}

	for epoch := 0; epoch < spec.Epochs; epoch++ {
		now = float64(epoch) * dt
		curEpoch = epoch

		// Failure phase, mirroring the epoch engine exactly: apply the
		// epoch's outage ops, then scan the flow entries in admission
		// order — a broken-path flow's entry is detached and either
		// replaced (reroute) or killed — and re-admit due retries. The
		// detached links are dirty, so the closure re-solves their
		// components without the departed members.
		reroutedNow, killedNow, retriedNow := 0, 0, 0
		if fail := ctx.fail; fail != nil {
			if err := fail.beginEpoch(epoch); err != nil {
				return nil, err
			}
			if fail.flipped {
				nf := len(ev.flows)
				for id := 0; id < nf; id++ {
					f := &ev.flows[id]
					if f.done || !fail.pathBroken(f.path) {
						continue
					}
					ev.detach(int32(id), epoch)
					// Copy before attach: appending may move ev.flows.
					tid, src, dst := f.tid, f.src, f.dst
					remaining, arrived, retries := f.remaining, f.arrived, f.retries
					if np, ok := fail.resolve(int(src), int(dst)); ok {
						reroutedNow++
						fail.rerouted++
						if ctx.cfg.trace {
							rep.Flows[tid].Reroutes++
						}
						ev.attach(tid, src, dst, np, remaining, arrived, retries, epoch)
						continue
					}
					killedNow++
					activeCount--
					fail.kill(epoch, tid, src, dst, remaining, arrived, retries)
					if ctx.cfg.trace {
						rep.Flows[tid].Killed = true
					}
				}
			}
			for _, rf := range fail.takeRetries(epoch) {
				fail.retried++
				retriedNow++
				rf.retries++
				if ctx.cfg.trace {
					rep.Flows[rf.id].Retries++
				}
				if path, ok := fail.resolve(int(rf.src), int(rf.dst)); ok {
					ev.attach(rf.id, rf.src, rf.dst, path, rf.remaining, rf.arrived, rf.retries, epoch)
					activeCount++
					if ctx.cfg.trace {
						rep.Flows[rf.id].Killed = false
					}
				} else {
					fail.requeue(epoch, rf)
				}
			}
		}

		// Admission: route the pre-drawn arrivals, create flows, add
		// them to their links' sets and dirty those links.
		admitted = 0
		rep.Undelivered += admitPending(ctx.routing(), ctx.workers, cal.epoch(epoch), admitFlow)
		rep.Arrived += admitted

		// Re-solve only the affected components, in parallel. Writes are
		// component-private and the component list is deterministic, so
		// the merged state is byte-identical at every worker count.
		comps = ev.closure(epoch)
		par.ForEach(len(comps), ctx.workers, solveOne)

		// Schedule departures for the re-rated flows (sequential, in
		// component order; the heap's total order makes pop order
		// independent of push order anyway).
		for i := range comps {
			for _, fid := range comps[i].flows {
				f := &ev.flows[fid]
				if f.rate > 0 {
					ev.departures.push(depEvent{t: now + f.remaining/f.rate, id: fid, ver: f.version})
				}
			}
		}

		// Link observations under this epoch's rates, compacting links
		// whose flows have all departed out of the carrying list.
		keep := ev.carrying[:0]
		for _, e := range ev.carrying {
			if ev.nact[e] == 0 {
				ev.inCarrying[e] = false
				continue
			}
			keep = append(keep, e)
			obs.link(int(e), ev.load[e], ev.capEdge(e))
		}
		ev.carrying = keep

		// Departures: pop every event predicted inside this epoch; an
		// event is valid only if the flow still holds the rate it was
		// predicted under. Removals dirty the flow's links for the next
		// epoch's closure.
		completedNow := 0
		boundary := float64(epoch+1) * dt
		for len(ev.departures.a) > 0 && ev.departures.a[0].t <= boundary {
			de := ev.departures.pop()
			f := &ev.flows[de.id]
			if f.done || de.ver != f.version || f.rate <= 0 {
				continue // stranded prediction
			}
			f.done = true
			obs.fctSum += de.t - f.arrived
			completedNow++
			activeCount--
			if ctx.fail != nil {
				ctx.fail.noteFCT(f.arrived, de.t-f.arrived)
			}
			if ctx.cfg.trace {
				rep.Flows[f.tid].Done = true
				rep.Flows[f.tid].Finished = de.t
			}
			for _, g := range f.path {
				ev.nact[g]--
				ev.markDirty(g)
			}
		}
		obs.endEpoch(rep, EpochStats{
			Epoch: epoch, Arrived: admitted, Completed: completedNow, Active: activeCount,
			Rerouted: reroutedNow, Killed: killedNow, Retried: retriedNow,
		})
	}

	// Residuals: materialize every live flow's remaining volume at the
	// horizon, in admission order (the epoch engine's order too).
	rep.ResidualFlows = activeCount
	for id := range ev.flows {
		f := &ev.flows[id]
		if f.done {
			continue
		}
		rem := f.remaining
		if f.rate > 0 && int32(spec.Epochs) > f.upEpoch {
			rem -= f.rate * float64(int32(spec.Epochs)-f.upEpoch) * dt
		}
		if rem < 0 {
			rem = 0 // an ulp past the horizon
		}
		rep.ResidualSize += rem
	}
	obs.finishReport(rep)
	return rep, nil
}

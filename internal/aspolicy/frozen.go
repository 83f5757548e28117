package aspolicy

import (
	"errors"
	"strconv"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// Frozen is the immutable CSR view of an annotated topology: the
// snapshot's arc array paired with a parallel per-arc relationship
// array, so policy traversals (customer cones, valley-free BFS) scan
// flat memory instead of hashing ordered pairs. Being immutable it is
// safe for the parallel sweeps below.
type Frozen struct {
	S *graph.Snapshot
	// rel[a] is the relationship of (u, v) for arc a of node u.
	rel []Rel
	// Workers caps the pool for the parallel sweeps; <= 0 means the
	// bound engine's pool when present, GOMAXPROCS otherwise. Results
	// reproduce bit for bit at a fixed worker count (the reductions are
	// integral, so in practice at any).
	Workers int
	// eng, when set via FreezeWith, memoizes the whole-graph policy
	// metrics (customer cones, exact inflation) in the engine's
	// per-snapshot cache so they are computed once per frozen topology,
	// alongside the topology metrics. Keys carry relKey, a hash of the
	// relationship array, so two annotations of the same graph bound to
	// one engine never serve each other's results.
	eng    *engine.Engine
	relKey string
}

// Freeze builds the frozen view of the annotation. Unannotated edges
// freeze as relationship 0 and surface as "annotation incomplete"
// errors from the traversals.
func (a *Annotated) Freeze() *Frozen {
	return a.freezeOn(a.G.Freeze(), nil)
}

// FreezeWith builds the frozen view over the snapshot an engine already
// holds, binding the policy metrics into the engine's per-snapshot
// memoization: customer cones and exact valley-free inflation are then
// cached next to clustering, k-cores and the rest, so a pipeline that
// mixes topology and policy metrics freezes once and computes each
// result once. The engine must wrap a snapshot of the annotated graph
// (same node count and arc structure); anything else errors.
func (a *Annotated) FreezeWith(eng *engine.Engine) (*Frozen, error) {
	s := eng.Snapshot()
	if s.N() != a.G.N() || s.M() != a.G.M() {
		return nil, errors.New("aspolicy: engine snapshot does not match the annotated graph")
	}
	return a.freezeOn(s, eng), nil
}

func (a *Annotated) freezeOn(s *graph.Snapshot, eng *engine.Engine) *Frozen {
	// rel spans the snapshot's full arc index space: refreshed
	// snapshots carry slack and relocation gaps, so rows need not tile
	// 2M and rel must be indexed by real arc indices, never densely.
	f := &Frozen{S: s, rel: make([]Rel, s.ArcSpace()), eng: eng}
	n := s.N()
	for u := 0; u < n; u++ {
		lo, _ := s.ArcRange(u)
		for j, v := range s.Neighbors(u) {
			f.rel[int(lo)+j] = a.RelOf(u, int(v))
		}
	}
	if eng != nil {
		// FNV-1a over the live arc relationships in row order, so the
		// key depends on the annotation, not the arena layout: frozen
		// views with equal annotations share memo entries, differing
		// annotations do not.
		h := uint64(0xcbf29ce484222325)
		f.eachArc(func(_ int32, rel Rel) bool {
			h = (h ^ uint64(byte(rel))) * 0x100000001b3
			return true
		})
		f.relKey = strconv.FormatUint(h, 16)
	}
	return f
}

// eachArc calls fn for every live arc index and its relationship, in
// row order, stopping early if fn returns false.
func (f *Frozen) eachArc(fn func(arc int32, rel Rel) bool) {
	n := f.S.N()
	for u := 0; u < n; u++ {
		lo, hi := f.S.ArcRange(u)
		for a := lo; a < hi; a++ {
			if !fn(a, f.rel[a]) {
				return
			}
		}
	}
}

// CustomerCone returns, for every AS, the size of its customer cone:
// the number of ASs reachable by walking provider→customer links only,
// including the AS itself. The cone is the standard measure of an AS's
// market footprint (CAIDA AS-rank): tier-1 cones span most of the
// network while stub cones are singletons.
//
// Each cone is its own provider→customer DFS, sharded across the worker
// pool. Memoizing across nodes is unsound because cones overlap under
// multi-homing (union sizes do not compose); cones are small for the
// vast majority of ASs, keeping the total cost near O(M·depth) in
// practice. Each worker keeps its own visit-stamp array, so provider
// cycles terminate and cones are independent of the worker count.
// When the view is bound to an engine (FreezeWith), the result is
// memoized per snapshot; callers must not modify it.
func (f *Frozen) CustomerCone() []int {
	if f.eng != nil {
		return f.eng.Cached("aspolicy:cone:"+f.relKey, func() any { return f.customerCone() }).([]int)
	}
	return f.customerCone()
}

func (f *Frozen) customerCone() []int {
	s := f.S
	n := s.N()
	cone := make([]int, n)
	type coneScratch struct {
		mark  []int32
		stack []int32
	}
	scratch := make([]*coneScratch, f.workers())
	par.For(n, len(scratch), func(w, u int) {
		sc := scratch[w]
		if sc == nil {
			sc = &coneScratch{mark: make([]int32, n)}
			for i := range sc.mark {
				sc.mark[i] = -1
			}
			scratch[w] = sc
		}
		size := 0
		sc.stack = sc.stack[:0]
		sc.stack = append(sc.stack, int32(u))
		sc.mark[u] = int32(u)
		for len(sc.stack) > 0 {
			v := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			size++
			lo, _ := s.ArcRange(int(v))
			for j, w2 := range s.Neighbors(int(v)) {
				if f.rel[int(lo)+j] == P2C && sc.mark[w2] != int32(u) {
					sc.mark[w2] = int32(u)
					sc.stack = append(sc.stack, w2)
				}
			}
		}
		cone[u] = size
	})
	return cone
}

// Valley-free routing is a BFS over an expanded state space: each AS is
// visited in one of two phases. Phase up ("still climbing"): the path so
// far used only customer→provider links. Phase down ("over the top"):
// the path crossed a peer link or a provider→customer link; from here
// only provider→customer links may follow. This encodes Gao's export
// rule exactly and finds the shortest policy-compliant path.

const (
	phaseUp = iota
	phaseDown
	numPhases
)

// valleyFree runs the two-phase policy BFS from src into dist (length
// numPhases*N, overwritten). queue is scratch.
func (f *Frozen) valleyFree(src int, dist []int32, queue []int32) error {
	s := f.S
	n := s.N()
	if src < 0 || src >= n {
		return errors.New("aspolicy: source out of range")
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[src*numPhases+phaseUp] = 0
	queue = append(queue[:0], int32(src*numPhases+phaseUp))
	for head := 0; head < len(queue); head++ {
		state := queue[head]
		u, phase := int(state)/numPhases, int(state)%numPhases
		d := dist[state]
		lo, _ := s.ArcRange(u)
		for j, v := range s.Neighbors(u) {
			r := f.rel[int(lo)+j]
			if r == 0 {
				return errors.New("aspolicy: annotation incomplete")
			}
			var next int32
			switch {
			case phase == phaseUp && r == C2P:
				next = v*numPhases + phaseUp
			case r == P2C:
				next = v*numPhases + phaseDown
			case phase == phaseUp && r == Peer:
				next = v*numPhases + phaseDown
			default:
				continue // policy forbids this step
			}
			if dist[next] < 0 {
				dist[next] = d + 1
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// Inflation summarizes policy path stretch relative to shortest paths.
type Inflation struct {
	Pairs       int     // sampled reachable pairs
	Unreachable int     // pairs reachable topologically but not by policy
	AvgShortest float64 // mean hop count ignoring policy
	AvgPolicy   float64 // mean valley-free hop count over policy-reachable pairs
	Ratio       float64 // AvgPolicy / AvgShortest over pairs reachable both ways
	MaxStretch  int     // worst per-pair additive stretch observed
}

// MeasureInflation samples `sources` BFS roots (all nodes when <= 0)
// and compares plain shortest paths with valley-free paths from each
// root, sharding roots across the worker pool. All per-root reductions
// are integral, so the result is the same at any worker count for the
// same generator state. Exact (all-sources) runs are memoized when the
// view is bound to an engine; sampled runs are not.
func (f *Frozen) MeasureInflation(r *rng.Rand, sources int) (Inflation, error) {
	if f.eng != nil && (sources <= 0 || sources >= f.S.N()) {
		type result struct {
			inf Inflation
			err error
		}
		res := f.eng.Cached("aspolicy:inflation:"+f.relKey, func() any {
			inf, err := f.measureInflation(r, sources)
			return result{inf, err}
		}).(result)
		return res.inf, res.err
	}
	return f.measureInflation(r, sources)
}

func (f *Frozen) measureInflation(r *rng.Rand, sources int) (Inflation, error) {
	s := f.S
	n := s.N()
	if n < 2 {
		return Inflation{}, errors.New("aspolicy: need at least two nodes")
	}
	var srcs []int
	if sources <= 0 || sources >= n {
		srcs = make([]int, n)
		for i := range srcs {
			srcs[i] = i
		}
	} else {
		if r == nil {
			return Inflation{}, errors.New("aspolicy: sampling requires a generator")
		}
		srcs = r.Perm(n)[:sources]
	}
	type inflScratch struct {
		plain, queue []int32
		policy       []int32
		vfQueue      []int32
		pairs        int
		unreach      int
		both         int
		sumS, sumP   int64
		maxStretch   int
		err          error
	}
	scratch := make([]*inflScratch, f.workers())
	par.For(len(srcs), len(scratch), func(w, i int) {
		sc := scratch[w]
		if sc == nil {
			sc = &inflScratch{
				plain:   make([]int32, n),
				queue:   make([]int32, n),
				policy:  make([]int32, numPhases*n),
				vfQueue: make([]int32, 0, numPhases*n),
			}
			scratch[w] = sc
		}
		if sc.err != nil {
			return
		}
		src := srcs[i]
		metrics.BFSFrozen(f.S, src, sc.plain, sc.queue)
		if err := f.valleyFree(src, sc.policy, sc.vfQueue); err != nil {
			sc.err = err
			return
		}
		for v := 0; v < n; v++ {
			if v == src || sc.plain[v] < 0 {
				continue
			}
			sc.pairs++
			du := sc.policy[v*numPhases+phaseUp]
			dd := sc.policy[v*numPhases+phaseDown]
			pol := du
			if du < 0 || (dd >= 0 && dd < du) {
				pol = dd
			}
			if pol < 0 {
				sc.unreach++
				continue
			}
			sc.both++
			sc.sumS += int64(sc.plain[v])
			sc.sumP += int64(pol)
			if st := int(pol - sc.plain[v]); st > sc.maxStretch {
				sc.maxStretch = st
			}
		}
	})
	var inf Inflation
	var sumS, sumP int64
	var both int
	for _, sc := range scratch {
		if sc == nil {
			continue
		}
		if sc.err != nil {
			return Inflation{}, sc.err
		}
		inf.Pairs += sc.pairs
		inf.Unreachable += sc.unreach
		both += sc.both
		sumS += sc.sumS
		sumP += sc.sumP
		if sc.maxStretch > inf.MaxStretch {
			inf.MaxStretch = sc.maxStretch
		}
	}
	if both > 0 {
		inf.AvgShortest = float64(sumS) / float64(both)
		inf.AvgPolicy = float64(sumP) / float64(both)
		if inf.AvgShortest > 0 {
			inf.Ratio = inf.AvgPolicy / inf.AvgShortest
		}
	}
	return inf, nil
}

// workers returns the configured pool width for policy sweeps: the
// explicit override, then the bound engine's pool, then GOMAXPROCS.
func (f *Frozen) workers() int {
	if f.Workers > 0 {
		return f.Workers
	}
	if f.eng != nil {
		return f.eng.Workers()
	}
	return par.Workers(0)
}

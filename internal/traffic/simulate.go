package traffic

import (
	"errors"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// Routing is the memoizable routing state of a frozen snapshot: one
// shortest-path tree per origin, built on demand and cached under a
// deterministic FIFO budget so workload simulations reuse paths across
// epochs without holding N trees for a 100k-node map. A cached tree is
// just its origin's hop-distance row; parents are derived while walking
// a path (selectParent), so a flow's path is a pure function of
// (snapshot, source, destination) and never depends on the worker count
// or on which epochs demanded which trees first. When an epoch's
// origins outnumber the tree budget, origins with few destinations are
// resolved by exact pair searches instead (pairpath.go): a pair path is
// the tree path edge for edge, so which of the two resolved a flow
// never shows.
//
// Routing is not safe for concurrent use; Ensure shards tree builds
// internally, but callers (the sequential simulation loop) must not
// query one Routing from several goroutines.
type Routing struct {
	s       *graph.Snapshot
	arcEdge []int32
	max     int             // tree-cache budget, a pure function of the node count
	trees   map[int][]int32 // cached sources' hop-distance rows, -1 unreachable
	fifo    []int           // cached sources, oldest first
	// paths memoizes resolved origin-destination paths (nil = dst
	// unreachable from src). A path is ~40 bytes against 4n for a
	// tree, so repeated OD pairs — re-runs over one snapshot, heavy
	// origins inside one run — skip the BFS entirely even after the
	// tree cache evicted the origin's tree.
	paths map[int64][]int32

	// Admission scratch, persisted so a steady-state epoch whose OD
	// pairs are all memoized admits without allocating (admitPending).
	admPaths   [][]int32
	admUnreach []bool
	admMiss    []int
	admBatch   []int
	// pair resolves single OD paths without a tree when the cache
	// cannot hold an epoch's origins (admitPending, pairpath.go).
	pair pairScratch

	// Tree-storage pool: evicted and Reset rows park here and are
	// handed to the next build, and Ensure's batch buffers persist — so
	// a warm Routing swept across same-sized topologies (Routing.Reset)
	// rebuilds its trees without allocating.
	free      [][]int32
	enMissing []int
	enBuilt   [][]int32
	enScratch []*metrics.BFSScratch
	// enStamp[src] == enRound marks batch membership during Ensure, a
	// stamped array instead of a per-call map.
	enStamp []int32
	enRound int32

	// Refresh scratch, persisted so a steady-state tree repair at fixed
	// n allocates nothing (Routing.Refresh). rfBody is the repair
	// closure, created once and re-reading its per-call parameters
	// (rfNext, rfBudget and the slices below) from these fields — a
	// closure literal per Refresh would be the last allocation on an
	// otherwise alloc-free repair. rfRows receives each repaired row
	// (index-private, so the parallel repairs never write the map).
	rfIns, rfRem []graph.DeltaEdge
	rfOldToNew   []int32
	rfSrcs       []int
	rfRows       [][]int32
	rfChanged    []bool
	rfScratch    []*metrics.DistScratch
	rfEdges      []graph.Edge
	rfArcEdge    []int32
	rfNext       *graph.Snapshot
	rfBudget     int
	rfBody       func(worker, i int)
	// changedStamp[src] == changedRound marks sources whose tree
	// changed this Refresh — the memo-invalidation set, a stamped array
	// instead of a per-call map.
	changedStamp []int32
	changedRound int32
}

// routingPathBudget caps the memoized paths (entries, not bytes; a
// deterministic stop-inserting cap, never an eviction).
const routingPathBudget = 1 << 18

func pathKey(src, dst int) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// cachedPath returns the memoized path for (src, dst): path, whether
// the pair is cached at all, and whether dst is unreachable from src.
func (rt *Routing) cachedPath(src, dst int) (path []int32, ok, unreachable bool) {
	p, ok := rt.paths[pathKey(src, dst)]
	return p, ok, ok && p == nil
}

// storePath memoizes a resolved (src, dst) path (nil for unreachable)
// while the budget lasts.
func (rt *Routing) storePath(src, dst int, path []int32, reachable bool) {
	if len(rt.paths) >= routingPathBudget {
		return
	}
	if !reachable {
		path = nil
	}
	rt.paths[pathKey(src, dst)] = path
}

// routingTreeBudget bounds the memory held by cached trees (one int32
// distance per node per tree).
const routingTreeBudget = 32 << 20

// RoutingTreeBudget returns the tree-cache entry budget NewRouting
// configures at n nodes — a pure function of the node count under the
// fixed byte budget, and the "routing budget" component of artifact
// cache keys.
func RoutingTreeBudget(n int) int {
	max := routingTreeBudget / (4 * (n + 1))
	if max < 16 {
		max = 16
	}
	return max
}

// NewRouting returns empty routing state over the snapshot.
func NewRouting(s *graph.Snapshot) *Routing {
	return &Routing{s: s, arcEdge: s.ArcEdgeIDs(), max: RoutingTreeBudget(s.N()),
		trees: make(map[int][]int32), paths: make(map[int64][]int32)}
}

// TreeBudget returns the configured tree-cache entry budget.
func (rt *Routing) TreeBudget() int { return rt.max }

// MemBytes estimates the heap bytes the routing state holds live: the
// distance rows of the cached and the pooled trees, the memoized OD
// paths and the pair-search scratch — the byte cost an artifact cache
// should charge for a warm Routing.
func (rt *Routing) MemBytes() int64 {
	var b int64
	for _, dist := range rt.trees {
		b += 4 * int64(cap(dist))
	}
	for _, dist := range rt.free {
		b += 4 * int64(cap(dist))
	}
	return b + int64(len(rt.paths))*48 + rt.pair.memBytes()
}

// newTree pops a pooled row (contents stale) or nil, which the build
// then allocates.
func (rt *Routing) newTree() []int32 {
	k := len(rt.free)
	if k == 0 {
		return nil
	}
	dist := rt.free[k-1]
	rt.free[k-1] = nil
	rt.free = rt.free[:k-1]
	return dist
}

// RoutingOf returns the routing state memoized in the engine's
// per-snapshot cache (key "traffic:routing"): every workload simulation
// over the engine's current snapshot shares one set of shortest-path
// trees, and an Advance to a refreshed snapshot drops it with the rest
// of the version's entries.
func RoutingOf(eng *engine.Engine) *Routing {
	return eng.Cached("traffic:routing", func() any {
		return NewRouting(eng.Snapshot())
	}).(*Routing)
}

// selectParent returns the arc of v's canonical tree entry: the arc to
// v's first CSR neighbor one hop closer to the source (-1 at the source,
// for unreachable nodes and for a node left with no closer neighbor).
// The choice is a pure function of the snapshot and the distance field
// — not of BFS discovery order — and it is the one parent rule: tree
// paths walk it, Routing.Refresh's invalidation tests it, and pairPath
// (pairpath.go) reproduces it from its two search balls.
func selectParent(s *graph.Snapshot, dist []int32, v int) int32 {
	dv := dist[v]
	if dv <= 0 {
		return -1
	}
	offsets, ends, nbr := s.CSR()
	for arc := offsets[v]; arc < ends[v]; arc++ {
		if dist[nbr[arc]] == dv-1 {
			return arc
		}
	}
	return -1
}

// walkPath appends the edge ids of the canonical tree path from dst
// back to the source of the distance row dist onto buf, following
// selectParent one hop closer per step, and reports whether dst is
// reachable.
func walkPath(s *graph.Snapshot, arcEdge, dist, buf []int32, dst int) ([]int32, bool) {
	if dist[dst] < 0 {
		return buf, false
	}
	_, _, nbr := s.CSR()
	for v := dst; dist[v] > 0; {
		arc := selectParent(s, dist, v)
		buf = append(buf, arcEdge[arc])
		v = int(nbr[arc])
	}
	return buf, true
}

// treePath resolves (src, dst) by walking src's distance row, building
// and caching the row first if needed.
func (rt *Routing) treePath(src, dst int) ([]int32, bool) {
	dist, ok := rt.trees[src]
	if !ok {
		rt.Ensure([]int{src}, 1)
		dist = rt.trees[src]
	}
	return walkPath(rt.s, rt.arcEdge, dist, nil, dst)
}

// buildTreeInto fills dist with src's hop distances over s by one
// hybrid BFS, growing the row to the snapshot size, and returns it. The
// hybrid kernel's distances are bit-identical to the classic BFS, so
// pooled rebuilds, parallel cold builds and incremental repairs all
// produce the same row, and every path walked from it is the same. At
// fixed n a rebuild through a warm row and scratch allocates nothing.
func buildTreeInto(dist []int32, s *graph.Snapshot, src int, sc *metrics.BFSScratch) []int32 {
	if n := s.N(); cap(dist) < n {
		dist = make([]int32, n)
	} else {
		dist = dist[:n]
	}
	metrics.BFSHybrid(s, src, dist, sc)
	return dist
}

// buildTree is the cold-allocation form of buildTreeInto.
func buildTree(s *graph.Snapshot, src int) []int32 {
	return buildTreeInto(nil, s, src, metrics.NewBFSScratch(s.N()))
}

// Ensure builds the trees of the given sources (ascending, no
// duplicates) that are not cached yet, sharding the builds across
// workers (<= 0 means GOMAXPROCS), and protects the whole set from
// eviction until the next Ensure. Builds write index-private slots and
// insert in source order, so the cache state after Ensure is
// worker-count invariant.
func (rt *Routing) Ensure(sources []int, workers int) {
	if len(sources) == 0 {
		return
	}
	n := rt.s.N()
	if len(rt.enStamp) < n {
		rt.enStamp = append(rt.enStamp, make([]int32, n-len(rt.enStamp))...)
	}
	rt.enRound++
	missing := rt.enMissing[:0]
	for _, src := range sources {
		rt.enStamp[src] = rt.enRound
		if _, ok := rt.trees[src]; !ok {
			missing = append(missing, src)
		}
	}
	rt.enMissing = missing
	for len(rt.enBuilt) < len(missing) {
		rt.enBuilt = append(rt.enBuilt, nil)
	}
	built := rt.enBuilt[:len(missing)]
	// Trees come off the pool sequentially (the freelist is not
	// concurrency-safe); the parallel builds then fill index-private
	// slots, so the batch stays worker-count invariant.
	for i := range built {
		built[i] = rt.newTree()
	}
	w := par.Workers(workers)
	for len(rt.enScratch) < w {
		rt.enScratch = append(rt.enScratch, nil)
	}
	if w <= 1 {
		// Inline, closure-free: the sequential path is the steady state of
		// sweep cells (Workers=1) and must stay allocation-free once the
		// scratch exists (see the kernels-routing-reset ceiling).
		if rt.enScratch[0] == nil {
			rt.enScratch[0] = metrics.NewBFSScratch(n)
		}
		for i := range built {
			built[i] = buildTreeInto(built[i], rt.s, missing[i], rt.enScratch[0])
		}
	} else {
		par.ForEach(len(missing), w, func(worker, i int) {
			if rt.enScratch[worker] == nil {
				rt.enScratch[worker] = metrics.NewBFSScratch(n)
			}
			built[i] = buildTreeInto(built[i], rt.s, missing[i], rt.enScratch[worker])
		})
	}
	// Move the batch to the young end of the FIFO, then evict the
	// oldest entries beyond the budget (never a batch member: the
	// effective budget covers the whole batch).
	keep := rt.fifo[:0]
	for _, src := range rt.fifo {
		if rt.enStamp[src] != rt.enRound {
			keep = append(keep, src)
		}
	}
	rt.fifo = append(keep, sources...)
	for i, src := range missing {
		rt.trees[src] = built[i]
		built[i] = nil
	}
	budget := rt.max
	if budget < len(sources) {
		budget = len(sources)
	}
	for len(rt.trees) > budget && len(rt.fifo) > 0 {
		old := rt.fifo[0]
		rt.fifo = rt.fifo[1:]
		if dist, ok := rt.trees[old]; ok {
			rt.free = append(rt.free, dist)
			delete(rt.trees, old)
		}
	}
}

// EpochStats is one simulated epoch's observation row.
type EpochStats struct {
	Epoch     int `json:"epoch"`
	Arrived   int `json:"arrived"`   // flows admitted this epoch
	Completed int `json:"completed"` // flows finished this epoch
	Active    int `json:"active"`    // flows in flight at epoch end
	// MeanUtil and MaxUtil summarize link utilization under the epoch's
	// max-min rates; OverloadFrac is the fraction of all links at or
	// above the spec's overload threshold.
	MeanUtil     float64 `json:"mean_util"`
	MaxUtil      float64 `json:"max_util"`
	OverloadFrac float64 `json:"overload_frac"`
	// Failure-epoch observations, present only under fault injection:
	// the down-entity counts at epoch end and this epoch's reroute,
	// kill and re-admission-attempt counts.
	LinksDown int `json:"links_down,omitempty"`
	NodesDown int `json:"nodes_down,omitempty"`
	Rerouted  int `json:"rerouted,omitempty"`
	Killed    int `json:"killed,omitempty"`
	Retried   int `json:"retried,omitempty"`
}

// UtilBin is one point of the link-utilization CCDF: the fraction of
// link-epochs with utilization at or above Util.
type UtilBin struct {
	Util float64 `json:"util"`
	Frac float64 `json:"frac"`
}

// utilCCDFThresholds are the fixed CCDF sample points; a fixed grid
// keeps the report schema stable across runs and sweep cells.
var utilCCDFThresholds = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// FlowRecord is one admitted flow's trace row, recorded in admission
// order when the simulation runs with WithFlowTrace. Flow identity (the
// slice index) is engine-independent: both engines admit the same flows
// in the same order from the same streams.
type FlowRecord struct {
	Src, Dst int
	Size     float64
	Arrived  float64 // arrival instant
	Finished float64 // completion instant; meaningful only when Done
	Done     bool
	// Failure fate: Killed marks a flow dead at the horizon because a
	// failure severed its path (cleared again if a retry re-admits it);
	// Reroutes and Retries count its successful mid-life path
	// replacements and its re-admission attempts.
	Killed   bool
	Reroutes int
	Retries  int
}

// SimReport is the outcome of one workload simulation: the resolved
// spec, aggregate flow and utilization metrics, the per-epoch rows, and
// (not serialized — it is O(links)) the time-averaged link loads as a
// LoadReport.
type SimReport struct {
	Spec          WorkloadSpec `json:"spec"`
	Arrived       int          `json:"arrived"`
	Completed     int          `json:"completed"`
	Undelivered   int          `json:"undelivered"` // flows to unreachable destinations
	ResidualFlows int          `json:"residual_flows"`
	ResidualSize  float64      `json:"residual_size"` // unfinished volume at the horizon
	// MeanFCT is the mean flow completion time of completed flows, with
	// sub-epoch completion instants estimated from the final rate.
	MeanFCT    float64 `json:"mean_fct"`
	MeanActive float64 `json:"mean_active"`
	// MeanUtil, MaxUtil and OverloadFrac aggregate over link-epochs.
	MeanUtil     float64      `json:"mean_util"`
	MaxUtil      float64      `json:"max_util"`
	OverloadFrac float64      `json:"overload_frac"`
	UtilCCDF     []UtilBin    `json:"util_ccdf"`
	Epochs       []EpochStats `json:"epochs"`
	// Failures summarizes survivability under fault injection; nil when
	// the spec injects none.
	Failures *SurvivabilityReport `json:"failures,omitempty"`
	Links    *LoadReport          `json:"-"`
	// Flows holds the per-flow trace in admission order when the
	// simulation ran with WithFlowTrace, nil otherwise. Never
	// serialized: it is O(arrivals).
	Flows []FlowRecord `json:"-"`
}

// WorkloadMetricNames is the fixed scalar schema of a SimReport, the
// rows the sweep driver folds across seeds (order matches Scalars).
func WorkloadMetricNames() []string {
	return []string{"wl_mean_fct", "wl_mean_active", "wl_mean_util",
		"wl_max_util", "wl_overload_frac", "wl_completed_frac",
		"wl_killed_frac", "wl_rerouted_frac", "wl_disconnected_od",
		"wl_giant_cap_min"}
}

// Scalars returns the report's scalar metric vector in
// WorkloadMetricNames order. Without fault injection the survivability
// entries take their healthy-topology values (nothing killed or
// rerouted, no measured disconnection, full giant capacity).
func (rep *SimReport) Scalars() []float64 {
	completedFrac := 1.0
	if rep.Arrived > 0 {
		completedFrac = float64(rep.Completed) / float64(rep.Arrived)
	}
	killedFrac, reroutedFrac, disc := 0.0, 0.0, 0.0
	giantMin := 1.0
	if f := rep.Failures; f != nil {
		if rep.Arrived > 0 {
			killedFrac = float64(f.Killed) / float64(rep.Arrived)
			reroutedFrac = float64(f.Rerouted) / float64(rep.Arrived)
		}
		disc = f.DisconnectedOD
		giantMin = f.MinGiantCapacity
	}
	return []float64{rep.MeanFCT, rep.MeanActive, rep.MeanUtil,
		rep.MaxUtil, rep.OverloadFrac, completedFrac,
		killedFrac, reroutedFrac, disc, giantMin}
}

// SimOption tweaks a simulation without widening the WorkloadSpec wire
// format.
type simConfig struct {
	trace   bool
	rt      *Routing
	scratch *SimScratch
}

// SimOption is a functional option of Simulate and SimulateWith.
type SimOption func(*simConfig)

// WithFlowTrace records every admitted flow's completion time in
// SimReport.Flows — the hook the engine-equivalence suite compares on.
// Tracing is O(arrivals) memory, so it is opt-in.
func WithFlowTrace() SimOption {
	return func(c *simConfig) { c.trace = true }
}

// WithRouting shares a routing state (NewRouting) across simulations,
// the Simulate-level counterpart of SimulateWith's engine-memoized
// trees: repeated runs — a benchmark comparing engines, a caller
// sweeping load factors by hand — skip rebuilding BFS trees for sources
// already ensured. Trees are per-source deterministic, so sharing never
// changes results. Across a growth trajectory, advance the shared state
// to each epoch's snapshot with Routing.Refresh before simulating;
// Simulate rejects a routing state describing a different snapshot.
func WithRouting(rt *Routing) SimOption {
	return func(c *simConfig) { c.rt = rt }
}

// simFlow is one in-flight flow of the epoch engine.
type simFlow struct {
	src, dst  int32
	id        int32 // admission index, the trace identity
	retries   int32 // re-admission attempts consumed so far
	remaining float64
	arrived   float64 // arrival instant
	rate      float64 // current max-min rate; -1 while unallocated
	path      []int32 // snapshot edge ids
}

// pending is one drawn-but-unrouted arrival.
type pending struct {
	src, dst int
	size     float64
}

// simContext is the engine-independent simulation state: the validated
// spec, per-edge capacities, the per-origin arrival sources and their
// split streams, and the destination sampler. Both engines draw from
// exactly this state in exactly the same order, which is what makes
// their flow populations identical.
type simContext struct {
	s       *graph.Snapshot
	rt      *Routing
	spec    WorkloadSpec
	cfg     simConfig
	workers int
	edges   []graph.Edge
	capEdge []float64
	// srcNodes are the origins with positive mass, ascending; streams
	// and sources are indexed alongside.
	srcNodes []int
	streams  []*rng.Rand
	sources  []ArrivalSource
	sizes    SizeDist
	alias    *rng.Alias
	// fail is the fault-injection state, nil on the no-failure path.
	fail *failState
}

// routing returns the routing state admissions and reroutes resolve
// against: the private mirror-topology state under fault injection, the
// shared base state otherwise.
func (ctx *simContext) routing() *Routing {
	if ctx.fail != nil {
		return ctx.fail.frt
	}
	return ctx.rt
}

// Simulate runs the flow-level workload over a frozen snapshot with
// fresh routing state. See SimulateWith for the engine-memoized form
// and the simulation semantics.
func Simulate(s *graph.Snapshot, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*SimReport, error) {
	return simulate(s, NewRouting(s), masses, spec, r, workers, opts...)
}

// SimulateWith runs the flow-level workload over the engine's snapshot,
// reusing the routing state memoized in the engine (RoutingOf) so
// repeated simulations over one engine — load factors swept by hand
// over a measured map — share shortest-path trees. The sweep planner
// (core.RunCellsWith) owns its routing state instead, through Simulate
// with WithRouting, so the trees can be cached across runs.
//
// Semantics: time advances in epochs of length spec.EpochLen. At each
// epoch start every origin's arrival source emits flows (origin o with
// probability mass m(o) carries the share m(o)/Σm of the aggregate
// arrival rate spec.LoadFactor·ΣC/spec.MeanSize); each flow draws a
// destination gravity-weighted (∝ mass, excluding the origin) and a
// size from the spec's distribution, and follows the origin's BFS
// shortest-path tree. Within an epoch all active flows share link
// capacity max-min fairly; completed flows leave at the epoch boundary
// with a sub-epoch completion estimate. Every draw comes from streams
// split off r per origin, and rate allocation is either sequential in
// deterministic order (spec.Engine "epoch") or solved per bottleneck
// component and merged by deterministic component index ("event") — so
// the report is bit-identical at every worker count either way.
func SimulateWith(eng *engine.Engine, masses []float64, spec WorkloadSpec, r *rng.Rand, opts ...SimOption) (*SimReport, error) {
	return simulate(eng.Snapshot(), RoutingOf(eng), masses, spec, r, eng.Workers(), opts...)
}

func simulate(s *graph.Snapshot, rt *Routing, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*SimReport, error) {
	ctx, err := newSimContext(s, rt, masses, spec, r, workers, opts...)
	if err != nil {
		return nil, err
	}
	if ctx.spec.Engine == EngineEvent {
		return simulateEvent(ctx)
	}
	return simulateEpoch(ctx)
}

// newSimContext validates the workload and assembles the
// engine-independent simulation state both engines run from — split
// from simulate so benchmarks can stage a context (and the event
// engine's pre-drawn calendar) outside a measured region.
func newSimContext(s *graph.Snapshot, rt *Routing, masses []float64, spec WorkloadSpec, r *rng.Rand, workers int, opts ...SimOption) (*simContext, error) {
	n := s.N()
	if n < 2 {
		return nil, errors.New("traffic: workload needs at least two nodes")
	}
	if len(masses) != n {
		return nil, errors.New("traffic: masses size mismatch")
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.M() == 0 {
		return nil, errors.New("traffic: workload needs at least one link")
	}
	var cfg simConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.rt != nil {
		if cfg.rt.s.Version() != s.Version() {
			return nil, errors.New("traffic: shared routing state describes a different snapshot; advance it with Routing.Refresh")
		}
		rt = cfg.rt
	}
	positive := 0
	var sumMass float64
	for _, m := range masses {
		if m < 0 {
			return nil, errors.New("traffic: negative mass")
		}
		if m > 0 {
			positive++
		}
		sumMass += m
	}
	if positive < 2 {
		return nil, errors.New("traffic: workload needs at least two positive masses")
	}
	alias, err := rng.NewAliasTable(masses)
	if err != nil {
		return nil, err
	}

	// Link capacities: edge multiplicity × the capacity unit.
	edges := s.EdgeList()
	capEdge := make([]float64, len(edges))
	var capTotal float64
	for i, e := range edges {
		capEdge[i] = float64(e.W) * spec.CapacityUnit
		capTotal += capEdge[i]
	}
	if capTotal <= 0 {
		return nil, errors.New("traffic: total link capacity must be positive")
	}
	lambdaTotal := spec.LoadFactor * capTotal / spec.MeanSize

	// One split stream per origin with positive mass, keyed by node id:
	// the stream feeds the origin's arrival process and, interleaved in
	// arrival order, its destination and size draws. Worker count never
	// touches these streams.
	proc := spec.arrivalProcess()
	var srcNodes []int
	for u, m := range masses {
		if m > 0 {
			srcNodes = append(srcNodes, u)
		}
	}
	streams := make([]*rng.Rand, len(srcNodes))
	sources := make([]ArrivalSource, len(srcNodes))
	for i, u := range srcNodes {
		streams[i] = r.Split(uint64(u))
		sources[i] = proc.NewSource(streams[i], lambdaTotal*masses[u]/sumMass)
	}

	ctx := &simContext{
		s: s, rt: rt, spec: spec, cfg: cfg, workers: workers,
		edges: edges, capEdge: capEdge,
		srcNodes: srcNodes, streams: streams, sources: sources,
		sizes: spec.sizeDist(), alias: alias,
	}
	if spec.Failures != nil && spec.Failures.Active() {
		fail, err := newFailState(ctx, masses, r)
		if err != nil {
			return nil, err
		}
		ctx.fail = fail
	}
	return ctx, nil
}

// drawArrivals advances origin i's source by one epoch and appends its
// drawn (dst, size) pairs onto pend. The draw order per origin —
// arrival count, then per flow destination (with rejection) and size —
// is the contract both engines share, so pre-drawing a whole horizon
// origin-by-origin replays the identical stream.
func (ctx *simContext) drawArrivals(i int, dt float64, pend []pending) []pending {
	u := ctx.srcNodes[i]
	k := ctx.sources[i].Arrivals(dt)
	for j := 0; j < k; j++ {
		dst := ctx.alias.NextWith(ctx.streams[i])
		for dst == u {
			dst = ctx.alias.NextWith(ctx.streams[i])
		}
		pend = append(pend, pending{src: u, dst: dst, size: ctx.sizes.Sample(ctx.streams[i])})
	}
	return pend
}

// admitPending routes the epoch's drawn arrivals (grouped by ascending
// origin). OD pairs already memoized in the routing state resolve
// without touching a tree. When the missed pairs span more origins than
// the tree cache holds, trees built now would be evicted before they
// are reused, so each missed origin with no cached tree and at most
// pairMaxDests missed destinations resolves them by pair search
// (sequential; each result is a pure function of the snapshot and the
// pair). The remaining misses are routed in source-contiguous chunks of
// at most the tree budget: each chunk Ensures its distinct origins
// (parallel BFS builds) and reads paths before the next chunk can
// evict them — memory stays bounded by the budget even when one epoch's
// arrivals span more origins than the cache holds. Every resolved path
// is memoized. Reachable flows go to admit in pend order; unreachable
// ones are counted.
func admitPending(rt *Routing, workers int, pend []pending, admit func(p pending, path []int32)) (undelivered int) {
	// The index-parallel buffers persist on the routing state: an epoch
	// whose OD pairs are all memoized — the steady state of a long run —
	// admits its arrivals without a single allocation.
	if cap(rt.admPaths) < len(pend) {
		rt.admPaths = make([][]int32, len(pend))
		rt.admUnreach = make([]bool, len(pend))
	}
	paths := rt.admPaths[:len(pend)]
	unreach := rt.admUnreach[:len(pend)]
	for i := range paths {
		paths[i] = nil
		unreach[i] = false
	}
	// miss holds the pend indexes whose OD pair is not memoized; pend
	// is grouped by origin, so miss inherits the grouping.
	miss := rt.admMiss[:0]
	origins := 0
	for i, p := range pend {
		path, ok, unreachable := rt.cachedPath(p.src, p.dst)
		switch {
		case !ok:
			if len(miss) == 0 || pend[miss[len(miss)-1]].src != p.src {
				origins++
			}
			miss = append(miss, i)
		case unreachable:
			unreach[i] = true
		default:
			paths[i] = path
		}
	}
	rt.admMiss = miss
	resolve := func(i int, path []int32, ok bool) {
		p := pend[i]
		rt.storePath(p.src, p.dst, path, ok)
		if !ok {
			unreach[i] = true
			return
		}
		paths[i] = path
	}
	if origins > rt.max {
		// Compact the misses left for trees in place: rest never
		// overtakes the group being read.
		rest := miss[:0]
		for k := 0; k < len(miss); {
			src := pend[miss[k]].src
			j := k + 1
			for j < len(miss) && pend[miss[j]].src == src {
				j++
			}
			if _, cached := rt.trees[src]; cached || j-k > pairMaxDests {
				rest = append(rest, miss[k:j]...)
			} else {
				for _, i := range miss[k:j] {
					path, ok := rt.pair.pairPath(rt.s, rt.arcEdge, src, pend[i].dst, nil)
					resolve(i, path, ok)
				}
			}
			k = j
		}
		miss = rest
	}
	for k := 0; k < len(miss); {
		batch := rt.admBatch[:0]
		j := k
		for j < len(miss) {
			src := pend[miss[j]].src
			if len(batch) == 0 || batch[len(batch)-1] != src {
				if len(batch) == rt.max {
					break
				}
				batch = append(batch, src)
			}
			j++
		}
		rt.admBatch = batch
		rt.Ensure(batch, workers)
		for ; k < j; k++ {
			i := miss[k]
			path, ok := rt.treePath(pend[i].src, pend[i].dst)
			resolve(i, path, ok)
		}
	}
	for i, p := range pend {
		if unreach[i] {
			undelivered++
			continue
		}
		admit(p, paths[i])
	}
	return undelivered
}

// utilOf is load/capacity with the zero-capacity link pinned to zero
// utilization — a dead link carries nothing, whatever crosses it — and
// utilizations within an ulp-window of saturation snapped to exactly 1:
// a co-bottleneck whose capacity is mathematically exhausted can land
// on either side of 1.0 depending on the engine's subtraction order,
// and the CCDF's ≥1 bin must not flip on that noise.
func utilOf(load, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	u := load / capacity
	if u > 1-1e-12 {
		u = 1
	}
	return u
}

// simulateEpoch is the discrete-epoch reference engine: every epoch
// re-solves the whole max-min allocation sequentially and scans every
// active flow. It is deliberately simple — the pinned baseline the
// event engine is validated against.
func simulateEpoch(ctx *simContext) (*SimReport, error) {
	spec, edges, capEdge := ctx.spec, ctx.edges, ctx.capEdge
	rep := &SimReport{Spec: spec, Epochs: make([]EpochStats, 0, spec.Epochs)}
	dt := spec.EpochLen
	scratch := ctx.cfg.scratch
	if scratch == nil {
		scratch = &SimScratch{} // private to this run
	}
	if scratch.wf == nil {
		scratch.wf = newWFState(len(edges))
	} else {
		scratch.wf.ensure(len(edges))
	}
	obs := newLinkObs(ctx)
	var (
		active = scratch.active[:0]
		wf     = scratch.wf
		flowID int32
		pend   = scratch.pend[:0]
		// freeFlows recycles departed simFlow entries; in steady state
		// admissions draw from it instead of the heap. A shared scratch
		// carries the pool across runs, so the population only grows
		// when concurrency exceeds its all-time peak.
		freeFlows = scratch.freeFlows
		now       float64
		admitted  int
	)
	newFlow := func() *simFlow {
		if k := len(freeFlows); k > 0 {
			f := freeFlows[k-1]
			freeFlows = freeFlows[:k-1]
			return f
		}
		return &simFlow{}
	}
	// One closure for every epoch's admissions: creating it per epoch
	// would put one allocation in the steady state's marginal cost.
	admitFlow := func(p pending, path []int32) {
		if ctx.fail != nil {
			path = ctx.fail.toBase(path)
		}
		admitted++
		f := newFlow()
		*f = simFlow{
			src: int32(p.src), dst: int32(p.dst), id: flowID,
			remaining: p.size, arrived: now, rate: -1, path: path,
		}
		active = append(active, f)
		if ctx.cfg.trace {
			rep.Flows = append(rep.Flows, FlowRecord{
				Src: p.src, Dst: p.dst, Size: p.size, Arrived: now,
			})
		}
		flowID++
	}
	for epoch := 0; epoch < spec.Epochs; epoch++ {
		now = float64(epoch) * dt

		// Failure phase: apply this epoch's outage ops, then walk the
		// active flows in admission order — a flow whose path lost a link
		// reroutes over the surviving topology or dies with a recorded
		// fate — and re-admit killed flows whose retry backoff expired.
		// All of it precedes arrivals, in the exact order the event
		// engine replicates.
		reroutedNow, killedNow, retriedNow := 0, 0, 0
		if fail := ctx.fail; fail != nil {
			if err := fail.beginEpoch(epoch); err != nil {
				return nil, err
			}
			if fail.flipped {
				keep := active[:0]
				for _, f := range active {
					if !fail.pathBroken(f.path) {
						keep = append(keep, f)
						continue
					}
					if np, ok := fail.resolve(int(f.src), int(f.dst)); ok {
						f.path = np
						reroutedNow++
						fail.rerouted++
						if ctx.cfg.trace {
							rep.Flows[f.id].Reroutes++
						}
						keep = append(keep, f)
						continue
					}
					killedNow++
					fail.kill(epoch, f.id, f.src, f.dst, f.remaining, f.arrived, f.retries)
					if ctx.cfg.trace {
						rep.Flows[f.id].Killed = true
					}
					freeFlows = append(freeFlows, f)
				}
				active = keep
			}
			for _, rf := range fail.takeRetries(epoch) {
				fail.retried++
				retriedNow++
				rf.retries++
				if ctx.cfg.trace {
					rep.Flows[rf.id].Retries++
				}
				if path, ok := fail.resolve(int(rf.src), int(rf.dst)); ok {
					f := newFlow()
					*f = simFlow{
						src: rf.src, dst: rf.dst, id: rf.id, retries: rf.retries,
						remaining: rf.remaining, arrived: rf.arrived, rate: -1, path: path,
					}
					active = append(active, f)
					if ctx.cfg.trace {
						rep.Flows[rf.id].Killed = false
					}
				} else {
					fail.requeue(epoch, rf)
				}
			}
		}

		// Arrivals, in ascending origin order.
		pend = pend[:0]
		for i := range ctx.srcNodes {
			pend = ctx.drawArrivals(i, dt, pend)
		}

		admitted = 0
		rep.Undelivered += admitPending(ctx.routing(), ctx.workers, pend, admitFlow)
		rep.Arrived += admitted

		// Max-min fair rates, solved by the pooled water-filler
		// (waterfill.go). Sequential, fixed iteration order.
		wf.fill(active, capEdge)

		// Link observations under the epoch's rates.
		for _, e := range wf.links {
			// Max-min rates never exceed capacity; the subtraction chain
			// can stray by an ulp in either direction, so clamp to [0, cap].
			load := capEdge[e] - wf.capRem[e]
			if load < 0 {
				load = 0
			}
			if load > capEdge[e] {
				load = capEdge[e]
			}
			obs.link(int(e), load, capEdge[e])
			wf.nflows[e] = 0 // reset for the next epoch
		}

		// Advance flows by one epoch; completions leave with a sub-epoch
		// completion estimate (the flow held its rate, so the estimate is
		// exact up to within-epoch departures).
		completedNow := 0
		keep := active[:0]
		for _, f := range active {
			send := f.rate * dt
			if f.rate > 0 && f.remaining <= send {
				finish := now + f.remaining/f.rate
				obs.fctSum += finish - f.arrived
				completedNow++
				if ctx.fail != nil {
					ctx.fail.noteFCT(f.arrived, finish-f.arrived)
				}
				if ctx.cfg.trace {
					rep.Flows[f.id].Done = true
					rep.Flows[f.id].Finished = finish
				}
				freeFlows = append(freeFlows, f)
				continue
			}
			f.remaining -= send
			keep = append(keep, f)
		}
		active = keep
		obs.endEpoch(rep, EpochStats{
			Epoch: epoch, Arrived: admitted, Completed: completedNow, Active: len(active),
			Rerouted: reroutedNow, Killed: killedNow, Retried: retriedNow,
		})
	}

	rep.ResidualFlows = len(active)
	for _, f := range active {
		rep.ResidualSize += f.remaining
	}
	// Park the buffers for the next run sharing this scratch; residual
	// actives rejoin the freelist so the flow population stays a closed
	// pool at its all-time peak.
	freeFlows = append(freeFlows, active...)
	scratch.active, scratch.pend, scratch.freeFlows = active[:0], pend[:0], freeFlows
	obs.finishReport(rep)
	return rep, nil
}

// linkObs accumulates what both engines observe of the links under
// each epoch's rates — utilization, overload count, CCDF bins and
// time-integrated load — together with the run totals the report is
// folded from. Each engine feeds it links in its own iteration order.
type linkObs struct {
	ctx        *simContext
	avgLoad    []float64
	ccdfCounts []int
	fctSum     float64
	utilSum    float64
	activeSum  int
	overloaded int
	// The current epoch's sums, folded into the totals by endEpoch.
	epochUtilSum, epochMaxUtil float64
	epochOverloaded            int
}

func newLinkObs(ctx *simContext) linkObs {
	return linkObs{
		ctx:        ctx,
		avgLoad:    make([]float64, len(ctx.edges)),
		ccdfCounts: make([]int, len(utilCCDFThresholds)),
	}
}

// link records one epoch of link e carrying load.
func (o *linkObs) link(e int, load, capacity float64) {
	util := utilOf(load, capacity)
	o.epochUtilSum += util
	if util > o.epochMaxUtil {
		o.epochMaxUtil = util
	}
	if util >= o.ctx.spec.OverloadAt {
		o.epochOverloaded++
	}
	for ti, thr := range utilCCDFThresholds {
		if util >= thr {
			o.ccdfCounts[ti]++
		}
	}
	o.avgLoad[e] += load * o.ctx.spec.EpochLen
}

// endEpoch completes the epoch's row es — the engine fills the flow
// counters — with the link statistics and failure state, folds the
// epoch into the run totals and appends the row to the report.
func (o *linkObs) endEpoch(rep *SimReport, es EpochStats) {
	nLinks := float64(len(o.ctx.edges))
	es.MeanUtil = o.epochUtilSum / nLinks
	es.MaxUtil = o.epochMaxUtil
	es.OverloadFrac = float64(o.epochOverloaded) / nLinks
	if fail := o.ctx.fail; fail != nil {
		es.LinksDown = fail.linksDown
		es.NodesDown = fail.nodesDown
	}
	o.utilSum += o.epochUtilSum
	o.overloaded += o.epochOverloaded
	if o.epochMaxUtil > rep.MaxUtil {
		rep.MaxUtil = o.epochMaxUtil
	}
	o.epochUtilSum, o.epochMaxUtil, o.epochOverloaded = 0, 0, 0
	rep.Completed += es.Completed
	o.activeSum += es.Active
	rep.Epochs = append(rep.Epochs, es)
}

// finishReport folds the accumulated sums into the aggregate fields and
// materializes the CCDF and the time-averaged LoadReport — shared by
// both engines so the aggregation arithmetic cannot drift apart.
func (o *linkObs) finishReport(rep *SimReport) {
	ctx := o.ctx
	spec, edges, capEdge := ctx.spec, ctx.edges, ctx.capEdge
	if ctx.fail != nil {
		rep.Failures = ctx.fail.report()
	}
	if rep.Completed > 0 {
		rep.MeanFCT = o.fctSum / float64(rep.Completed)
	}
	linkEpochs := len(edges) * spec.Epochs
	if linkEpochs > 0 {
		rep.MeanActive = float64(o.activeSum) / float64(spec.Epochs)
		rep.MeanUtil = o.utilSum / float64(linkEpochs)
		rep.OverloadFrac = float64(o.overloaded) / float64(linkEpochs)
	}
	rep.UtilCCDF = make([]UtilBin, len(utilCCDFThresholds))
	for ti, thr := range utilCCDFThresholds {
		frac := 0.0
		if linkEpochs > 0 {
			frac = float64(o.ccdfCounts[ti]) / float64(linkEpochs)
		}
		rep.UtilCCDF[ti] = UtilBin{Util: thr, Frac: frac}
	}

	// Time-averaged link loads as a LoadReport, in edge-id order. The
	// row slice is sized by the topology, not grown to the carried-link
	// count: every link can carry load, and the deterministic size
	// keeps a steady-state run's report cost identical whatever the
	// horizon — the allocation benchmarks difference two horizons and
	// rely on the cancellation.
	load := &LoadReport{Links: make([]LinkLoad, 0, len(edges))}
	horizon := float64(spec.Epochs) * spec.EpochLen
	var loadSum float64
	for id, l := range o.avgLoad {
		if l == 0 {
			continue
		}
		mean := l / horizon
		e := edges[id]
		load.Links = append(load.Links, LinkLoad{U: e.U, V: e.V, Load: mean})
		loadSum += mean
		if mean > load.MaxLoad {
			load.MaxLoad = mean
		}
		if util := utilOf(mean, capEdge[id]); util > load.MaxUtilization {
			load.MaxUtilization = util
		}
	}
	if len(load.Links) > 0 {
		load.MeanLoad = loadSum / float64(len(load.Links))
	}
	rep.Links = load
}

package traffic

import (
	"testing"
	"time"

	"netmodel/internal/benchutil"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// The kernel benchmarks are the acceptance surface of the zero-alloc
// hot paths: the direction-optimizing hybrid BFS against the classic
// queue kernel on cold shortest-path-tree builds, and the marginal
// allocation cost of one steady-state operation — a simulate epoch in
// either engine, a DistMap refresh, a Routing refresh — measured by
// differencing seeded-deterministic runs so one-time setup cancels
// exactly. The allocation rows are gated from above by benchcheck's
// max_allocs_per_op / max_bytes_per_op ceilings (0 for the steady
// states), the speedup row from below by the usual floor:
//
//	go test -run TestBenchJSON ./internal/traffic -bench-out DIR   # BENCH_kernels.json
//
// The scenario lives inside the traffic package because exact marginal
// measurement needs the engine seams a public caller cannot reach: the
// event engine's pre-drawn calendar must be staged outside the measured
// region (its per-origin draw slabs grow amortized with the horizon,
// which would masquerade as per-epoch allocation).

// kernelsFreezeBA freezes a BA map of n nodes for the kernel rows.
// M=4 (average degree 8) matches the density band of measured AS-level
// topologies — and is where the direction-optimizing tradeoff operates:
// sparser maps leave the bottom-up sweep little to skip, denser ones
// make it trivially dominant.
func kernelsFreezeBA(tb testing.TB, n int, seed uint64) *graph.Snapshot {
	tb.Helper()
	top, err := gen.BA{N: n, M: 4}.Generate(rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := top.G.FreezeChecked()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// kernelsColdTreeRows times the cold build of nsrc shortest-path
// distance trees — the work DistMap rebuilds, Routing.Ensure and the
// per-node metric kernels all sit on — classic queue BFS against the
// hybrid kernel, pinning bit-identical distances along the way.
func kernelsColdTreeRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const nsrc = 64
	snap := kernelsFreezeBA(t, n, 1)
	srcs := make([]int, nsrc)
	for i := range srcs {
		srcs[i] = i * snap.N() / nsrc
	}
	distC := make([]int32, snap.N())
	distH := make([]int32, snap.N())
	queue := make([]int32, snap.N())
	sc := metrics.NewBFSScratch(snap.N())

	// Warm both kernels (page in the CSR, size the scratch), pinning
	// equivalence on every source while at it.
	for _, src := range srcs {
		metrics.BFSFrozen(snap, src, distC, queue)
		metrics.BFSHybrid(snap, src, distH, sc)
		for v := range distC {
			if distC[v] != distH[v] {
				t.Fatalf("n=%d src=%d: hybrid dist[%d]=%d, classic %d", n, src, v, distH[v], distC[v])
			}
		}
	}
	start := time.Now()
	for _, src := range srcs {
		metrics.BFSFrozen(snap, src, distC, queue)
	}
	classic := time.Since(start)
	start = time.Now()
	for _, src := range srcs {
		metrics.BFSHybrid(snap, src, distH, sc)
	}
	hybrid := time.Since(start)
	// Difference a one-pass against a three-pass run: the warm kernel
	// itself must be allocation-free, and one-off background-runtime
	// allocations that land inside a single long window cancel out.
	allocsPerOp, bytesPerOp := benchutil.MarginalAllocs(nsrc, 3*nsrc, func(ops int) {
		for i := 0; i < ops; i++ {
			metrics.BFSHybrid(snap, srcs[i%nsrc], distH, sc)
		}
	})
	row := benchutil.Row{N: n, Sources: nsrc}
	classicRow := row.As("kernels-coldtree-classic", 1, classic/nsrc)
	hybridRow := row.As("kernels-coldtree-hybrid", 1, hybrid/nsrc).Against(classicRow).WithAllocs(allocsPerOp, bytesPerOp)
	t.Logf("coldtree n=%d: classic %v, hybrid %v (%.2fx), warm hybrid %g allocs/op", n, classic, hybrid, hybridRow.Speedup, allocsPerOp)
	return []benchutil.Row{classicRow, hybridRow}
}

// kernelsWorkload derives a steady workload over a frozen BA map: load
// factor 0.7, mean flow size set for roughly flows arrivals per epoch.
func kernelsWorkload(tb testing.TB, n, flows int) (*graph.Snapshot, []float64, WorkloadSpec) {
	tb.Helper()
	snap := kernelsFreezeBA(tb, n, 1)
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	var capTotal float64
	for _, e := range snap.EdgeList() {
		capTotal += float64(e.W)
	}
	const load = 0.7
	spec := WorkloadSpec{
		LoadFactor: load,
		MeanSize:   load * capTotal / float64(flows),
	}
	return snap, masses, spec
}

// kernelsEngineSteadyRow measures one engine's marginal allocations per
// steady-state epoch. Both timed runs share a routing state pre-warmed
// over the longer horizon (both draw the identical seeded arrival
// stream, so the warmup resolves every OD pair either run will ask
// for), and the event engine's calendar is staged outside the measured
// region — what remains in the difference is exactly the per-epoch cost
// of the simulation loop.
func kernelsEngineSteadyRow(t *testing.T, engine string) benchutil.Row {
	t.Helper()
	const (
		n     = 2000
		flows = 200
		e1    = 16
		e2    = 40
	)
	snap, masses, spec := kernelsWorkload(t, n, flows)
	spec.Engine = engine
	rt := NewRouting(snap)
	scr := NewSimScratch()
	specFor := func(epochs int) WorkloadSpec {
		s := spec
		s.Epochs = epochs
		return s
	}

	var allocsPerOp, bytesPerOp float64
	var t1, t2 time.Duration
	if engine == EngineEvent {
		prep := func(epochs int) (*simContext, flatCalendar) {
			ctx, err := newSimContext(snap, rt, masses, specFor(epochs), rng.New(7), 1, WithSimScratch(scr))
			if err != nil {
				t.Fatal(err)
			}
			return ctx, buildCalendar(ctx)
		}
		run := func(epochs int) (uint64, uint64, time.Duration) {
			ctx, cal := prep(epochs)
			start := time.Now()
			a, b := benchutil.MeasureAllocs(func() {
				if _, err := simulateEventCal(ctx, cal); err != nil {
					t.Fatal(err)
				}
			})
			return a, b, time.Since(start)
		}
		run(e2) // warm the shared routing state over the long horizon
		a1, b1, d1 := run(e1)
		a2, b2, d2 := run(e2)
		allocsPerOp = float64(a2-a1) / float64(e2-e1)
		bytesPerOp = float64(b2-b1) / float64(e2-e1)
		t1, t2 = d1, d2
	} else {
		run := func(epochs int) {
			if _, err := Simulate(snap, masses, specFor(epochs), rng.New(7), 1, WithRouting(rt), WithSimScratch(scr)); err != nil {
				t.Fatal(err)
			}
		}
		run(e2) // warm the shared routing state over the long horizon
		start := time.Now()
		run(e1)
		t1 = time.Since(start)
		allocsPerOp, bytesPerOp = benchutil.MarginalAllocs(e1, e2, run)
		start = time.Now()
		run(e2)
		t2 = time.Since(start)
	}
	perEpoch := (t2 - t1) / (e2 - e1)
	if perEpoch < 0 {
		perEpoch = 0 // timing noise on tiny maps
	}
	t.Logf("%s steady: %.3f allocs/epoch, %.1f B/epoch, ~%v/epoch", engine, allocsPerOp, bytesPerOp, perEpoch)
	return benchutil.Row{N: n, Epochs: e2 - e1}.As("kernels-"+engine+"-steady", 1, perEpoch).WithAllocs(allocsPerOp, bytesPerOp)
}

// kernelsRefreshRows drives a fixed-n churn sequence — removals and
// insertions each epoch, no growth — and measures the allocations of
// exactly the DistMap.Refresh and Routing.Refresh calls after a warmup
// phase has every pooled buffer at its high-water mark. Steady-state
// refreshes on the repair path must allocate nothing.
func kernelsRefreshRows(t *testing.T) []benchutil.Row {
	t.Helper()
	const (
		n       = 4000
		pivots  = 32
		trees   = 24
		warmup  = 96
		measure = 12
	)
	top, err := gen.BA{N: n, M: 2}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G.Copy()
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	dm := metrics.NewDistMapSampled(prev, rng.New(5), pivots, 1)
	rt := NewRouting(prev)
	srcs := make([]int, trees)
	for i := range srcs {
		srcs[i] = i
	}
	rt.Ensure(srcs, 1)

	r := rng.New(11)
	var dmAllocs, dmBytes, rtAllocs, rtBytes uint64
	var dmTime, rtTime time.Duration
	for epoch := 0; epoch < warmup+measure; epoch++ {
		// Exactly 8 removals and 8 insertions, so the edge count is
		// constant: every edge-sized refresh buffer reaches its
		// high-water mark during warmup and the measured phase sees the
		// repair path's true steady-state allocation count.
		edges := prev.EdgeList()
		for removed := 0; removed < 8; {
			e := edges[r.Intn(len(edges))]
			if g.HasEdge(e.U, e.V) {
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
		for added := 0; added < 8; {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
				added++
			}
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			t.Fatal("churn epoch expected a delta refresh")
		}
		if epoch < warmup {
			dm.Refresh(next, d, 1)
			rt.Refresh(next, d, 1)
		} else {
			start := time.Now()
			a, b := benchutil.MeasureAllocs(func() { dm.Refresh(next, d, 1) })
			dmTime += time.Since(start)
			dmAllocs += a
			dmBytes += b
			start = time.Now()
			a, b = benchutil.MeasureAllocs(func() { rt.Refresh(next, d, 1) })
			rtTime += time.Since(start)
			rtAllocs += a
			rtBytes += b
		}
		prev = next
	}
	t.Logf("refresh churn: distmap %d allocs / %d epochs, routing %d allocs / %d epochs",
		dmAllocs, measure, rtAllocs, measure)
	return []benchutil.Row{
		benchutil.Row{N: n, Epochs: measure, Sources: pivots}.As("kernels-distmap-refresh", 1, dmTime/measure).
			WithAllocs(float64(dmAllocs)/measure, float64(dmBytes)/measure),
		benchutil.Row{N: n, Epochs: measure, Sources: trees}.As("kernels-routing-refresh", 1, rtTime/measure).
			WithAllocs(float64(rtAllocs)/measure, float64(rtBytes)/measure),
	}
}

// kernelsRoutingResetRow measures the marginal allocations of moving a
// Routing between topologies with Reset: alternate two same-size frozen
// maps, Reset to the other map and Ensure a fixed source set each
// cycle. After a warmup phase has the tree freelist, the Ensure
// staging buffers and the BFS scratch at their high-water marks, a
// Reset/Ensure cycle must allocate nothing — the property that lets
// sweeps recycle one Routing across every topology of a group instead
// of paying NewRouting per cell.
func kernelsRoutingResetRow(t *testing.T) benchutil.Row {
	t.Helper()
	const (
		n       = 4000
		trees   = 24
		warmup  = 8
		measure = 12
	)
	snaps := []*graph.Snapshot{kernelsFreezeBA(t, n, 1), kernelsFreezeBA(t, n, 2)}
	srcs := make([]int, trees)
	for i := range srcs {
		srcs[i] = i * n / trees
	}
	rt := NewRouting(snaps[0])
	rt.Ensure(srcs, 1)
	for cycle := 0; cycle < warmup; cycle++ {
		rt.Reset(snaps[(cycle+1)%2])
		rt.Ensure(srcs, 1)
	}
	var resetAllocs, resetBytes uint64
	var resetTime time.Duration
	for cycle := 0; cycle < measure; cycle++ {
		next := snaps[(warmup+cycle+1)%2]
		start := time.Now()
		a, b := benchutil.MeasureAllocs(func() {
			rt.Reset(next)
			rt.Ensure(srcs, 1)
		})
		resetTime += time.Since(start)
		resetAllocs += a
		resetBytes += b
	}
	// Pin correctness alongside the allocation claim: the recycled
	// routing must route exactly like a fresh one over the same map.
	cur := snaps[(warmup+measure)%2]
	fresh := NewRouting(cur)
	fresh.Ensure(srcs, 1)
	for _, src := range srcs {
		a, okA := rt.trees[src]
		b, okB := fresh.trees[src]
		if !okA || !okB {
			t.Fatalf("src %d: tree missing after reset cycle (reused %v, fresh %v)", src, okA, okB)
		}
		for v := 0; v < n; v++ {
			if a.dist[v] != b.dist[v] {
				t.Fatalf("src %d: reused tree dist[%d]=%d, fresh %d", src, v, a.dist[v], b.dist[v])
			}
		}
	}
	t.Logf("routing reset: %d allocs / %d cycles (%d trees each)", resetAllocs, measure, trees)
	return benchutil.Row{N: n, Epochs: measure, Sources: trees}.As("kernels-routing-reset", 1, resetTime/measure).
		WithAllocs(float64(resetAllocs)/measure, float64(resetBytes)/measure)
}

// TestBenchJSON emits BENCH_kernels.json into the -bench-out
// directory: cold-tree-build speedup rows (hybrid vs classic BFS, 10k
// smoke plus the 100k acceptance size) and the steady-state allocation
// rows the benchcheck ceilings gate.
func TestBenchJSON(t *testing.T) {
	dir := benchutil.OutDir(t)
	var rows []benchutil.Row
	for _, n := range benchutil.Scale([]int{10000}, []int{10000, 100000}) {
		rows = append(rows, kernelsColdTreeRows(t, n)...)
	}
	rows = append(rows, kernelsEngineSteadyRow(t, EngineEpoch), kernelsEngineSteadyRow(t, EngineEvent))
	rows = append(rows, kernelsRefreshRows(t)...)
	rows = append(rows, kernelsRoutingResetRow(t))
	if err := benchutil.WriteRows(dir, "BENCH_kernels.json", rows); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d kernel benchmark rows to BENCH_kernels.json", len(rows))
}

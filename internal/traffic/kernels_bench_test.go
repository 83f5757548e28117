package traffic

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"netmodel/internal/benchutil"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// The kernel benchmarks are the acceptance surface of the zero-alloc
// hot paths: the direction-optimizing hybrid BFS against the classic
// queue kernel on cold shortest-path-tree builds, exact pair-search
// paths against a cold tree build per path, the 64-lane MS-BFS path
// histogram against 64 per-source BFS runs, degree-oriented triangle
// counting against the id-ordered intersection, the allocations of one
// simulation setup (a fixed handful, however many origins), the heap
// bytes of one trajectory epoch's engine advance and observation, and
// the marginal allocation cost of one steady-state operation — a simulate
// epoch in either engine, a DistMap refresh, a Routing refresh —
// measured by differencing seeded-deterministic runs so one-time setup
// cancels exactly. The allocation rows are gated from above by
// benchcheck's max_allocs_per_op / max_bytes_per_op ceilings (0 for the
// steady states), the speedup rows from below by the usual floor:
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
// hybrid kernel, pinning bit-identical distances along the way. The
// arms alternate over five passes, each arm reporting its median pass,
// as the MS-BFS rows do.
func kernelsColdTreeRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const (
		nsrc   = 64
		passes = 5
	)
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
	classicTimes := make([]time.Duration, passes)
	hybridTimes := make([]time.Duration, passes)
	for p := range passes {
		start := time.Now()
		for _, src := range srcs {
			metrics.BFSFrozen(snap, src, distC, queue)
		}
		classicTimes[p] = time.Since(start)
		start = time.Now()
		for _, src := range srcs {
			metrics.BFSHybrid(snap, src, distH, sc)
		}
		hybridTimes[p] = time.Since(start)
	}
	slices.Sort(classicTimes)
	slices.Sort(hybridTimes)
	classic, hybrid := classicTimes[passes/2], hybridTimes[passes/2]
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

// kernelsMSBFSRows times the path-statistics histogram of 64 sources
// two ways — 64 BFSHybrid runs folded by AccumulateDistances, and one
// 64-lane MS-BFS batch — on two maps, and asserts the two histograms
// equal. The BA map takes the cold-tree rows' 64 sources, and its
// middle MS-BFS levels pull; the random geometric graph at its default
// mean degree 4.2 has a small giant (4% of the nodes at 100k) and a hop
// diameter in the hundreds, so every level pushes, and its 64 sources
// are spread over the giant.
func kernelsMSBFSRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const nsrc = 64
	ba := kernelsFreezeBA(t, n, 1)
	baSrcs := make([]int, nsrc)
	for i := range baSrcs {
		baSrcs[i] = i * ba.N() / nsrc
	}
	top, err := gen.RGG{N: n, Radius: math.Sqrt(4.2/math.Pi) / math.Sqrt(float64(n))}.Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rgg := top.G.Freeze()
	comp := make([]int32, rgg.N())
	sizes := metrics.ComponentsHybrid(rgg, metrics.NewBFSScratch(rgg.N()), comp, nil)
	giant := int32(0)
	for id, size := range sizes {
		if size > sizes[giant] {
			giant = int32(id)
		}
	}
	var giantNodes []int
	for v, c := range comp {
		if c == giant {
			giantNodes = append(giantNodes, v)
		}
	}
	rggSrcs := make([]int, nsrc)
	for i := range rggSrcs {
		rggSrcs[i] = giantNodes[i*len(giantNodes)/nsrc]
	}
	return append(kernelsMSBFSPair(t, "kernels-bfs-paths", "kernels-msbfs-vs-bfs", ba, baSrcs),
		kernelsMSBFSPair(t, "kernels-bfs-paths-rgg", "kernels-msbfs-vs-bfs-rgg", rgg, rggSrcs)...)
}

// kernelsMSBFSPair times one map's two path-histogram arms under the
// names bfsName and msName. The arms alternate over five passes, each
// arm reporting its median pass, so host noise lands on both; the warm
// MS-BFS batch into a sized histogram must allocate nothing.
func kernelsMSBFSPair(t *testing.T, bfsName, msName string, snap *graph.Snapshot, srcs []int) []benchutil.Row {
	t.Helper()
	const passes = 5
	n := snap.N()
	dist := make([]int32, n)
	sc := metrics.NewBFSScratch(n)
	msc := []*metrics.MSBFSScratch{new(metrics.MSBFSScratch)}
	perSource := func() (h metrics.PathHistogram) {
		for _, src := range srcs {
			metrics.BFSHybrid(snap, src, dist, sc)
			h.AccumulateDistances(src, dist)
		}
		return h
	}
	batch := func() (h metrics.PathHistogram) {
		h.AccumulateMSBFS(snap, srcs, msc)
		return h
	}
	// The first pass of each arm warms it (pages in the CSR, sizes the
	// scratch) and pins the equivalence.
	want, got := perSource(), batch()
	if !slices.Equal(got.Counts, want.Counts) || got.Sum != want.Sum || got.Total != want.Total {
		t.Fatalf("%s n=%d: MS-BFS histogram %+v, per-source BFS %+v", msName, n, got, want)
	}
	bfsTimes := make([]time.Duration, passes)
	msTimes := make([]time.Duration, passes)
	for p := range passes {
		start := time.Now()
		perSource()
		bfsTimes[p] = time.Since(start)
		start = time.Now()
		batch()
		msTimes[p] = time.Since(start)
	}
	slices.Sort(bfsTimes)
	slices.Sort(msTimes)
	allocsPerOp, bytesPerOp := benchutil.MarginalAllocs(1, 3, func(ops int) {
		for i := 0; i < ops; i++ {
			got.AccumulateMSBFS(snap, srcs, msc)
		}
	})
	row := benchutil.Row{N: n, Sources: len(srcs)}
	bfsRow := row.As(bfsName, 1, bfsTimes[passes/2])
	msRow := row.As(msName, 1, msTimes[passes/2]).Against(bfsRow).WithAllocs(allocsPerOp, bytesPerOp)
	t.Logf("%s n=%d: 64 BFS %v, MS-BFS %v (%.1fx), warm MS-BFS %g allocs/op", msName, n, bfsTimes[passes/2], msTimes[passes/2], msRow.Speedup, allocsPerOp)
	return []benchutil.Row{bfsRow, msRow}
}

// kernelsTriangleRows times per-node triangle counting two ways — the
// id-ordered intersection the metrics package ran before, kept below as
// idOrderedTriangles, and the degree-oriented TrianglesPerNodeWith at
// one worker — on the sweep's default glp and BA maps (glp M=1 p=0.45 beta=0.64, BA
// M=2), asserting equal per-node counts. In both families the low ids
// are the hubs, the worst case of the id orientation. BA closes the
// fewest triangles per edge, so there the per-call out-row build is
// the largest share of the oriented kernel's time.
func kernelsTriangleRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	var rows []benchutil.Row
	for _, fam := range []struct {
		suffix string
		g      gen.Generator
	}{
		{"", gen.GLP{N: n, M: 1, P: 0.45, Beta: 0.64}},
		{"-ba", gen.BA{N: n, M: 2}},
	} {
		top, err := fam.g.Generate(rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, kernelsTrianglePair(t, "kernels-triangles-id"+fam.suffix,
			"kernels-triangles-degree"+fam.suffix, fam.g.Name(), top.G.Freeze())...)
	}
	return rows
}

// kernelsTrianglePair times one map's two triangle-counting arms under
// the names idName and degName, alternating over five passes with each
// arm reporting its median pass, as the MS-BFS rows do.
func kernelsTrianglePair(t *testing.T, idName, degName, model string, snap *graph.Snapshot) []benchutil.Row {
	t.Helper()
	const passes = 5
	// The first pass of each arm warms it and pins the equivalence.
	if got, want := metrics.TrianglesPerNodeWith(snap, 1), idOrderedTriangles(snap); !slices.Equal(got, want) {
		t.Fatalf("%s n=%d: degree-oriented triangle counts differ from the id-ordered ones", degName, snap.N())
	}
	idTimes := make([]time.Duration, passes)
	degTimes := make([]time.Duration, passes)
	for p := range passes {
		start := time.Now()
		idOrderedTriangles(snap)
		idTimes[p] = time.Since(start)
		start = time.Now()
		metrics.TrianglesPerNodeWith(snap, 1)
		degTimes[p] = time.Since(start)
	}
	slices.Sort(idTimes)
	slices.Sort(degTimes)
	row := benchutil.Row{N: snap.N(), Model: model}
	idRow := row.As(idName, 1, idTimes[passes/2])
	degRow := row.As(degName, 1, degTimes[passes/2]).Against(idRow)
	t.Logf("%s n=%d: id-ordered %v, degree-oriented %v (%.1fx)", degName, snap.N(), idTimes[passes/2], degTimes[passes/2], degRow.Speedup)
	return []benchutil.Row{idRow, degRow}
}

// idOrderedTriangles is the baseline arm of the triangle rows: each
// triangle a < b < c is found once, at the edge (a, b), by intersecting
// the id-sorted rows of a and b above b. It is a copy of the metrics
// package's test oracle, which test files of another package cannot
// import.
func idOrderedTriangles(s *graph.Snapshot) []int {
	t := make([]int, s.N())
	for u := range t {
		row := s.Neighbors(u)
		for i, v := range row {
			if int(v) <= u {
				continue
			}
			a := row[i+1:]
			b := s.Neighbors(int(v))
			b = b[sort.Search(len(b), func(k int) bool { return b[k] > v }):]
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					t[u]++
					t[v]++
					t[a[x]]++
					x++
					y++
				}
			}
		}
	}
	return t
}

// kernelsPairRows times canonical-path resolution for 64 fixed OD
// pairs two ways — a cold tree build plus walkPath, as admitPending
// pays per origin without pair search, against pairPath — and asserts
// the two paths equal. Both run warm (a pooled tree row, BFS and pair
// scratch sized), so the row compares search work alone; the warm pair
// search into a reused buffer must allocate nothing.
func kernelsPairRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const npairs = 64
	snap := kernelsFreezeBA(t, n, 1)
	arcEdge := snap.ArcEdgeIDs()
	r := rng.New(9)
	srcs, dsts := make([]int, npairs), make([]int, npairs)
	for i := range srcs {
		srcs[i], dsts[i] = r.Intn(snap.N()), r.Intn(snap.N())
	}
	var tree []int32
	sc := metrics.NewBFSScratch(snap.N())
	var ps pairScratch
	var treeBuf, pairBuf []int32
	for i := range srcs {
		tree = buildTreeInto(tree, snap, srcs[i], sc)
		want, wantOK := walkPath(snap, arcEdge, tree, treeBuf[:0], dsts[i])
		got, gotOK := ps.pairPath(snap, arcEdge, srcs[i], dsts[i], pairBuf[:0])
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("n=%d %d→%d: pair path %v, tree path %v", n, srcs[i], dsts[i], got, want)
		}
		treeBuf, pairBuf = want, got
	}
	start := time.Now()
	for i := range srcs {
		tree = buildTreeInto(tree, snap, srcs[i], sc)
		treeBuf, _ = walkPath(snap, arcEdge, tree, treeBuf[:0], dsts[i])
	}
	treeTime := time.Since(start)
	start = time.Now()
	for i := range srcs {
		pairBuf, _ = ps.pairPath(snap, arcEdge, srcs[i], dsts[i], pairBuf[:0])
	}
	pairTime := time.Since(start)
	allocsPerOp, bytesPerOp := benchutil.MarginalAllocs(npairs, 3*npairs, func(ops int) {
		for i := 0; i < ops; i++ {
			pairBuf, _ = ps.pairPath(snap, arcEdge, srcs[i%npairs], dsts[i%npairs], pairBuf[:0])
		}
	})
	row := benchutil.Row{N: n, Sources: npairs}
	treeRow := row.As("kernels-tree-path", 1, treeTime/npairs)
	pairRow := row.As("kernels-pair-vs-tree", 1, pairTime/npairs).Against(treeRow).WithAllocs(allocsPerOp, bytesPerOp)
	t.Logf("pair paths n=%d: tree %v, pair %v (%.1fx), warm pair %g allocs/op", n, treeTime, pairTime, pairRow.Speedup, allocsPerOp)
	return []benchutil.Row{treeRow, pairRow}
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

// kernelsSimSetupRow measures one newSimContext call on a BA map of n
// nodes, every node an origin: spec validation, link capacities, the
// destination alias table, and each origin's split stream and arrival
// state. The routing state is built outside the measured region, so
// the row is the workload stage's per-cell setup alone. Its
// allocations are a handful of flat slices, independent of n; an
// object per origin would show up as ~n allocs/op.
func kernelsSimSetupRow(t *testing.T, n int) benchutil.Row {
	t.Helper()
	const ops = 4
	snap, masses, spec := kernelsWorkload(t, n, 200)
	rt := NewRouting(snap)
	setup := func() {
		if _, err := newSimContext(snap, rt, masses, spec, rng.New(7), 1); err != nil {
			t.Fatal(err)
		}
	}
	setup() // page in the snapshot and the masses
	elapsed, allocs, bytes := benchutil.Timed(func() {
		for i := 0; i < ops; i++ {
			setup()
		}
	})
	allocsPerOp, bytesPerOp := float64(allocs)/ops, float64(bytes)/ops
	t.Logf("sim setup n=%d: %v/op, %g allocs/op, %.0f B/op", n, elapsed/ops, allocsPerOp, bytesPerOp)
	return benchutil.Row{N: n}.As("kernels-sim-setup", 1, elapsed/ops).WithAllocs(allocsPerOp, bytesPerOp)
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
// refreshes on the repair path must allocate nothing. The churn is
// replayed three times from identical seeds and each row keeps its
// minimum counts, as benchutil.MarginalAllocs does: a seeded allocation
// repeats in every replay, while a stray runtime allocation lands in
// one measured window and drops out. The times are the first replay's.
func kernelsRefreshRows(t *testing.T) []benchutil.Row {
	t.Helper()
	const (
		n       = 4000
		pivots  = 32
		trees   = 24
		warmup  = 96
		measure = 12
	)
	type totals struct {
		dmAllocs, dmBytes, rtAllocs, rtBytes uint64
		dmTime, rtTime                       time.Duration
	}
	replay := func() (tot totals) {
		top, err := gen.BA{N: n, M: 2}.Generate(rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		g := top.G.Copy()
		prev, err := g.FreezeChecked()
		if err != nil {
			t.Fatal(err)
		}
		dm := metrics.NewDistMap(prev, metrics.PivotSources(rng.New(5), prev.N(), pivots), 1)
		rt := NewRouting(prev)
		srcs := make([]int, trees)
		for i := range srcs {
			srcs[i] = i
		}
		rt.Ensure(srcs, 1)

		r := rng.New(11)
		for epoch := 0; epoch < warmup+measure; epoch++ {
			// Exactly 8 removals and 8 insertions, so the edge count is
			// constant: every edge-sized refresh buffer reaches its
			// high-water mark during warmup and the measured phase sees
			// the repair path's true steady-state allocation count.
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
				tot.dmTime += time.Since(start)
				tot.dmAllocs += a
				tot.dmBytes += b
				start = time.Now()
				a, b = benchutil.MeasureAllocs(func() { rt.Refresh(next, d, 1) })
				tot.rtTime += time.Since(start)
				tot.rtAllocs += a
				tot.rtBytes += b
			}
			prev = next
		}
		return tot
	}
	best := replay()
	for range 2 {
		tot := replay()
		best.dmAllocs, best.dmBytes = min(best.dmAllocs, tot.dmAllocs), min(best.dmBytes, tot.dmBytes)
		best.rtAllocs, best.rtBytes = min(best.rtAllocs, tot.rtAllocs), min(best.rtBytes, tot.rtBytes)
	}
	t.Logf("refresh churn: distmap %d allocs / %d epochs, routing %d allocs / %d epochs (minimum of 3 replays)",
		best.dmAllocs, measure, best.rtAllocs, measure)
	return []benchutil.Row{
		benchutil.Row{N: n, Epochs: measure, Sources: pivots}.As("kernels-distmap-refresh", 1, best.dmTime/measure).
			WithAllocs(float64(best.dmAllocs)/measure, float64(best.dmBytes)/measure),
		benchutil.Row{N: n, Epochs: measure, Sources: trees}.As("kernels-routing-refresh", 1, best.rtTime/measure).
			WithAllocs(float64(best.rtAllocs)/measure, float64(best.rtBytes)/measure),
	}
}

// rowMajorDistMap is the baseline arm of the kernels-distmap-lanes row:
// the distance map as it was kept before the lane blocks, one plain
// []int32 row per pivot, each repaired by metrics.RelaxDelta (a cold
// BFSHybrid on overrun), its change records patching the same integer
// aggregates a DistMap maintains.
type rowMajorDistMap struct {
	srcs  []int32
	rows  [][]int32
	sc    *metrics.DistScratch
	hist  metrics.PathHistogram
	reach []int32
	sumd  []int64
}

// build fills every row cold over s and recomputes the aggregates,
// reusing the rows' storage.
func (rm *rowMajorDistMap) build(s *graph.Snapshot) {
	n := s.N()
	rm.hist = metrics.PathHistogram{}
	rm.reach = append(rm.reach[:0], make([]int32, n)...)
	rm.sumd = append(rm.sumd[:0], make([]int64, n)...)
	for i, src := range rm.srcs {
		rm.rows[i] = append(rm.rows[i][:0], make([]int32, n)...)
		metrics.BFSHybrid(s, int(src), rm.rows[i], rm.sc.BFS())
		rm.fold(rm.rows[i], +1)
	}
}

// fold adds (sign > 0) or retracts one row's pairs.
func (rm *rowMajorDistMap) fold(row []int32, sign int) {
	for v, d := range row {
		rm.patch(int32(v), d, sign)
	}
}

func (rm *rowMajorDistMap) patch(v, d int32, sign int) {
	if d <= 0 {
		return
	}
	if sign > 0 {
		for int(d) >= len(rm.hist.Counts) {
			rm.hist.Counts = append(rm.hist.Counts, 0)
		}
		rm.hist.Counts[d]++
		rm.hist.Sum += int64(d)
		rm.hist.Total++
		rm.reach[v]++
		rm.sumd[v] += int64(d)
		return
	}
	rm.hist.Counts[d]--
	rm.hist.Sum -= int64(d)
	rm.hist.Total--
	rm.reach[v]--
	rm.sumd[v] -= int64(d)
}

// refresh repairs every row under delta d onto next.
func (rm *rowMajorDistMap) refresh(next *graph.Snapshot, d *graph.Delta) {
	n := next.N()
	for len(rm.reach) < n {
		rm.reach = append(rm.reach, 0)
		rm.sumd = append(rm.sumd, 0)
	}
	rm.sc.Reset()
	for i, src := range rm.srcs {
		row := rm.rows[i]
		for len(row) < n {
			row = append(row, -1)
		}
		rm.rows[i] = row
		changes, ok := metrics.RelaxDelta(next, d.Edges(), row, rm.sc, 0)
		if !ok {
			rm.fold(row, -1)
			metrics.BFSHybrid(next, int(src), row, rm.sc.BFS())
			rm.fold(row, +1)
			continue
		}
		for _, c := range changes {
			rm.patch(c.Node, c.Old, -1)
			rm.patch(c.Node, row[c.Node], +1)
		}
	}
}

// kernelsDistMapLanesRows times the warm repair of a 64-pivot distance
// map along a GLP growth replay (the topogen defaults) to n nodes
// observed every n/100 arrivals, on one worker: one DistMap.Refresh per
// epoch, whose lane kernel repairs the map's 64 node-major lanes
// together, against the row-major baseline (rowMajorDistMap), which
// repairs the 64 rows one at a time. The replay's snapshots and deltas
// are generated once, outside the timing. Every pass rebuilds both arms
// cold on the first epoch, untimed, and times the sum of their repairs
// over the remaining epochs; a first pass warms both arms to the
// replay's high-water marks, then five passes alternate the arms and
// each reports its median. The two arms' path-length histograms are
// asserted equal at the end of every pass, and three more passes count
// the lanes arm's allocations: a warm refresh allocates nothing.
func kernelsDistMapLanesRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const (
		epochs = 100
		pivots = 64
		passes = 5
	)
	var (
		snaps  []*graph.Snapshot
		deltas []*graph.Delta
	)
	observe := func(g *graph.Graph, _ int) error {
		if snaps == nil {
			s, err := g.FreezeChecked()
			snaps = append(snaps, s)
			deltas = append(deltas, nil)
			return err
		}
		next, d, err := g.Refreeze(snaps[len(snaps)-1])
		if err != nil {
			return err
		}
		if d == nil {
			t.Fatal("growth epoch expected a delta refresh")
		}
		snaps = append(snaps, next)
		deltas = append(deltas, d)
		return nil
	}
	if _, err := (gen.GLP{N: n, M: 1, P: 0.45, Beta: 0.64}).GenerateTrajectory(rng.New(1), 1, gen.Trajectory{Every: n / epochs, Observe: observe}); err != nil {
		t.Fatal(err)
	}
	srcs := metrics.PivotSources(rng.New(1), snaps[0].N(), pivots)
	dm := metrics.NewDistMap(snaps[0], srcs, 1)
	lanes := func() {
		for e := 1; e < len(snaps); e++ {
			dm.Refresh(snaps[e], deltas[e], 1)
		}
	}
	rm := &rowMajorDistMap{srcs: srcs, rows: make([][]int32, pivots), sc: metrics.NewDistScratch(snaps[0].N())}
	rm.build(snaps[0])
	rowMajor := func() {
		for e := 1; e < len(snaps); e++ {
			rm.refresh(snaps[e], deltas[e])
		}
	}
	// Each later pass starts both arms cold on the first epoch (the map
	// through a full-refreeze Refresh, which reuses its pages).
	coldStart := func() {
		dm.Refresh(snaps[0], nil, 1)
		rm.build(snaps[0])
	}
	check := func() {
		if got, want := metrics.RefreshPathLengths(dm), rm.hist.ToStats(pivots); !reflect.DeepEqual(got, want) {
			t.Fatalf("distmap-lanes n=%d: lane map path stats %+v, row-major %+v", n, got, want)
		}
	}
	lanes()
	rowMajor()
	check()
	rowTimes := make([]time.Duration, passes)
	laneTimes := make([]time.Duration, passes)
	for p := range passes {
		coldStart()
		start := time.Now()
		rowMajor()
		rowTimes[p] = time.Since(start)
		start = time.Now()
		lanes()
		laneTimes[p] = time.Since(start)
		check()
	}
	// A stray runtime allocation lands in one window at most, so the
	// minimum over three passes keeps only the refreshes' own.
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		coldStart()
		a, b := benchutil.MeasureAllocs(lanes)
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	slices.Sort(rowTimes)
	slices.Sort(laneTimes)
	measured := len(snaps) - 1
	row := benchutil.Row{N: n, Model: "glp", Epochs: measured, Pivots: pivots}
	rowRow := row.As("kernels-distmap-rows", 1, rowTimes[passes/2]/time.Duration(measured))
	laneRow := row.As("kernels-distmap-lanes", 1, laneTimes[passes/2]/time.Duration(measured)).Against(rowRow).
		WithAllocs(float64(allocs)/float64(measured), float64(bytes)/float64(measured))
	t.Logf("distmap-lanes n=%d: %d epochs, row-major %v, lanes %v (%.2fx), warm lanes %d allocs / %d B per pass",
		n, measured, rowTimes[passes/2], laneTimes[passes/2], laneRow.Speedup, allocs, bytes)
	return []benchutil.Row{rowRow, laneRow}
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
			if a[v] != b[v] {
				t.Fatalf("src %d: reused tree dist[%d]=%d, fresh %d", src, v, a[v], b[v])
			}
		}
	}
	t.Logf("routing reset: %d allocs / %d cycles (%d trees each)", resetAllocs, measure, trees)
	return benchutil.Row{N: n, Epochs: measure, Sources: trees}.As("kernels-routing-reset", 1, resetTime/measure).
		WithAllocs(float64(resetAllocs)/measure, float64(resetBytes)/measure)
}

// kernelsTrajectoryRows measures the heap bytes one trajectory epoch
// allocates, on GLP growth (the topogen defaults) to n nodes observed
// every n/100 arrivals, with a 64-pivot distance map, in two rows:
//
//   - kernels-trajectory-observe: the metrics engine's Advance onto the
//     refreshed snapshot plus the MeasureGrowthPaths observation;
//   - kernels-trajectory-refreeze: the graph's Refreeze plus the
//     retirement of the snapshot two epochs back, the order
//     core.TrajectoryObserver retires in, so the refresh reuses that
//     snapshot's per-node arrays, delta buffer and, once no live
//     snapshot shares it, its arc arena.
//
// Generation stays outside both measured regions, and so does the
// first epoch, which freezes cold and builds every engine-owned state
// cold; the rows are the steady per-epoch costs, whose node-indexed
// rows grow geometrically, so their copies amortize.
func kernelsTrajectoryRows(t *testing.T, n int) []benchutil.Row {
	t.Helper()
	const (
		epochs = 100
		pivots = 64
	)
	var (
		prev, older *graph.Snapshot
		eng         *engine.Engine
		pivotSet    []int32
		measured    int
		allocs      uint64
		bytes       uint64
		elapsed     time.Duration
		frzAllocs   uint64
		frzBytes    uint64
		frzElapsed  time.Duration
	)
	observe := func(g *graph.Graph, nn int) error {
		if prev == nil {
			next, err := g.FreezeChecked()
			if err != nil {
				return err
			}
			eng = engine.New(next, engine.WithWorkers(1))
			pivotSet = metrics.PivotSources(rng.New(1), next.N(), pivots)
			eng.MeasureGrowthPaths(pivotSet)
			prev = next
			return nil
		}
		var next *graph.Snapshot
		var d *graph.Delta
		var err error
		start := time.Now()
		a, b := benchutil.MeasureAllocs(func() {
			next, d, err = g.Refreeze(prev)
			if older != nil {
				older.Retire()
			}
		})
		frzElapsed += time.Since(start)
		if err != nil {
			return err
		}
		if d == nil {
			t.Fatalf("epoch at %d nodes: full freeze, want a delta refresh", nn)
		}
		frzAllocs += a
		frzBytes += b
		var st metrics.GrowthStats
		start = time.Now()
		a, b = benchutil.MeasureAllocs(func() {
			err = eng.Advance(next, d)
			st = eng.MeasureGrowthPaths(pivotSet)
		})
		elapsed += time.Since(start)
		if err != nil {
			return err
		}
		if st.N != nn || st.PathSources != pivots {
			t.Fatalf("epoch at %d nodes observed %d nodes over %d sources", nn, st.N, st.PathSources)
		}
		allocs += a
		bytes += b
		measured++
		older, prev = prev, next
		return nil
	}
	_, err := gen.GLP{N: n, M: 1, P: 0.45, Beta: 0.64}.GenerateTrajectory(rng.New(1), 1, gen.Trajectory{Every: n / epochs, Observe: observe})
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(bytes) / float64(measured)
	frzPerOp := float64(frzBytes) / float64(measured)
	t.Logf("trajectory observe n=%d: %d epochs, %.1f allocs/epoch, %.0f B/epoch, %v/epoch",
		n, measured, float64(allocs)/float64(measured), perOp, elapsed/time.Duration(measured))
	t.Logf("trajectory refreeze n=%d: %d epochs, %.1f allocs/epoch, %.0f B/epoch, %v/epoch",
		n, measured, float64(frzAllocs)/float64(measured), frzPerOp, frzElapsed/time.Duration(measured))
	row := benchutil.Row{N: n, Model: "glp", Epochs: measured, Pivots: pivots}
	return []benchutil.Row{
		row.As("kernels-trajectory-observe", 1, elapsed/time.Duration(measured)).
			WithAllocs(float64(allocs)/float64(measured), perOp),
		row.As("kernels-trajectory-refreeze", 1, frzElapsed/time.Duration(measured)).
			WithAllocs(float64(frzAllocs)/float64(measured), frzPerOp),
	}
}

// kernelsWaterfillPopulation captures a load-dense-shaped flow
// population: the flows still in flight after the given epochs of the
// epoch engine at load 1.2 over a BA map of n nodes (M=2, degree
// masses: topoload's load-dense defaults), left in the run's scratch
// table and arena, with the map's link capacities.
func kernelsWaterfillPopulation(t *testing.T, n, epochs int) (*flowTable, *pathArena, []float64) {
	t.Helper()
	top, err := gen.BA{N: n, M: 2}.Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	snap := top.G.Freeze()
	masses := make([]float64, snap.N())
	for u := range masses {
		masses[u] = float64(snap.Degree(u))
	}
	spec := WorkloadSpec{LoadFactor: 1.2, Epochs: epochs}
	ctx, err := newSimContext(snap, nil, masses, spec, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	scr := NewSimScratch()
	if _, err := Simulate(snap, masses, spec, rng.New(1), 1, WithRouting(ctx.rt), WithSimScratch(scr)); err != nil {
		t.Fatal(err)
	}
	return &scr.flows, &scr.paths, ctx.capEdge
}

// kernelsWaterfillRows times one epoch's max-min water-fill over a
// captured load-dense population (kernelsWaterfillPopulation): the
// record-major fill over 48-byte flow records (fillRecords, the
// oracle) against the column fill, which reads only the table's
// 16-byte hot column and tracks fixed flows in a bitset. One op is one
// fill plus the observation pass's reset of the link counts. Both arms
// are warmed, then five passes of fills alternate the arms at one
// worker and each reports its median pass; the two arms' rates and
// unclaimed capacities are asserted bit-identical after every pass,
// and three more passes count the column arm's allocations: a warm
// fill allocates nothing.
func kernelsWaterfillRows(t *testing.T, n, epochs int) []benchutil.Row {
	t.Helper()
	const (
		passes = 5
		fills  = 8
	)
	ft, arena, capEdge := kernelsWaterfillPopulation(t, n, epochs)
	var rec recordTable
	rec.loadRecords(ft)
	cols, recs := newWFState(len(capEdge)), newWFState(len(capEdge))
	columns := func() {
		for range fills {
			cols.fill(ft, arena, capEdge)
			cols.endFill()
		}
	}
	records := func() {
		for range fills {
			fillRecords(recs, &rec, arena, capEdge)
			recs.endFill()
		}
	}
	check := func() {
		if msg, ok := sameFill(cols, recs, ft, &rec); !ok {
			t.Fatalf("waterfill n=%d, %d flows: %s", n, ft.n, msg)
		}
	}
	columns()
	records()
	check()
	recTimes := make([]time.Duration, passes)
	colTimes := make([]time.Duration, passes)
	for p := range passes {
		start := time.Now()
		records()
		recTimes[p] = time.Since(start)
		start = time.Now()
		columns()
		colTimes[p] = time.Since(start)
		check()
	}
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		a, b := benchutil.MeasureAllocs(columns)
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	slices.Sort(recTimes)
	slices.Sort(colTimes)
	row := benchutil.Row{N: n, Model: "ba", FlowsPerEpoch: ft.n, Links: len(cols.links)}
	recRow := row.As("kernels-waterfill-records", 1, recTimes[passes/2]/fills)
	colRow := row.As("kernels-waterfill-columns", 1, colTimes[passes/2]/fills).Against(recRow).
		WithAllocs(float64(allocs)/fills, float64(bytes)/fills)
	t.Logf("waterfill n=%d: %d flows over %d links, records %v, columns %v per fill (%.2fx), warm columns %d allocs / %d B per pass",
		n, ft.n, len(cols.links), recTimes[passes/2]/fills, colTimes[passes/2]/fills, colRow.Speedup, allocs, bytes)
	return []benchutil.Row{recRow, colRow}
}

// TestBenchJSON emits BENCH_kernels.json into the -bench-out
// directory: cold-tree-build speedup rows (hybrid vs classic BFS, 10k
// smoke plus the 100k acceptance size), pair-search vs tree-path,
// MS-BFS vs per-source path-histogram and degree-oriented vs
// id-ordered triangle rows at the same sizes, the simulation-setup,
// trajectory-observation and trajectory-refreeze allocation rows at
// the same sizes, and the steady-state allocation rows the benchcheck
// ceilings gate.
func TestBenchJSON(t *testing.T) {
	dir := benchutil.OutDir(t)
	var rows []benchutil.Row
	for _, n := range benchutil.Scale([]int{10000}, []int{10000, 100000}) {
		rows = append(rows, kernelsColdTreeRows(t, n)...)
		rows = append(rows, kernelsPairRows(t, n)...)
		rows = append(rows, kernelsMSBFSRows(t, n)...)
		rows = append(rows, kernelsTriangleRows(t, n)...)
		rows = append(rows, kernelsSimSetupRow(t, n))
		rows = append(rows, kernelsTrajectoryRows(t, n)...)
		rows = append(rows, kernelsDistMapLanesRows(t, n)...)
	}
	rows = append(rows, kernelsWaterfillRows(t, benchutil.Scale(300, 1000), benchutil.Scale(10, 50))...)
	rows = append(rows, kernelsEngineSteadyRow(t, EngineEpoch), kernelsEngineSteadyRow(t, EngineEvent))
	rows = append(rows, kernelsRefreshRows(t)...)
	rows = append(rows, kernelsRoutingResetRow(t))
	if err := benchutil.WriteRows(dir, "BENCH_kernels.json", rows); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d kernel benchmark rows to BENCH_kernels.json", len(rows))
}

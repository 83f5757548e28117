package traffic

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// treePath resolves (src, dst) into a fresh slice, the walk a memo entry
// holds.
func (rt *Routing) treePath(src, dst int) ([]int32, bool) {
	return rt.treePathInto(src, dst, nil)
}

// meshGraph is a ring with chords — connected, multipath, cheap.
func meshGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
		g.MustAddEdge(i, (i+7)%n)
	}
	return g
}

func TestSimulateLowLoadCompletes(t *testing.T) {
	s := meshGraph(40).Freeze()
	rep, err := Simulate(s, uniformMasses(40), WorkloadSpec{LoadFactor: 0.02, Epochs: 30}, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrived == 0 {
		t.Fatal("no flows arrived at positive load")
	}
	if rep.Completed == 0 || rep.MeanFCT <= 0 {
		t.Fatalf("completed %d, mean FCT %v at light load", rep.Completed, rep.MeanFCT)
	}
	// Under max-min sharing even a lone flow saturates its bottleneck
	// link, so light load still shows a small saturated fraction — but it
	// must stay small and well below a heavily loaded run.
	if rep.OverloadFrac > 0.2 {
		t.Fatalf("overload fraction %v at light load", rep.OverloadFrac)
	}
	heavy, err := Simulate(s, uniformMasses(40), WorkloadSpec{LoadFactor: 2, Epochs: 30}, rng.New(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.OverloadFrac <= rep.OverloadFrac {
		t.Fatalf("overload fraction did not grow with load: %v at 0.02x vs %v at 2x",
			rep.OverloadFrac, heavy.OverloadFrac)
	}
	if rep.Undelivered != 0 {
		t.Fatalf("undelivered %d on a connected graph", rep.Undelivered)
	}
	if len(rep.Epochs) != 30 {
		t.Fatalf("epoch rows %d, want 30", len(rep.Epochs))
	}
	var arrived, completed int
	for _, e := range rep.Epochs {
		arrived += e.Arrived
		completed += e.Completed
	}
	if arrived != rep.Arrived || completed != rep.Completed {
		t.Fatalf("epoch sums (%d, %d) disagree with totals (%d, %d)",
			arrived, completed, rep.Arrived, rep.Completed)
	}
	if rep.Completed+rep.ResidualFlows != rep.Arrived {
		t.Fatalf("flow conservation: %d completed + %d residual != %d arrived",
			rep.Completed, rep.ResidualFlows, rep.Arrived)
	}
}

func TestSimulateHighLoadSaturates(t *testing.T) {
	s := pathGraph(10).Freeze()
	rep, err := Simulate(s, uniformMasses(10), WorkloadSpec{LoadFactor: 3, Epochs: 15}, rng.New(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverloadFrac == 0 {
		t.Fatal("no overloaded link-epochs at 3x load")
	}
	if rep.MaxUtil < 0.999 {
		t.Fatalf("max utilization %v, want saturation", rep.MaxUtil)
	}
	// Max-min rates must never exceed capacity.
	if rep.MaxUtil > 1+1e-9 {
		t.Fatalf("max utilization %v exceeds capacity", rep.MaxUtil)
	}
	if rep.ResidualFlows == 0 {
		t.Fatal("overloaded path cleared every flow")
	}
}

func TestSimulateUtilCCDFMonotone(t *testing.T) {
	s := meshGraph(30).Freeze()
	rep, err := Simulate(s, uniformMasses(30), WorkloadSpec{LoadFactor: 0.8, Epochs: 10}, rng.New(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UtilCCDF) != len(utilCCDFThresholds) {
		t.Fatalf("CCDF has %d bins", len(rep.UtilCCDF))
	}
	prev := 1.0
	for _, b := range rep.UtilCCDF {
		if b.Frac < 0 || b.Frac > 1 {
			t.Fatalf("CCDF frac %v out of range", b.Frac)
		}
		if b.Frac > prev+1e-12 {
			t.Fatalf("CCDF not non-increasing at util %v", b.Util)
		}
		prev = b.Frac
	}
}

func TestSimulateMaxMinTwoFlowsShareLink(t *testing.T) {
	// Two nodes, one unit link, heavy persistent demand: the epoch rates
	// must fill the link exactly (utilization 1) and split it across the
	// contending flows — aggregate throughput per epoch equals capacity.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	rep, err := Simulate(g.Freeze(), uniformMasses(2),
		WorkloadSpec{LoadFactor: 4, Epochs: 10, Sizes: "exp", MeanSize: 5}, rng.New(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Epochs {
		if e.Active > 0 && math.Abs(e.MaxUtil-1) > 1e-9 {
			t.Fatalf("epoch %d: %d active flows but utilization %v", e.Epoch, e.Active, e.MaxUtil)
		}
	}
	if rep.Links.MaxUtilization > 1+1e-9 {
		t.Fatalf("time-averaged utilization %v exceeds capacity", rep.Links.MaxUtilization)
	}
}

func TestSimulateWorkerInvariance(t *testing.T) {
	s := meshGraph(60).Freeze()
	spec := WorkloadSpec{LoadFactor: 0.7, Epochs: 12, Arrivals: "onoff", Sizes: "pareto", TailIndex: 1.4}
	var base []byte
	for _, workers := range []int{1, 2, 4, 8} {
		rep, err := Simulate(s, uniformMasses(60), spec, rng.New(9), workers)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		link, err := json.Marshal(rep.Links)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, link...)
		if base == nil {
			base = data
		} else if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d report diverged", workers)
		}
	}
}

func TestSimulateWithMemoizesRouting(t *testing.T) {
	s := meshGraph(25).Freeze()
	eng := engine.New(s, engine.WithWorkers(2))
	if a, b := RoutingOf(eng), RoutingOf(eng); a != b {
		t.Fatal("RoutingOf must memoize per snapshot")
	}
	spec := WorkloadSpec{LoadFactor: 0.5, Epochs: 8}
	warm, err := SimulateWith(eng, uniformMasses(25), spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// A second run over the now-warm routing cache and a run with fresh
	// routing state must agree exactly: cache reuse never changes paths.
	again, err := SimulateWith(eng, uniformMasses(25), spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Simulate(s, uniformMasses(25), spec, rng.New(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(warm)
	aj, _ := json.Marshal(again)
	fj, _ := json.Marshal(fresh)
	if !bytes.Equal(wj, aj) || !bytes.Equal(wj, fj) {
		t.Fatal("memoized, re-run and fresh-routing simulations disagree")
	}
}

// TestRoutingMemBytesMatchesHeap: MemBytes stays within 10% of the heap
// a warm Routing retains, both with more Ensure sources than the tree
// budget — the evicted rows sit in the pool — and after Reset has
// parked every row there.
func TestRoutingMemBytesMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("retains ~40 MB of routing trees")
	}
	s := meshGraph(20000).Freeze()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rt := NewRouting(s)
	const batch = 64
	srcs := make([]int, batch)
	for lo := 0; lo < rt.max+batch; lo += batch {
		for i := range srcs {
			srcs[i] = lo + i
		}
		rt.Ensure(srcs, 1)
	}
	if len(rt.trees) != rt.max || len(rt.free) == 0 {
		t.Fatalf("%d trees cached (budget %d), %d pooled: want a full cache and a nonempty pool",
			len(rt.trees), rt.max, len(rt.free))
	}
	check := func(stage string) {
		t.Helper()
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		est := float64(rt.MemBytes())
		t.Logf("%s: MemBytes %.0f bytes, retained heap %.0f bytes", stage, est, heap)
		if math.Abs(est-heap) > 0.1*heap {
			t.Fatalf("%s: MemBytes %.0f bytes, retained heap %.0f bytes", stage, est, heap)
		}
	}
	check("cache full, evicted rows pooled")
	rt.Reset(s)
	check("after Reset")
	runtime.KeepAlive(rt)
}

func TestRoutingEvictionKeepsPathsCorrect(t *testing.T) {
	s := meshGraph(30).Freeze()
	rt := NewRouting(s)
	rt.max = 4 // force eviction pressure
	rt.Ensure([]int{0, 1, 2, 3, 4, 5}, 2)
	if len(rt.trees) != 6 {
		t.Fatalf("batch must survive its own Ensure, have %d trees", len(rt.trees))
	}
	want, _ := rt.treePath(0, 15)
	rt.Ensure([]int{10, 11, 12, 13}, 1)
	if len(rt.trees) > 6 {
		t.Fatalf("eviction did not shrink the cache: %d trees", len(rt.trees))
	}
	if _, cached := rt.trees[0]; cached {
		t.Fatal("oldest tree should have been evicted")
	}
	got, _ := rt.treePath(0, 15)
	if len(got) != len(want) {
		t.Fatalf("rebuilt path length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("rebuilt tree disagrees with the evicted one")
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	s := meshGraph(10).Freeze()
	u := uniformMasses(10)
	if _, err := Simulate(graph.New(1).Freeze(), []float64{1}, WorkloadSpec{LoadFactor: 1}, rng.New(1), 1); err == nil {
		t.Fatal("single node should fail")
	}
	if _, err := Simulate(s, uniformMasses(4), WorkloadSpec{LoadFactor: 1}, rng.New(1), 1); err == nil {
		t.Fatal("masses size mismatch should fail")
	}
	if _, err := Simulate(s, make([]float64, 10), WorkloadSpec{LoadFactor: 1}, rng.New(1), 1); err == nil {
		t.Fatal("all-zero masses should fail")
	}
	if _, err := Simulate(s, u, WorkloadSpec{LoadFactor: -1}, rng.New(1), 1); err == nil {
		t.Fatal("invalid spec should fail")
	}
	if _, err := Simulate(graph.New(3).Freeze(), uniformMasses(3), WorkloadSpec{LoadFactor: 1}, rng.New(1), 1); err == nil {
		t.Fatal("edgeless graph should fail")
	}
	neg := uniformMasses(10)
	neg[3] = -1
	if _, err := Simulate(s, neg, WorkloadSpec{LoadFactor: 1}, rng.New(1), 1); err == nil {
		t.Fatal("negative mass should fail")
	}
}

func TestSimulateDisconnectedUndelivered(t *testing.T) {
	// Two components: flows across the cut count as undelivered.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	rep, err := Simulate(g.Freeze(), uniformMasses(6), WorkloadSpec{LoadFactor: 1, Epochs: 10}, rng.New(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Undelivered == 0 {
		t.Fatal("cross-component flows must surface as undelivered")
	}
}

// ownershipWorkload is a small dense workload for the path-ownership
// tests: a 300-node BA map (well under its tree budget), both engines,
// without failures and under random outages with retries.
func ownershipWorkload(t *testing.T) (*graph.Snapshot, []float64, []WorkloadSpec) {
	t.Helper()
	s, masses, spec := kernelsWorkload(t, 300, 150)
	spec.Epochs = 12
	var specs []WorkloadSpec
	for _, eng := range []string{EngineEpoch, EngineEvent} {
		for _, fail := range []*FailureSpec{nil, {Mode: FailRandom, Links: 6, Nodes: 1, MTBF: 3, MTTR: 1, MaxRetries: 2}} {
			sp := spec
			sp.Engine, sp.Failures = eng, fail
			specs = append(specs, sp)
		}
	}
	return s, masses, specs
}

// TestMemoSkippedUnderTreeBudget pins the memo rule at n <= tree budget:
// a simulation memoizes nothing, and it reproduces — flow by flow — the
// report of a run whose memo was pre-filled with every OD pair through
// storePath.
func TestMemoSkippedUnderTreeBudget(t *testing.T) {
	s, masses, specs := ownershipWorkload(t)
	for _, spec := range specs {
		rt := NewRouting(s)
		if rt.memoizes() {
			t.Fatalf("n=%d under a budget of %d trees still memoizes", s.N(), rt.max)
		}
		got, err := Simulate(s, masses, spec, rng.New(3), 1, WithRouting(rt), WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if len(rt.paths) != 0 {
			t.Fatalf("%s/%v: %d paths memoized under the tree budget", spec.Engine, spec.Failures, len(rt.paths))
		}
		filled := NewRouting(s)
		for src := 0; src < s.N(); src++ {
			for dst := 0; dst < s.N(); dst++ {
				if dst != src {
					p, ok := filled.treePath(src, dst)
					filled.storePath(src, dst, p, ok)
				}
			}
		}
		want, err := Simulate(s, masses, spec, rng.New(3), 1, WithRouting(filled), WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%v: walked paths and a pre-filled memo disagree", spec.Engine, spec.Failures)
		}
	}
}

// TestMemoFillsAboveTreeBudget: once the tree budget is below the node
// count, admissions memoize every resolved pair — each entry the tree
// walk — and the report matches the memo-free run's.
func TestMemoFillsAboveTreeBudget(t *testing.T) {
	s, masses, specs := ownershipWorkload(t)
	for _, spec := range specs[:2] { // the epoch engine, with and without failures
		want, err := Simulate(s, masses, spec, rng.New(3), 1, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRouting(s)
		rt.max = 16
		got, err := Simulate(s, masses, spec, rng.New(3), 1, WithRouting(rt), WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: memoizing run diverged from the walking run", spec.Failures)
		}
		if spec.Failures != nil {
			continue // admissions resolve over the private mirror routing
		}
		if len(rt.paths) < got.Arrived/4 {
			t.Fatalf("%d paths memoized for %d arrivals", len(rt.paths), got.Arrived)
		}
		oracle := NewRouting(s)
		for key, p := range rt.paths {
			want, ok := oracle.treePath(int(key>>32), int(int32(key)))
			if !ok || !slices.Equal(p, want) {
				t.Fatalf("memoized path %d→%d = %v, tree walk %v", key>>32, int32(key), p, want)
			}
		}
	}
}

// TestAdmittedFlowsOwnTheirPaths zeroes the admission slab and the
// failure layer's resolve buffer after every epoch's admissions — edge
// 0 is a real link, so a flow still reading either would silently
// reroute — and requires the reports of both engines, with and without
// failures, to stay flow-for-flow identical.
func TestAdmittedFlowsOwnTheirPaths(t *testing.T) {
	s, masses, specs := ownershipWorkload(t)
	scribbled := 0
	scribble := func(ctx *simContext) {
		slab := ctx.routing().admSlab
		scribbled += len(slab)
		clear(slab[:cap(slab)])
		if ctx.fail != nil {
			clear(ctx.fail.pathBuf[:cap(ctx.fail.pathBuf)])
		}
	}
	for _, spec := range specs {
		want, err := Simulate(s, masses, spec, rng.New(9), 1, WithFlowTrace())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(s, masses, spec, rng.New(9), 1, WithFlowTrace(),
			func(c *simConfig) { c.afterAdmit = scribble })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%v: overwriting the admission buffers changed the run", spec.Engine, spec.Failures)
		}
	}
	if scribbled == 0 {
		t.Fatal("no admission walked into the slab")
	}
}

package traffic

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

// replayGrowth replays a generated topology's edge list into a growing
// graph, calling check at every delta-refreshed epoch — the traffic
// mirror of the metrics package's trajectory harness.
func replayGrowth(t *testing.T, top *gen.Topology, every int,
	check func(prev, next *graph.Snapshot, d *graph.Delta)) {
	t.Helper()
	g := graph.New(0)
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	edges := top.G.EdgeList()
	for i, e := range edges {
		for g.N() <= e.V || g.N() <= e.U {
			g.AddNode()
		}
		for w := 0; w < e.W; w++ {
			g.MustAddEdge(e.U, e.V)
		}
		if (i+1)%every == 0 || i == len(edges)-1 {
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatal(err)
			}
			if d == nil {
				t.Fatal("replay expected a delta refresh")
			}
			check(prev, next, d)
			prev = next
		}
	}
}

// cloneRouting deep-copies a routing state so two copies can refresh at
// different worker counts and be compared field by field.
func cloneRouting(rt *Routing) *Routing {
	cp := &Routing{s: rt.s, arcEdge: rt.arcEdge, max: rt.max,
		trees: make(map[int][]int32, len(rt.trees)),
		fifo:  append([]int(nil), rt.fifo...),
		paths: make(map[int64][]int32, len(rt.paths))}
	for src, dist := range rt.trees {
		cp.trees[src] = slices.Clone(dist)
	}
	for k, p := range rt.paths {
		if p == nil {
			cp.paths[k] = nil
		} else {
			cp.paths[k] = append([]int32(nil), p...)
		}
	}
	return cp
}

// requireRoutingEqual compares two routing states entry by entry.
func requireRoutingEqual(t *testing.T, label string, got, want *Routing) {
	t.Helper()
	if got.s.Version() != want.s.Version() || got.max != want.max {
		t.Fatalf("%s: snapshot/budget diverged", label)
	}
	if !reflect.DeepEqual(got.fifo, want.fifo) {
		t.Fatalf("%s: fifo diverged: %v vs %v", label, got.fifo, want.fifo)
	}
	if !maps.EqualFunc(got.trees, want.trees, slices.Equal) {
		t.Fatalf("%s: tree caches diverged", label)
	}
	if !maps.EqualFunc(got.paths, want.paths, func(a, b []int32) bool {
		return (a == nil) == (b == nil) && slices.Equal(a, b)
	}) {
		t.Fatalf("%s: memoized paths diverged", label)
	}
}

// coldTree is the routing oracle: a plain queue BFS from src over s and
// each node's canonical parent, its smallest-id neighbor one hop closer
// (-1 at src and for unreachable nodes).
func coldTree(s *graph.Snapshot, src int) (dist, parent []int32) {
	n := s.N()
	dist, parent = make([]int32, n), make([]int32, n)
	for v := range dist {
		dist[v], parent[v] = -1, -1
	}
	dist[src] = 0
	queue := append(make([]int32, 0, n), int32(src))
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, w := range s.Neighbors(int(u)) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	for _, v := range queue[1:] {
		for _, u := range s.Neighbors(int(v)) {
			if dist[u] == dist[v]-1 && (parent[v] < 0 || u < parent[v]) {
				parent[v] = u
			}
		}
	}
	return dist, parent
}

// oraclePath reads the path from dst back to the source off coldTree's
// parents, as snapshot edge ids, and reports whether dst is reachable.
func oraclePath(s *graph.Snapshot, dist, parent []int32, dst int) ([]int32, bool) {
	if dist[dst] < 0 {
		return nil, false
	}
	arcEdge := s.ArcEdgeIDs()
	var path []int32
	for v := dst; parent[v] >= 0; v = int(parent[v]) {
		lo, _ := s.ArcRange(v)
		path = append(path, arcEdge[int(lo)+slices.Index(s.Neighbors(v), parent[v])])
	}
	return path, true
}

// requireRefreshed pins a refreshed routing state against cold
// oracles over the new snapshot: every cached row is a cold BFS, the
// memo is empty, and every OD pair memoized before the refresh resolves
// through admitPending — on a copy, so rt stays as refreshed — to the
// cold walk oraclePath.
func requireRefreshed(t *testing.T, label string, before, rt *Routing) {
	t.Helper()
	next := rt.s
	cold := make(map[int][2][]int32)
	tree := func(src int) (dist, parent []int32) {
		tr, ok := cold[src]
		if !ok {
			tr[0], tr[1] = coldTree(next, src)
			cold[src] = tr
		}
		return tr[0], tr[1]
	}
	for src, dist := range rt.trees {
		if want, _ := tree(src); !slices.Equal(dist, want) {
			t.Fatalf("%s: cached tree %d diverged from a cold BFS", label, src)
		}
	}
	if len(rt.paths) != 0 {
		t.Fatalf("%s: %d memoized paths survived the refresh", label, len(rt.paths))
	}
	// Sorted keys group the pairs by ascending origin, as admitPending
	// requires.
	var pend []pending
	for _, key := range slices.Sorted(maps.Keys(before.paths)) {
		pend = append(pend, pending{src: int(key >> 32), dst: int(int32(key)), size: 1})
	}
	got := make(map[int64][]int32, len(pend))
	admitPending(cloneRouting(rt), 1, pend, func(p pending, path []int32) {
		got[pathKey(p.src, p.dst)] = path
	})
	for _, p := range pend {
		dist, parent := tree(p.src)
		want, reachable := oraclePath(next, dist, parent, p.dst)
		path, ok := got[pathKey(p.src, p.dst)]
		if ok != reachable || !slices.Equal(path, want) {
			t.Fatalf("%s: %d→%d resolves to %v (reachable %v), cold walk %v (reachable %v)",
				label, p.src, p.dst, path, ok, want, reachable)
		}
	}
}

// requireSameFlows asserts two traced simulations drew and finished the
// same flow population: identity exactly, completion to 1e-9 relative.
func requireSameFlows(t *testing.T, label string, a, b *SimReport) {
	t.Helper()
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: flow populations %d vs %d", label, len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		if fa.Src != fb.Src || fa.Dst != fb.Dst || fa.Size != fb.Size || fa.Arrived != fb.Arrived {
			t.Fatalf("%s: flow %d identity diverged: %+v vs %+v", label, i, fa, fb)
		}
		if fa.Done != fb.Done {
			t.Fatalf("%s: flow %d fate diverged: %+v vs %+v", label, i, fa, fb)
		}
		scale := math.Max(1, math.Abs(fa.Finished))
		if fa.Done && math.Abs(fa.Finished-fb.Finished) > 1e-9*scale {
			t.Fatalf("%s: flow %d completion %v vs %v", label, i, fa.Finished, fb.Finished)
		}
	}
}

// TestRoutingRefreshEquivalence drives a shared routing state along a
// growth trajectory with Refresh and pins it against cold rebuilds at
// every epoch: repaired trees are entry-identical to cold builds, the
// memo is dropped and every pair it held resolves again to a cold walk
// (requireRefreshed), refresh is worker-count invariant, and
// simulations over the refreshed state — both engines — reproduce the
// cold-rebuild flows.
func TestRoutingRefreshEquivalence(t *testing.T) {
	top, err := gen.BA{N: 600, M: 2}.Generate(rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	g0 := graph.New(0)
	seed, err := g0.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouting(seed)
	epoch, resolved := 0, 0
	// Every epoch memoizes a few paths per cached origin; the
	// simulations run every 100 edges and on the final epoch.
	replayGrowth(t, top, 20, func(prev, next *graph.Snapshot, d *graph.Delta) {
		epoch++
		// Worker invariance: the same state repaired at widths 1 and 4.
		before, alt := cloneRouting(rt), cloneRouting(rt)
		rt.Refresh(next, d, 4)
		alt.Refresh(next, d, 1)
		requireRoutingEqual(t, "worker-invariance", rt, alt)

		n := next.N()
		if rt.s != next || rt.Snapshot() != next {
			t.Fatal("refresh did not rebase the snapshot")
		}
		requireRefreshed(t, fmt.Sprintf("epoch %d", epoch), before, rt)
		resolved += len(before.paths)
		for _, src := range rt.fifo {
			for j := 1; j <= 4; j++ {
				if dst := (src + 97*j) % n; dst != src {
					p, reachable := rt.treePath(src, dst)
					rt.storePath(src, dst, p, reachable)
				}
			}
		}

		if n < 40 || (epoch%5 != 0 && next.M() < top.G.M()) {
			return
		}
		masses := make([]float64, n)
		for u := range masses {
			masses[u] = float64(next.Degree(u))
		}
		for _, engName := range []string{EngineEpoch, EngineEvent} {
			spec := WorkloadSpec{Engine: engName, LoadFactor: 0.6, Epochs: 6}
			warm, err := Simulate(next, masses, spec, rng.New(42), 2,
				WithFlowTrace(), WithRouting(rt))
			if err != nil {
				t.Fatalf("epoch %d %s warm: %v", epoch, engName, err)
			}
			cold, err := Simulate(next, masses, spec, rng.New(42), 2, WithFlowTrace())
			if err != nil {
				t.Fatalf("epoch %d %s cold: %v", epoch, engName, err)
			}
			requireSameFlows(t, engName, warm, cold)
		}
	})
	if epoch < 5 {
		t.Fatalf("trajectory too short: %d epochs", epoch)
	}
	if resolved == 0 {
		t.Fatal("no memoized pair was re-resolved after a refresh")
	}
	t.Logf("pairs re-resolved across refreshes: %d", resolved)
}

// TestRoutingRefreshUnderChurn drives the row repair through mixed
// insert+remove epochs. Every cached tree, every pair memoized before a refresh
// (requireRefreshed), and the simulations on top must match cold
// rebuilds, at every worker count.
func TestRoutingRefreshUnderChurn(t *testing.T) {
	top, err := gen.BA{N: 250, M: 2}.Generate(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G.Copy()
	prev, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouting(prev)
	r := rng.New(99)
	warm := func(s *graph.Snapshot) {
		// Ensure requires ascending, duplicate-free sources.
		pick := make(map[int]bool, 12)
		for i := 0; i < 12; i++ {
			pick[r.Intn(s.N())] = true
		}
		srcs := make([]int, 0, len(pick))
		for src := range pick {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		rt.Ensure(srcs, 2)
		for _, src := range srcs {
			dst := r.Intn(s.N())
			if _, ok, _ := rt.cachedPath(src, dst); !ok && dst != src {
				p, reachable := rt.treePath(src, dst)
				rt.storePath(src, dst, p, reachable)
			}
		}
	}
	warm(prev)
	resolved := 0
	for epoch := 0; epoch < 15; epoch++ {
		edges := prev.EdgeList()
		removed := 0
		for i := 0; i < 6 && len(edges) > 0; i++ {
			e := edges[r.Intn(len(edges))]
			if g.HasEdge(e.U, e.V) {
				if err := g.RemoveEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
				removed++
			}
		}
		for i := 0; i < 5; i++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
		next, d, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil || removed == 0 {
			t.Fatalf("epoch %d: churn epoch carries no removal delta", epoch)
		}
		before, alt := cloneRouting(rt), cloneRouting(rt)
		rt.Refresh(next, d, 4)
		alt.Refresh(next, d, 1)
		requireRoutingEqual(t, "churn-worker-invariance", rt, alt)
		requireRefreshed(t, fmt.Sprintf("churn epoch %d", epoch), before, rt)
		resolved += len(before.paths)
		masses := make([]float64, next.N())
		for u := range masses {
			masses[u] = float64(next.Degree(u) + 1)
		}
		spec := WorkloadSpec{LoadFactor: 0.5, Epochs: 4}
		warmRep, err := Simulate(next, masses, spec, rng.New(7), 2, WithFlowTrace(), WithRouting(rt))
		if err != nil {
			t.Fatalf("epoch %d warm: %v", epoch, err)
		}
		coldRep, err := Simulate(next, masses, spec, rng.New(7), 2, WithFlowTrace())
		if err != nil {
			t.Fatalf("epoch %d cold: %v", epoch, err)
		}
		requireSameFlows(t, "churn", warmRep, coldRep)
		warm(next)
		prev = next
	}
	if resolved == 0 {
		t.Fatal("no memoized pair was re-resolved after a churn refresh")
	}
	t.Logf("pairs re-resolved across churn refreshes: %d", resolved)
}

// FuzzRoutingRefresh decodes bytes into a multi-epoch mutation script
// — the first byte sizes the initial node set, then (op, a, b) triples
// add nodes, insert or remove edges, or close epochs, as in
// FuzzCoreMap — and runs it through Refreeze. Before every epoch a few
// origins are cached under a small tree budget (so some are evicted)
// and memoize paths; after it, refreshes at 1 and 4 workers must agree,
// every cached tree must equal buildTree, the memo must be empty, and
// every pair it held must resolve again to a cold walk
// (requireRefreshed). Plain `go test` runs the seeds;
// explore further with
//
//	go test ./internal/traffic -run '^$' -fuzz FuzzRoutingRefresh
func FuzzRoutingRefresh(f *testing.F) {
	// FuzzCoreMap's seeds: cycle closure, then two mixed scripts.
	cycle := []byte{12}
	for u := byte(1); u < 12; u++ {
		cycle = append(cycle, 1, u-1, u)
	}
	cycle = append(cycle, 3, 0, 0, 1, 0, 11)
	f.Add(cycle)
	f.Add([]byte{4, 1, 0, 1, 1, 1, 2, 1, 2, 0, 3, 0, 0, 0, 0, 0, 1, 4, 0, 1, 4, 1, 1, 4, 2, 3, 0, 0, 2, 0, 1, 3, 0, 0})
	f.Add([]byte{6, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 2, 1, 1, 3, 1, 2, 3, 3, 0, 0, 1, 4, 5, 1, 4, 0, 2, 2, 3, 1, 5, 1, 3, 0, 0})
	// A path 0-1-2 whose tail loses its parent arc in the epoch that
	// attaches it to a new node: the orphan's only neighbor is new.
	f.Add([]byte{3, 1, 0, 1, 1, 1, 2, 3, 0, 0, 2, 1, 2, 0, 0, 0, 1, 2, 3, 3, 0, 0})
	// A star 0-{1,2,3} with a tail 3-4 whose hub 0 loses every arc in
	// one epoch, cutting the map into three components.
	f.Add([]byte{5, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 3, 4, 3, 0, 0, 2, 0, 1, 2, 0, 2, 2, 0, 3, 3, 0, 0})
	// A ring 0-1-2-3-4 whose arc 0-1 is removed in one epoch and
	// re-inserted in the next: distances grow, then shrink back.
	f.Add([]byte{5, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0, 3, 0, 0, 2, 0, 1, 3, 0, 0, 1, 0, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if len(script) > 1+3*600 {
			script = script[:1+3*600]
		}
		g := graph.New(int(script[0] % 16))
		prev := g.Freeze()
		rt := NewRouting(prev)
		epochs := 0
		epoch := func() {
			if n := prev.N(); n > 0 {
				rt.max = 6
				var srcs []int
				for k := 0; k < 4; k++ {
					srcs = append(srcs, (5*epochs+7*k)%n)
				}
				slices.Sort(srcs)
				srcs = slices.Compact(srcs)
				rt.Ensure(srcs, 1)
				for _, src := range srcs {
					for j := 0; j < 4; j++ {
						if dst := (src + 3*j + 1) % n; dst != src {
							path, ok := rt.treePath(src, dst)
							rt.storePath(src, dst, path, ok)
						}
					}
				}
			}
			epochs++
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("epoch %d n=%d", epochs, next.N())
			before, alt := cloneRouting(rt), cloneRouting(rt)
			rt.Refresh(next, d, 4)
			alt.Refresh(next, d, 1)
			requireRoutingEqual(t, tag, rt, alt)
			for src, dist := range rt.trees {
				if !slices.Equal(dist, buildTree(next, src)) {
					t.Fatalf("%s: tree %d diverged from buildTree", tag, src)
				}
			}
			requireRefreshed(t, tag, before, rt)
			prev = next
		}
		for i := 1; i+2 < len(script); i += 3 {
			op, a, b := script[i]%4, int(script[i+1]), int(script[i+2])
			switch {
			case op == 3:
				epoch()
			case op == 0:
				g.AddNode()
			case g.N() == 0:
			case op == 1:
				if u, v := a%g.N(), b%g.N(); u != v {
					g.MustAddEdge(u, v)
				}
			default:
				if u, v := a%g.N(), b%g.N(); g.HasEdge(u, v) {
					if err := g.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		epoch()
	})
}

// TestRepairTreeBudgetFallback forces every row repair over budget (one
// row scan), so RelaxDelta rolls the row back and repairTree rebuilds it
// cold, which must still land exactly on the canonical tree — under
// growth epochs and under a removal epoch alike.
func TestRepairTreeBudgetFallback(t *testing.T) {
	top, err := gen.BA{N: 200, M: 2}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var tree []int32
	replayGrowth(t, top, 60, func(_, next *graph.Snapshot, d *graph.Delta) {
		if tree == nil {
			tree = buildTree(next, 0)
			return
		}
		tree = repairTree(next, tree, 0, d.Edges(), metrics.NewDistScratch(next.N()), 1)
		if want := buildTree(next, 0); !slices.Equal(tree, want) {
			t.Fatal("budget-fallback tree diverged from cold build")
		}
	})
	g := meshGraph(30)
	prev := g.Freeze()
	tree = buildTree(prev, 0)
	for _, e := range [][2]int{{0, 1}, {0, 7}} {
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("expected a removal delta, got %v, %v", d, err)
	}
	if got := repairTree(next, tree, 0, d.Edges(), metrics.NewDistScratch(next.N()), 1); !slices.Equal(got, buildTree(next, 0)) {
		t.Fatal("budget-fallback tree diverged from cold build after removals")
	}
}

// TestRepairTreeRemovalRule runs Routing.Refresh over the removal shapes
// that decide whether distances grow, on small maps with every node's
// tree cached: every refreshed row must equal buildTree over the
// refreshed snapshot. canonical states whether the first removed arc was
// its deeper endpoint's canonical parent arc (from source 0) before the
// removal; the last two cases leave that endpoint with no neighbor one
// hop closer, so its distance grows.
func TestRepairTreeRemovalRule(t *testing.T) {
	square := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	for _, tc := range []struct {
		name          string
		edges, remove [][2]int
		canonical     bool
	}{
		{"not the canonical parent", square, [][2]int{{2, 3}}, false},
		{"canonical parent, closer neighbor left", square, [][2]int{{1, 3}}, true},
		{"last closer neighbor", [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 4}}, [][2]int{{1, 2}}, true},
		{"every closer neighbor at once", square, [][2]int{{1, 3}, {2, 3}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(5)
			for _, e := range tc.edges {
				g.MustAddEdge(e[0], e[1])
			}
			prev := g.Freeze()
			row := buildTree(prev, 0)
			u, v := tc.remove[0][0], tc.remove[0][1]
			_, _, nbr := prev.CSR()
			if arc := selectParent(prev, row, v); (arc >= 0 && int(nbr[arc]) == u) != tc.canonical {
				t.Fatalf("arc %d-%d: canonical parent arc %d, want canonical=%v", u, v, arc, tc.canonical)
			}
			rt := NewRouting(prev)
			rt.Ensure([]int{0, 1, 2, 3, 4}, 1)
			for _, e := range tc.remove {
				if err := g.RemoveEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			next, d, err := g.Refreeze(prev)
			if err != nil || d == nil {
				t.Fatalf("expected a removal delta, got %v, %v", d, err)
			}
			rt.Refresh(next, d, 1)
			for src := 0; src < next.N(); src++ {
				if got, want := rt.trees[src], buildTree(next, src); !slices.Equal(got, want) {
					t.Fatalf("source %d: refreshed row %v, cold build %v", src, got, want)
				}
			}
		})
	}
}

// TestSimulateRejectsStaleRouting pins the guard: a shared routing
// state describing an older snapshot is an error, not silent staleness.
func TestSimulateRejectsStaleRouting(t *testing.T) {
	g := meshGraph(30)
	prev := g.Freeze()
	rt := NewRouting(prev)
	g.MustAddEdge(0, 15)
	next, _, err := g.Refreeze(prev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(next, uniformMasses(30), WorkloadSpec{LoadFactor: 0.1, Epochs: 2},
		rng.New(1), 1, WithRouting(rt)); err == nil {
		t.Fatal("expected the stale-routing guard to fire")
	}
}

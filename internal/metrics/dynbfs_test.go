package metrics

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// distMapWorkers is the worker-count matrix of the determinism
// requirement: every refreshed map must match the cold build bit for
// bit at each of these widths.
var distMapWorkers = []int{1, 2, 4, 8}

// requireDistMapEqual compares a refreshed map against the cold
// reference field by field: rows, sources, and every maintained
// aggregate. Bit-identity, not tolerance — the repair contract.
func requireDistMapEqual(t *testing.T, label string, got, want *DistMap) {
	t.Helper()
	if got.exact != want.exact {
		t.Fatalf("%s: exact flag %v vs %v", label, got.exact, want.exact)
	}
	if !reflect.DeepEqual(got.sources, want.sources) {
		t.Fatalf("%s: sources diverged", label)
	}
	for i := range got.sources {
		if !slices.Equal(got.Dist(i), want.Dist(i)) {
			t.Fatalf("%s: row %d (source %d) diverged", label, i, got.sources[i])
		}
	}
	requireBlockPadding(t, label, got)
	if !reflect.DeepEqual(got.reach, want.reach) || !reflect.DeepEqual(got.sumd, want.sumd) {
		t.Fatalf("%s: reach/sumd aggregates diverged", label)
	}
	if got.hist.Sum != want.hist.Sum || got.hist.Total != want.hist.Total {
		t.Fatalf("%s: histogram sums diverged", label)
	}
	for d := 0; d < len(got.hist.Counts) || d < len(want.hist.Counts); d++ {
		var g, w int64
		if d < len(got.hist.Counts) {
			g = got.hist.Counts[d]
		}
		if d < len(want.hist.Counts) {
			w = want.hist.Counts[d]
		}
		if g != w {
			t.Fatalf("%s: histogram count at d=%d: %d vs %d", label, d, g, w)
		}
	}
}

// requireBlockPadding checks the block layout's invariants: one block
// per 64 sources, pages covering every node, and -1 in every entry past
// the last node and in every lane past a block's last source.
func requireBlockPadding(t *testing.T, label string, dm *DistMap) {
	t.Helper()
	n, k := dm.s.N(), len(dm.sources)
	if want := (k + msbfsLanes - 1) / msbfsLanes; len(dm.blocks) != want {
		t.Fatalf("%s: %d blocks for %d sources, want %d", label, len(dm.blocks), k, want)
	}
	for b := range dm.blocks {
		blk := &dm.blocks[b]
		if len(blk.pages)*distPageNodes < n {
			t.Fatalf("%s: block %d pages cover %d of %d nodes", label, b, len(blk.pages)*distPageNodes, n)
		}
		lanes := len(dm.blockSources(b))
		for v := range len(blk.pages) * distPageNodes {
			for l, d := range blk.at(int32(v)) {
				if (v >= n || l >= lanes) && d != -1 {
					t.Fatalf("%s: block %d padding entry (node %d, lane %d) = %d, want -1", label, b, v, l, d)
				}
			}
		}
	}
}

// TestDistMapRefreshMatchesCold pins the tentpole equivalence: along
// every family × seed trajectory, a DistMap refreshed epoch over epoch
// is bit-identical to a cold NewDistMap over the same snapshot — rows,
// aggregates, and every derived metric — at every worker count, and
// the derived metrics reproduce the frozen references.
func TestDistMapRefreshMatchesCold(t *testing.T) {
	for _, fam := range trajectoryFamilies() {
		for seed := uint64(1); seed <= 2; seed++ {
			top, err := fam.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s/%d: %v", fam.name, seed, err)
			}
			var maps []*DistMap // one refreshed map per worker count
			replayEpochs(t, top, 41, func(prev, next *graph.Snapshot, d *graph.Delta, g *graph.Graph) {
				if maps == nil {
					for range distMapWorkers {
						maps = append(maps, NewDistMap(prev, nil, 1))
					}
				}
				cold := NewDistMap(next, nil, 1)
				for wi, w := range distMapWorkers {
					maps[wi].Refresh(next, d, w)
					requireDistMapEqual(t, fam.name, maps[wi], cold)
				}
				dm := maps[0]

				ps := RefreshPathLengths(dm)
				want, err := PathLengthsFrozen(next, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ps, want) {
					t.Fatalf("%s/%d n=%d: path stats diverged: %+v vs %+v",
						fam.name, seed, next.N(), ps, want)
				}
				if clo := RefreshCloseness(dm); !reflect.DeepEqual(clo, closenessFrozen(next)) {
					t.Fatalf("%s/%d n=%d: closeness diverged", fam.name, seed, next.N())
				}
			})
		}
	}
}

// TestDistMapBudgetFallback forces every repair over budget (one row
// scan) so each epoch exercises the rebuild path, which must land on
// exactly the cold result too.
func TestDistMapBudgetFallback(t *testing.T) {
	top, err := gen.BA{N: 200, M: 2}.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var dm *DistMap
	replayEpochs(t, top, 29, func(prev, next *graph.Snapshot, d *graph.Delta, g *graph.Graph) {
		if dm == nil {
			dm = NewDistMap(prev, nil, 1)
			dm.maxScan = 1
		}
		dm.Refresh(next, d, 2)
		requireDistMapEqual(t, "budget-fallback", dm, NewDistMap(next, nil, 1))
	})
}

// TestRelaxDeltaOverrunRollsBack walks RelaxDelta's budget up from one
// row scan on a mixed delta (a removal that cuts a path's tail off, an
// insertion that re-attaches it deeper), so the overrun lands in each
// phase in turn, the removal phase's in-repair markers included: every
// overrun must hand the row back exactly as it came in, and the first
// budget that suffices must give the cold row.
func TestRelaxDeltaOverrunRollsBack(t *testing.T) {
	g := path(10)
	prev := g.Freeze()
	if err := g.RemoveEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(2, 8)
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v, %v", d, err)
	}
	in := bfsFrozen(prev, 0)
	sc := NewDistScratch(next.N())
	for budget := 1; ; budget++ {
		dist := slices.Clone(in)
		changes, ok := RelaxDelta(next, d.Edges(), dist, sc, budget)
		if ok {
			if want := bfsFrozen(next, 0); !slices.Equal(dist, want) {
				t.Fatalf("budget %d: repaired row %v, cold row %v", budget, dist, want)
			}
			if budget < 10 {
				t.Fatalf("repair fit a budget of %d row scans; the test no longer reaches every phase", budget)
			}
			return
		}
		if changes != nil || !slices.Equal(dist, in) {
			t.Fatalf("budget %d: overrun left row %v (changes %v), input %v", budget, dist, changes, in)
		}
	}
}

// TestDistMapDisconnected runs the repair over a graph with several
// components and isolated nodes: unreachable entries stay -1, and an
// inserted bridge that merges components repairs exactly.
func TestDistMapDisconnected(t *testing.T) {
	g := graph.New(14) // two paths 0..4 and 5..9, isolated 10..13
	for u := 1; u < 5; u++ {
		g.MustAddEdge(u-1, u)
	}
	for u := 6; u < 10; u++ {
		g.MustAddEdge(u-1, u)
	}
	prev := g.Freeze()
	dm := NewDistMap(prev, nil, 1)
	if row := dm.Dist(0); row[7] != -1 || row[12] != -1 {
		t.Fatal("expected unreachable entries in the seed snapshot")
	}
	// Bridge the paths, attach one isolated node, leave the rest isolated.
	g.MustAddEdge(4, 5)
	g.MustAddEdge(10, 0)
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	dm.Refresh(next, d, 2)
	requireDistMapEqual(t, "disconnected", dm, NewDistMap(next, nil, 1))
	row := dm.Dist(0)
	if row[9] != 9 {
		t.Fatalf("bridged distance 0→9 = %d, want 9", row[9])
	}
	if row[12] != -1 {
		t.Fatal("still-isolated node became reachable")
	}
	if clo := RefreshCloseness(dm); clo[12] != 0 {
		t.Fatalf("isolated node closeness %g, want 0", clo[12])
	}
}

// TestDistMapSampledRefresh pins the pivot mode: a sampled map
// refreshed along a trajectory matches the cold sampled build over the
// same pivots, and its estimators match the frozen sampled references.
func TestDistMapSampledRefresh(t *testing.T) {
	top, err := gen.GLP{N: 300, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var dm *DistMap
	replayEpochs(t, top, 53, func(prev, next *graph.Snapshot, d *graph.Delta, g *graph.Graph) {
		if dm == nil {
			// The pivot draw needs nodes, so the map starts cold on the
			// first observed epoch and refreshes from the second on.
			dm = NewDistMap(next, PivotSources(rng.New(11), next.N(), 24), 2)
			if dm.exact || dm.SourceCount() != 24 {
				t.Fatalf("sampled map: exact=%v k=%d", dm.exact, dm.SourceCount())
			}
			return
		}
		dm.Refresh(next, d, 4)
		cold := NewDistMap(next, dm.Sources(), 1)
		requireDistMapEqual(t, "sampled", dm, cold)
	})
}

// TestPivotSources pins the selection contract shared with the frozen
// samplers: the exact-mode markers and the Perm prefix.
func TestPivotSources(t *testing.T) {
	if PivotSources(rng.New(1), 10, 0) != nil || PivotSources(rng.New(1), 10, 10) != nil {
		t.Fatal("exact-mode marker must be nil")
	}
	got := PivotSources(rng.New(9), 50, 8)
	perm := rng.New(9).Perm(50)
	for i, v := range got {
		if int(v) != perm[i] {
			t.Fatalf("pivot %d = %d, want Perm prefix %d", i, v, perm[i])
		}
	}
}

// FuzzDistMapRefresh runs the mutation scripts of FuzzCoreMap through
// DistMap.Refresh. After every epoch, maps refreshed at 1 and 4 workers
// must equal a cold NewDistMap over the same sources — rows,
// aggregates, RefreshPathLengths and RefreshCloseness — in exact mode,
// in sampled mode (half the nodes) and, once the graph has more than 65
// nodes, in wide sampled mode (all nodes but one: more than 64 pivots,
// so a full block, split into two lane ranges at 4 workers, and a
// partial one); exact mode must also reproduce the frozen path and
// closeness references. The high nibble of the first byte, when
// non-zero, caps the repair budget at that many row scans per lane, so
// most repairs take the rebuild fallback. The last seed grows a path to
// 80 nodes, then mixes removals, insertions and a new node per epoch.
func FuzzDistMapRefresh(f *testing.F) {
	wide := []byte{1}
	for u := byte(1); u < 80; u++ {
		wide = append(wide, 0, 0, 0, 1, u-1, u)
	}
	wide = append(wide, 3, 0, 0,
		2, 40, 41, 1, 0, 79, 2, 10, 11, 0, 0, 0, 1, 80, 5, 3, 0, 0,
		1, 20, 60, 2, 0, 79, 2, 70, 71, 3, 0, 0)
	for _, seed := range append(mutationScriptSeeds(), wide) {
		f.Add(seed)
		tight := append([]byte(nil), seed...)
		tight[0] |= 3 << 4
		f.Add(tight)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		maxScan := int(script[0] >> 4)
		workers := []int{1, 4}
		var exact, sampled, wideMaps []*DistMap
		newMaps := func(s *graph.Snapshot, sources []int32) []*DistMap {
			maps := make([]*DistMap, len(workers))
			for i := range maps {
				maps[i] = NewDistMap(s, sources, 1)
				maps[i].maxScan = maxScan
			}
			return maps
		}
		check := func(tag string, maps []*DistMap, next *graph.Snapshot, d *graph.Delta, cold *DistMap) {
			ps, clo := RefreshPathLengths(cold), RefreshCloseness(cold)
			for i, w := range workers {
				maps[i].Refresh(next, d, w)
				label := fmt.Sprintf("%s workers=%d", tag, w)
				requireDistMapEqual(t, label, maps[i], cold)
				if got := RefreshPathLengths(maps[i]); !reflect.DeepEqual(got, ps) {
					t.Fatalf("%s: path stats %+v, cold %+v", label, got, ps)
				}
				if got := RefreshCloseness(maps[i]); !reflect.DeepEqual(got, clo) {
					t.Fatalf("%s: closeness %v, cold %v", label, got, clo)
				}
			}
		}
		replayMutationScript(t, script, func(s *graph.Snapshot) { exact = newMaps(s, nil) },
			func(tag string, _ *graph.Graph, next *graph.Snapshot, d *graph.Delta) {
				cold := NewDistMap(next, nil, 1)
				check(tag+" exact", exact, next, d, cold)
				if next.N() > 0 { // the frozen references reject empty graphs
					want, err := PathLengthsFrozen(next, nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got := RefreshPathLengths(cold); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: exact path stats %+v, frozen %+v", tag, got, want)
					}
					if got := RefreshCloseness(cold); !reflect.DeepEqual(got, closenessFrozen(next)) {
						t.Fatalf("%s: exact closeness diverged from ClosenessFrozen", tag)
					}
				}
				if sampled == nil {
					// Pivots need two nodes, so the sampled maps start
					// cold on the first epoch that has them.
					if pivots := PivotSources(rng.New(uint64(len(script))), next.N(), next.N()/2); pivots != nil {
						sampled = newMaps(next, pivots)
					}
				} else {
					check(tag+" sampled", sampled, next, d, NewDistMap(next, sampled[0].Sources(), 1))
				}
				if wideMaps == nil {
					if next.N() > msbfsLanes+1 {
						wideMaps = newMaps(next, PivotSources(rng.New(uint64(len(script))), next.N(), next.N()-1))
					}
				} else {
					check(tag+" wide", wideMaps, next, d, NewDistMap(next, wideMaps[0].Sources(), 1))
				}
			})
	})
}

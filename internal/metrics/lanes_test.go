package metrics

import (
	"fmt"
	"slices"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// requireLanesMatch checks every lane of dm against rows, one per
// source, plus the block padding.
func requireLanesMatch(t *testing.T, label string, dm *DistMap, rows [][]int32) {
	t.Helper()
	for i, row := range rows {
		if !slices.Equal(dm.Dist(i), row) {
			t.Fatalf("%s: lane %d of block %d (source %d) diverged", label, i%msbfsLanes, i/msbfsLanes, dm.sources[i])
		}
	}
	requireBlockPadding(t, label, dm)
}

// bfsRows runs BFSFrozen from every source over s.
func bfsRows(s *graph.Snapshot, sources []int32) [][]int32 {
	rows := make([][]int32, len(sources))
	queue := make([]int32, s.N())
	for i, src := range sources {
		rows[i] = make([]int32, s.N())
		BFSFrozen(s, int(src), rows[i], queue)
	}
	return rows
}

// TestDistMapLanesMatchBFS pins the block layout lane by lane: along
// GLP and BA growth trajectories that cross page boundaries and a GLP
// churn trajectory whose every delta removes and inserts edges, every
// lane of a map refreshed at 1, 2 and 4 workers equals its row repaired
// by RelaxDelta, the per-row repair that is the lane kernel's oracle,
// and BFSFrozen from its source, with 16 pivots (a partial block), 64
// (one full block, split into lane ranges above one worker), 100 (a
// full and a partial block) and in exact mode.
func TestDistMapLanesMatchBFS(t *testing.T) {
	workers := []int{1, 2, 4}
	sc := NewDistScratch(0)
	run := func(name string, pivotCounts []int, replay func(check func(prev, next *graph.Snapshot, d *graph.Delta))) {
		maps := map[int][]*DistMap{}
		replay(func(prev, next *graph.Snapshot, d *graph.Delta) {
			for _, k := range pivotCounts {
				label := fmt.Sprintf("%s pivots=%d n=%d", name, k, next.N())
				if maps[k] == nil {
					var srcs []int32
					if k > 0 {
						if srcs = PivotSources(rng.New(5), prev.N(), k); srcs == nil {
							continue // too few nodes to sample yet
						}
					}
					for _, w := range workers {
						maps[k] = append(maps[k], NewDistMap(prev, srcs, w))
					}
					want := bfsRows(prev, maps[k][0].sources)
					for wi, w := range workers {
						requireLanesMatch(t, fmt.Sprintf("%s workers=%d cold", label, w), maps[k][wi], want)
					}
				}
				rows := make([][]int32, len(maps[k][0].sources))
				for i := range rows {
					rows[i] = append(maps[k][0].Dist(i), slices.Repeat([]int32{-1}, next.N()-prev.N())...)
					if _, ok := RelaxDelta(next, d.Edges(), rows[i], sc, 0); !ok {
						rows[i] = nil // overrun: the BFS rows below stand in
					}
				}
				want := bfsRows(next, maps[k][0].sources)
				for i := range rows {
					if rows[i] != nil && !slices.Equal(rows[i], want[i]) {
						t.Fatalf("%s: RelaxDelta row %d diverged from BFSFrozen", label, i)
					}
				}
				for wi, w := range workers {
					maps[k][wi].Refresh(next, d, w)
					requireLanesMatch(t, fmt.Sprintf("%s workers=%d", label, w), maps[k][wi], want)
				}
			}
		})
	}
	growth := func(g gen.Generator, every int) func(func(prev, next *graph.Snapshot, d *graph.Delta)) {
		return func(check func(prev, next *graph.Snapshot, d *graph.Delta)) {
			top, err := g.Generate(rng.New(2))
			if err != nil {
				t.Fatal(err)
			}
			replayEpochs(t, top, every, func(prev, next *graph.Snapshot, d *graph.Delta, _ *graph.Graph) {
				check(prev, next, d)
			})
		}
	}
	run("glp", []int{16, 64, 100}, growth(gen.GLP{N: 2600, M: 1, P: 0.45, Beta: 0.64}, 300))
	run("ba", []int{0, 16, 64, 100}, growth(gen.BA{N: 1100, M: 2}, 550))
	top, err := gen.GLP{N: 1100, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	run("glp-churn", []int{0, 16, 64, 100}, func(check func(prev, next *graph.Snapshot, d *graph.Delta)) {
		replayChurn(t, top.G, 3, 4, check)
	})
}

// TestDistMapTaskRollback forces one lane range over its budget while
// the other repairs: two 1000-node paths, the first block half's 32
// sources on one, the other half's on the other. The delta closes the
// first path into a ring and cuts it in the middle, a repair touching
// hundreds of entries per lane, and attaches a new node to the second
// path, a handful of row scans. At two workers the block splits into
// those two lane ranges; with a per-lane budget of 4 row scans the first
// task must roll back and rebuild its lanes by MS-BFS and the second
// must keep its repair, and the map, aggregates included, must equal a
// cold build.
func TestDistMapTaskRollback(t *testing.T) {
	g := graph.New(2000)
	for u := 1; u < 2000; u++ {
		if u != 1000 {
			g.MustAddEdge(u-1, u)
		}
	}
	srcs := make([]int32, msbfsLanes)
	for i := range srcs {
		srcs[i] = int32(i%32*31 + i/32*1000)
	}
	prev := g.Freeze()
	g.MustAddEdge(0, 999)
	if err := g.RemoveEdge(500, 501); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(g.AddNode(), 1999)
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v, %v", d, err)
	}
	dm := NewDistMap(prev, srcs, 2)
	dm.maxScan = 4
	dm.Refresh(next, d, 2)
	if len(dm.tasks) != 2 || !dm.tasks[0].rebuilt || dm.tasks[1].rebuilt {
		t.Fatalf("want the ring half rebuilt and the other half repaired, got tasks %+v", dm.tasks)
	}
	requireLanesMatch(t, "rollback", dm, bfsRows(next, srcs))
	requireDistMapEqual(t, "rollback", dm, NewDistMap(next, srcs, 1))
}

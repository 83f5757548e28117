package graph_test

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// assertSameTopology checks a snapshot against a cold freeze of the
// same graph state: counts, every degree and the sorted edge list with
// multiplicities.
func assertSameTopology(t *testing.T, tag string, got, want *graph.Snapshot) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.TotalStrength() != want.TotalStrength() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: (n %d, m %d, strength %d, kmax %d), want (%d, %d, %d, %d)", tag,
			got.N(), got.M(), got.TotalStrength(), got.MaxDegree(), want.N(), want.M(), want.TotalStrength(), want.MaxDegree())
	}
	for u := 0; u < want.N(); u++ {
		if got.Degree(u) != want.Degree(u) {
			t.Fatalf("%s: node %d degree %d, want %d", tag, u, got.Degree(u), want.Degree(u))
		}
	}
	if !slices.Equal(got.EdgeList(), want.EdgeList()) {
		t.Fatalf("%s: edge lists differ", tag)
	}
}

// mustPanic fails unless read panics.
func mustPanic(t *testing.T, tag string, read func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: read of a retired snapshot did not panic", tag)
		}
	}()
	read()
}

// retireTally counts how often a refresh reused storage of a retired
// snapshot, by backing-array identity; an arena counts only when the
// refresh moved off its base's.
type retireTally struct {
	arcs, nodes         map[*int32]bool // backings of retired snapshots
	arcReuse, nodeReuse int
}

// retiringObserver returns a trajectory callback that refreezes every
// epoch and, as core.TrajectoryObserver does, retires the snapshot two
// epochs back once the new one exists. After each step the two live
// snapshots must equal cold freezes taken at their epochs, and every
// read of the retired one, or of the delta refreshed off it, must
// panic.
func retiringObserver(t *testing.T, tally *retireTally) func(g *graph.Graph, n int) error {
	type epoch struct {
		snap, cold *graph.Snapshot
		d          *graph.Delta // the refresh off snap, once made
	}
	var live []*epoch // oldest first, at most three
	return func(g *graph.Graph, n int) error {
		var base *graph.Snapshot
		if len(live) > 0 {
			base = live[len(live)-1].snap
		}
		next, d, err := g.Refreeze(base)
		if err != nil {
			return err
		}
		if base != nil {
			if d == nil {
				t.Fatalf("epoch at %d nodes: full freeze, want a delta refresh", n)
			}
			live[len(live)-1].d = d
			offsets, _, nbrs := next.CSR()
			_, _, baseNbrs := base.CSR()
			moved := unsafe.SliceData(nbrs) != unsafe.SliceData(baseNbrs)
			if moved && tally.arcs[unsafe.SliceData(nbrs)] {
				tally.arcReuse++
			}
			if tally.nodes[unsafe.SliceData(offsets)] {
				tally.nodeReuse++
			}
		}
		live = append(live, &epoch{snap: next, cold: g.Copy().Freeze()})
		if len(live) == 3 {
			old := live[0]
			live = live[1:]
			offsets, _, nbrs := old.snap.CSR()
			tally.arcs[unsafe.SliceData(nbrs)] = true
			tally.nodes[unsafe.SliceData(offsets)] = true
			old.snap.Retire()
			old.snap.Retire() // a second retirement is a no-op
			tag := fmt.Sprintf("retired at %d nodes", n)
			mustPanic(t, tag+": N", func() { old.snap.N() })
			mustPanic(t, tag+": Neighbors", func() { old.snap.Neighbors(0) })
			mustPanic(t, tag+": Degree", func() { old.snap.Degree(0) })
			mustPanic(t, tag+": HasEdge", func() { old.snap.HasEdge(0, 1) })
			mustPanic(t, tag+": delta", func() { old.d.Edges() })
		}
		for i, e := range live {
			assertSameTopology(t, fmt.Sprintf("epoch at %d nodes, live snapshot %d", n, i), e.snap, e.cold)
		}
		return nil
	}
}

// TestRetireGrowthTrajectory: along GLP growth (pure appends and
// relocations, compactions and doublings), retiring two epochs back
// must leave the two live snapshots intact while the refreshes reuse
// retired per-node arrays and arc arenas.
func TestRetireGrowthTrajectory(t *testing.T) {
	tally := &retireTally{arcs: map[*int32]bool{}, nodes: map[*int32]bool{}}
	_, err := gen.GLP{N: 20000, M: 1, P: 0.45, Beta: 0.64}.GenerateTrajectory(rng.New(3), 1,
		gen.Trajectory{Every: 200, Observe: retiringObserver(t, tally)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reused %d retired arenas and %d retired node arrays", tally.arcReuse, tally.nodeReuse)
	if tally.arcReuse == 0 || tally.nodeReuse < 50 {
		t.Fatalf("reused %d arenas and %d node arrays in 99 refreshes, want some and at least 50", tally.arcReuse, tally.nodeReuse)
	}
}

// TestRetireChurnTrajectory: the same contract on churn — removals,
// reinsertions and multiplicity bumps on a generated map, so rows
// shrink and relocate and dead space drives compactions.
func TestRetireChurnTrajectory(t *testing.T) {
	top, err := gen.GLP{N: 3000, M: 1, P: 0.45, Beta: 0.64}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G
	r := rng.New(11)
	tally := &retireTally{arcs: map[*int32]bool{}, nodes: map[*int32]bool{}}
	observe := retiringObserver(t, tally)
	for epoch := 0; epoch < 120; epoch++ {
		if epoch > 0 {
			edges := g.EdgeList()
			for i := 0; i < 40; i++ {
				e := edges[r.Intn(len(edges))]
				if g.HasEdge(e.U, e.V) {
					if err := g.RemoveEdge(e.U, e.V); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 45; i++ {
				if u, v := r.Intn(g.N()), r.Intn(g.N()); u != v {
					g.MustAddEdge(u, v)
				}
			}
			if epoch%4 == 3 {
				u := g.AddNode()
				g.MustAddEdge(u, r.Intn(u))
			}
		}
		if err := observe(g, g.N()); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("reused %d retired arenas and %d retired node arrays", tally.arcReuse, tally.nodeReuse)
	if tally.arcReuse == 0 || tally.nodeReuse == 0 {
		t.Fatalf("reused %d arenas and %d node arrays, want both", tally.arcReuse, tally.nodeReuse)
	}
}

// TestNeverRetiredSnapshotsKeepNoPool: a lineage nobody retires
// allocates per-node arrays of exactly its node count, as before
// retirement existed.
func TestNeverRetiredSnapshotsKeepNoPool(t *testing.T) {
	var prev *graph.Snapshot
	_, err := gen.GLP{N: 4000, M: 1, P: 0.45, Beta: 0.64}.GenerateTrajectory(rng.New(2), 1, gen.Trajectory{
		Every: 400,
		Observe: func(g *graph.Graph, n int) error {
			next, _, err := g.Refreeze(prev)
			if err != nil {
				return err
			}
			if offsets, ends, _ := next.CSR(); cap(offsets) != n+1 || (prev != nil && cap(ends) != n) {
				t.Fatalf("epoch at %d nodes: offsets cap %d, ends cap %d", n, cap(offsets), cap(ends))
			}
			prev = next
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

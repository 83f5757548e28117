package graph

import (
	"testing"
	"unsafe"

	"netmodel/internal/rng"
)

// assertSnapshotsEqual verifies two snapshots describe the same
// topology — same counts, same sorted rows, same weights — regardless
// of their physical layout (tight vs slack/relocated arenas).
func assertSnapshotsEqual(t *testing.T, tag string, got, want *Snapshot) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.TotalStrength() != want.TotalStrength() {
		t.Fatalf("%s: size (%d,%d,%d) vs (%d,%d,%d)", tag,
			got.N(), got.M(), got.TotalStrength(), want.N(), want.M(), want.TotalStrength())
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: max degree %d vs %d", tag, got.MaxDegree(), want.MaxDegree())
	}
	for u := 0; u < want.N(); u++ {
		gn, wn := got.Neighbors(u), want.Neighbors(u)
		gw, ww := got.Weights(u), want.Weights(u)
		if len(gn) != len(wn) {
			t.Fatalf("%s: row %d length %d vs %d", tag, u, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] || gw[i] != ww[i] {
				t.Fatalf("%s: row %d arc %d: (%d,%d) vs (%d,%d)", tag, u, i, gn[i], gw[i], wn[i], ww[i])
			}
		}
	}
}

// mutateEpoch applies one epoch of random growth to g: a few new nodes,
// edges biased toward fresh ids (the growth-model pattern that exercises
// the pure-append fast path), plus interleaving edges, multiplicity
// bumps and occasional removals (the relocation and merge paths).
func mutateEpoch(t *testing.T, g *Graph, r *rng.Rand, newNodes, newEdges int) {
	t.Helper()
	for i := 0; i < newNodes; i++ {
		g.AddNode()
	}
	for i := 0; i < newEdges; i++ {
		n := g.N()
		u := r.Intn(n)
		v := r.Intn(n)
		if r.Float64() < 0.5 {
			// Growth-style: one endpoint among the most recent arrivals.
			u = n - 1 - r.Intn(newNodes+1)
		}
		if u == v {
			continue
		}
		switch x := r.Float64(); {
		case x < 0.15 && g.HasEdge(u, v):
			if err := g.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		case x < 0.3 && g.HasEdge(u, v):
			g.MustAddEdge(u, v) // multiplicity bump
		default:
			g.MustAddEdge(u, v)
		}
	}
}

// TestRefreshMatchesFreezeTrajectory is the core equivalence property:
// along a randomized growth trajectory, every refreshed snapshot must
// be logically identical to a from-scratch freeze of the same graph
// state, and earlier snapshots in the lineage must stay intact while
// later refreshes extend the shared arena.
func TestRefreshMatchesFreezeTrajectory(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		g := New(4)
		g.MustAddEdge(0, 1)
		g.MustAddEdge(1, 2)
		prev := g.Freeze()

		type epochPair struct{ refreshed, fresh *Snapshot }
		var chain []epochPair
		lastVersion := prev.Version()
		for epoch := 0; epoch < 25; epoch++ {
			mutateEpoch(t, g, r, 3+r.Intn(5), 8+r.Intn(12))
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			if d == nil {
				t.Fatalf("seed %d epoch %d: expected a delta refresh, got full freeze", seed, epoch)
			}
			if next.Version() <= lastVersion {
				t.Fatalf("seed %d epoch %d: version %d not after %d", seed, epoch, next.Version(), lastVersion)
			}
			lastVersion = next.Version()
			fresh := g.Copy().Freeze()
			assertSnapshotsEqual(t, "epoch", next, fresh)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			chain = append(chain, epochPair{next, fresh})
			prev = next
		}
		// Immutability: every snapshot in the lineage must still match
		// the tight freeze taken at its epoch, despite all the slack
		// appends and relocations that happened afterwards.
		for i, p := range chain {
			assertSnapshotsEqual(t, "lineage", p.refreshed, p.fresh)
			_ = i
		}
	}
}

// TestRefreshRemovalOnly covers shrink-only deltas, including rows
// emptied entirely and the max-degree recount.
func TestRefreshRemovalOnly(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {3, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	base := g.Freeze()
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}} {
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	next, d, err := g.Refreeze(base)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("expected delta refresh")
	}
	if ins, rem := d.Counts(); ins != 0 || rem != 4 {
		t.Fatalf("counts = (%d,%d), want (0,4)", ins, rem)
	}
	assertSnapshotsEqual(t, "removal", next, g.Copy().Freeze())
	if next.MaxDegree() != 1 {
		t.Fatalf("max degree %d after hub removal, want 1", next.MaxDegree())
	}
	if base.Degree(0) != 4 {
		t.Fatal("base snapshot mutated by refresh")
	}
}

// TestRefreshTwiceFromSameBase pins the arena-claim rule: a second
// refresh off the same base cannot extend the shared arena in place and
// must fall back to the compacting copy, leaving both results and the
// base correct. The two branches are separate lineages: after either
// one retires the other still matches, and storage the second branch
// retires never feeds the first branch's later refreshes.
func TestRefreshTwiceFromSameBase(t *testing.T) {
	for _, retire := range []string{"none", "first", "second"} {
		r := rng.New(9)
		g := New(5)
		g.MustAddEdge(0, 1)
		base := g.Freeze()
		mutateEpoch(t, g, r, 4, 12)
		first, d, err := g.Refreeze(base)
		if err != nil || d == nil {
			t.Fatalf("refreeze: %v (delta %v)", err, d)
		}
		second, err := base.Refresh(d)
		if err != nil {
			t.Fatalf("second refresh: %v", err)
		}
		if second.arena.lin == first.arena.lin {
			t.Fatal("second refresh off the same base continued the first's lineage")
		}
		fresh := g.Copy().Freeze()
		switch retire {
		case "first":
			first.Retire()
			assertSnapshotsEqual(t, "second after first retired", second, fresh)
		case "second":
			retired := map[*int32]bool{
				unsafe.SliceData(second.offsets): true, unsafe.SliceData(second.ends): true,
				unsafe.SliceData(second.caps): true, unsafe.SliceData(second.neighbors): true,
			}
			second.Retire()
			assertSnapshotsEqual(t, "first after second retired", first, fresh)
			// The first branch keeps growing and retiring; none of its
			// refreshes may land on the second branch's storage.
			prev, older := first, base
			for epoch := 0; epoch < 30; epoch++ {
				mutateEpoch(t, g, r, 3, 10)
				next, _, err := g.Refreeze(prev)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range [][]int32{next.offsets, next.ends, next.caps, next.neighbors} {
					if retired[unsafe.SliceData(p)] {
						t.Fatalf("epoch %d: the first branch reused the second branch's storage", epoch)
					}
				}
				older.Retire()
				assertSnapshotsEqual(t, "first branch", next, g.Copy().Freeze())
				prev, older = next, prev
			}
		default:
			assertSnapshotsEqual(t, "first", first, fresh)
			assertSnapshotsEqual(t, "second", second, fresh)
		}
		if retire != "second" && (base.N() != 5 || base.M() != 1) {
			t.Fatal("base snapshot mutated")
		}
	}
}

// TestRefreshCompaction drives a long removal-heavy trajectory so
// relocation garbage outgrows the live rows and the compaction path
// runs — seen as a new arena backing that is shorter than the old one,
// which doubling never yields; correctness is pinned against fresh
// freezes throughout.
func TestRefreshCompaction(t *testing.T) {
	r := rng.New(17)
	g := New(40)
	for i := 0; i < 400; i++ {
		u, v := r.Intn(40), r.Intn(40)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	prev := g.Freeze()
	compactions := 0
	for epoch := 0; epoch < 60; epoch++ {
		// Heavy churn: remove and re-add so rows relocate repeatedly.
		for i := 0; i < 60; i++ {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if u == v {
				continue
			}
			if g.HasEdge(u, v) && r.Float64() < 0.5 {
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			} else {
				g.MustAddEdge(u, v)
			}
		}
		next, _, err := g.Refreeze(prev)
		if err != nil {
			t.Fatal(err)
		}
		assertSnapshotsEqual(t, "churn", next, g.Copy().Freeze())
		_, _, before := prev.CSR()
		_, _, after := next.CSR()
		if unsafe.SliceData(before) != unsafe.SliceData(after) && len(after) < len(before) {
			compactions++
		}
		prev = next
	}
	if compactions == 0 {
		t.Fatal("no refresh compacted the arena")
	}
}

// TestRefreezeFallsBackToFullFreeze covers the degraded paths: nil
// base, a foreign snapshot, and a lost (overflowing) log all yield a
// correct full freeze with a nil delta.
func TestRefreezeFallsBackToFullFreeze(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)

	s, d, err := g.Refreeze(nil)
	if err != nil || d != nil {
		t.Fatalf("nil base: snapshot err %v, delta %v", err, d)
	}
	assertSnapshotsEqual(t, "nil base", s, g.Copy().Freeze())

	foreign := New(4).Freeze()
	g.MustAddEdge(1, 2)
	s2, d2, err := g.Refreeze(foreign)
	if err != nil || d2 != nil {
		t.Fatalf("foreign base: err %v, delta %v", err, d2)
	}
	assertSnapshotsEqual(t, "foreign base", s2, g.Copy().Freeze())

	// Overflow the log: far more touches than 2m+4096 on a tiny graph.
	base := g.Freeze()
	for i := 0; i < 6000; i++ {
		g.MustAddEdge(2, 3)
		if err := g.RemoveEdge(2, 3); err != nil {
			t.Fatal(err)
		}
	}
	g.MustAddEdge(0, 3)
	s3, d3, err := g.Refreeze(base)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != nil {
		t.Fatal("lost log must fall back to a full freeze")
	}
	assertSnapshotsEqual(t, "lost log", s3, g.Copy().Freeze())
}

// TestRefreshErrors pins the validation surface of the public Refresh.
func TestRefreshErrors(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	s := g.Freeze()
	if _, err := s.Refresh(nil); err == nil {
		t.Fatal("nil delta must error")
	}
	if _, err := s.Refresh(&Delta{baseVersion: s.Version() + 999, baseN: 3, n: 3}); err == nil {
		t.Fatal("version mismatch must error")
	}
	if _, err := s.Refresh(&Delta{baseVersion: s.Version(), baseN: 2, n: 3}); err == nil {
		t.Fatal("baseN mismatch must error")
	}
	if _, err := s.Refresh(&Delta{baseVersion: s.Version(), baseN: 3, n: 3,
		edges: []DeltaEdge{{U: 0, V: 1, OldW: 5, NewW: 6}}}); err == nil {
		t.Fatal("stale old weight must error")
	}
	if _, err := s.Refresh(&Delta{baseVersion: s.Version(), baseN: 3, n: 3,
		edges: []DeltaEdge{{U: 1, V: 0, OldW: 0, NewW: 1}}}); err == nil {
		t.Fatal("unordered endpoints must error")
	}
}

// TestFreezeCheckedMatchesFreeze: the checked variant is the same build
// with the panic turned into an error.
func TestFreezeCheckedMatchesFreeze(t *testing.T) {
	g := randomMultigraph(t, 23, 30, 80)
	s, err := g.FreezeChecked()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "checked", s, g.Copy().Freeze())
}

// TestRefreshNodeOnlyDelta: epochs that only add isolated nodes still
// refresh correctly.
func TestRefreshNodeOnlyDelta(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	base := g.Freeze()
	g.AddNode()
	g.AddNode()
	next, d, err := g.Refreeze(base)
	if err != nil || d == nil {
		t.Fatalf("err %v delta %v", err, d)
	}
	if len(d.Edges()) != 0 || d.N() != 4 || d.baseN != 2 {
		t.Fatalf("delta %+v malformed", d)
	}
	assertSnapshotsEqual(t, "node-only", next, g.Copy().Freeze())
	if next.Degree(3) != 0 {
		t.Fatal("isolated new node must have empty row")
	}
}

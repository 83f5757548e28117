package graph

import (
	"fmt"
	"slices"
	"testing"

	"netmodel/internal/rng"
)

// mapGraph is the reference mutable multigraph: one neighbor ->
// multiplicity map per node, every counter recomputed from the maps.
// It is the oracle the row-backed Graph is checked against, and the
// home of the traversals (components, induced subgraphs) that only
// tests need on a mutable graph.
type mapGraph struct {
	adj      []map[int]int
	m        int
	strength int
}

func newMapGraph(n int) *mapGraph {
	o := &mapGraph{}
	for i := 0; i < n; i++ {
		o.AddNode()
	}
	return o
}

// searchArcEdgeIDs is the arc→edge fill FillArcEdgeIDs replaced: each
// arc (u, v) with v < u finds its reverse arc by binary search in row
// v and copies that arc's id. It is the oracle of the cursor fill.
func searchArcEdgeIDs(s *Snapshot) []int32 {
	buf := make([]int32, s.ArcSpace())
	next := int32(0)
	for u := 0; u < s.N(); u++ {
		lo, hi := s.ArcRange(u)
		for a := lo; a < hi; a++ {
			if v := int(s.neighbors[a]); v > u {
				buf[a] = next
				next++
			} else {
				buf[a] = buf[s.arcOf(v, u)]
			}
		}
	}
	return buf
}

// assertArcEdgeIDs checks FillArcEdgeIDs into the reused buffers against
// the search-based oracle on every live arc (entries outside live rows
// are meaningless) and returns the buffers for the next call.
func assertArcEdgeIDs(t *testing.T, tag string, s *Snapshot, buf, cursor []int32) ([]int32, []int32) {
	t.Helper()
	buf, cursor = s.FillArcEdgeIDs(buf, cursor)
	want := searchArcEdgeIDs(s)
	for u := 0; u < s.N(); u++ {
		lo, hi := s.ArcRange(u)
		if !slices.Equal(buf[lo:hi], want[lo:hi]) {
			t.Fatalf("%s: row %d edge ids %v, search fill %v", tag, u, buf[lo:hi], want[lo:hi])
		}
	}
	return buf, cursor
}

// NeighborList returns the neighbors of u sorted ascending.
func (g *Graph) NeighborList(u int) []int {
	out := make([]int, len(g.rows[u]))
	for i, a := range g.rows[u] {
		out[i] = int(a.v)
	}
	return out
}

// oracleOf rebuilds g's topology as a mapGraph.
func oracleOf(g *Graph) *mapGraph {
	o := newMapGraph(g.N())
	for _, e := range g.EdgeList() {
		o.adj[e.U][e.V] = e.W
		o.adj[e.V][e.U] = e.W
		o.m++
		o.strength += e.W
	}
	return o
}

func (o *mapGraph) N() int             { return len(o.adj) }
func (o *mapGraph) M() int             { return o.m }
func (o *mapGraph) TotalStrength() int { return o.strength }
func (o *mapGraph) Degree(u int) int   { return len(o.adj[u]) }
func (o *mapGraph) valid(u int) bool   { return u >= 0 && u < len(o.adj) }

func (o *mapGraph) AddNode() int {
	o.adj = append(o.adj, map[int]int{})
	return len(o.adj) - 1
}

func (o *mapGraph) AddEdge(u, v int) (bool, error) {
	if !o.valid(u) || !o.valid(v) || u == v {
		return false, fmt.Errorf("bad edge (%d,%d)", u, v)
	}
	_, existed := o.adj[u][v]
	o.adj[u][v]++
	o.adj[v][u]++
	o.strength++
	if !existed {
		o.m++
	}
	return !existed, nil
}

func (o *mapGraph) RemoveEdge(u, v int) error {
	if !o.valid(u) || !o.valid(v) || o.adj[u][v] == 0 {
		return fmt.Errorf("no edge (%d,%d)", u, v)
	}
	o.adj[u][v]--
	o.adj[v][u]--
	o.strength--
	if o.adj[u][v] == 0 {
		delete(o.adj[u], v)
		delete(o.adj[v], u)
		o.m--
	}
	return nil
}

func (o *mapGraph) EdgeWeight(u, v int) int {
	if !o.valid(u) || !o.valid(v) {
		return 0
	}
	return o.adj[u][v]
}

func (o *mapGraph) Strength(u int) int {
	s := 0
	for _, w := range o.adj[u] {
		s += w
	}
	return s
}

// sortedRow returns u's neighbors ascending with their multiplicities:
// the row a Freeze of the same topology must produce.
func (o *mapGraph) sortedRow(u int) (nb, wt []int32) {
	for v := range o.adj[u] {
		nb = append(nb, int32(v))
	}
	slices.Sort(nb)
	for _, v := range nb {
		wt = append(wt, int32(o.adj[u][int(v)]))
	}
	return nb, wt
}

// EdgeList returns the simple edges sorted by (U,V).
func (o *mapGraph) EdgeList() []Edge {
	var out []Edge
	for u := range o.adj {
		nb, wt := o.sortedRow(u)
		for i, v := range nb {
			if int(v) > u {
				out = append(out, Edge{U: u, V: int(v), W: int(wt[i])})
			}
		}
	}
	return out
}

// assertMatchesOracle checks every per-node and global observable of g
// against the oracle, plus the rows of a cold Freeze of a copy.
func assertMatchesOracle(t *testing.T, tag string, g *Graph, o *mapGraph) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if g.N() != o.N() || g.M() != o.M() || g.TotalStrength() != o.TotalStrength() {
		t.Fatalf("%s: (N,M,B) = (%d,%d,%d), oracle (%d,%d,%d)", tag,
			g.N(), g.M(), g.TotalStrength(), o.N(), o.M(), o.TotalStrength())
	}
	s := g.Copy().Freeze()
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != o.Degree(u) || g.Strength(u) != o.Strength(u) {
			t.Fatalf("%s: node %d degree/strength %d/%d, oracle %d/%d", tag, u,
				g.Degree(u), g.Strength(u), o.Degree(u), o.Strength(u))
		}
		nb, wt := o.sortedRow(u)
		if !slices.Equal(s.Neighbors(u), nb) || !slices.Equal(s.Weights(u), wt) {
			t.Fatalf("%s: frozen row %d = %v/%v, oracle %v/%v", tag, u, s.Neighbors(u), s.Weights(u), nb, wt)
		}
	}
}

// runScript applies a byte-encoded mutation script to a Graph and the
// map oracle in lockstep. The first byte sets the initial node count
// (mod 8); each following (op, a, b) triple is one step on nodes a and
// b reduced mod N+1, so out-of-range ids are exercised too:
//
//	op%8 0     AddNode
//	op%8 1..3  AddEdge(a, b)
//	op%8 4..6  RemoveEdge(a, b)
//	op%8 7     checkpoint: Refreeze(base) must equal a cold
//	           Copy().FreezeChecked(), and every node must match the oracle;
//	           with op&8 set, refresh instead off the a-th kept snapshot
//	           (mod their count), usually not the lineage tip, which must
//	           equal the same cold freeze
//
// After every step the touched pair's observables must agree, and so
// must the two graphs' verdicts (created, error or not). Every
// refreshed snapshot is kept with the cold freeze of its epoch, and at
// the end each must still equal it: later refreshes writing into row
// slack or arena capacity must never show through an older snapshot.
// Each Refreeze checkpoint retires the Refreeze result from two
// checkpoints back, as the trajectory observer does, and drops it from
// the kept set, so retired storage feeds the following refreshes
// without ever showing through a kept snapshot.
func runScript(t *testing.T, script []byte) {
	t.Helper()
	if len(script) == 0 {
		return
	}
	g, o := New(int(script[0]%8)), newMapGraph(int(script[0]%8))
	base := g.Freeze()
	type epoch struct{ snap, cold *Snapshot }
	kept := []epoch{{base, g.Copy().Freeze()}}
	tips := []*Snapshot{base} // Refreeze results, oldest first; retired two back
	var ids, cursor []int32
	script = script[1:]
	for step := 0; step+3 <= len(script); step += 3 {
		op := script[step] % 8
		a := int(script[step+1]) % (g.N() + 1)
		b := int(script[step+2]) % (g.N() + 1)
		tag := fmt.Sprintf("step %d op %d (%d,%d)", step/3, op, a, b)
		switch {
		case op == 0:
			if g.AddNode() != o.AddNode() {
				t.Fatalf("%s: AddNode ids differ", tag)
			}
		case op <= 3:
			gc, gerr := g.AddEdge(a, b)
			oc, oerr := o.AddEdge(a, b)
			if gc != oc || (gerr == nil) != (oerr == nil) {
				t.Fatalf("%s: AddEdge = (%v,%v), oracle (%v,%v)", tag, gc, gerr, oc, oerr)
			}
		case op <= 6:
			gerr, oerr := g.RemoveEdge(a, b), o.RemoveEdge(a, b)
			if (gerr == nil) != (oerr == nil) {
				t.Fatalf("%s: RemoveEdge = %v, oracle %v", tag, gerr, oerr)
			}
		case script[step]&8 != 0:
			old := kept[a%len(kept)].snap
			next, err := old.Refresh(deltaFrom(old, g))
			if err != nil {
				t.Fatalf("%s: Refresh off v%d: %v", tag, old.Version(), err)
			}
			cold := g.Copy().Freeze()
			assertSnapshotsEqual(t, tag, next, cold)
			ids, cursor = assertArcEdgeIDs(t, tag, next, ids, cursor)
			kept = append(kept, epoch{next, cold})
		default:
			next, _, err := g.Refreeze(base)
			if err != nil {
				t.Fatalf("%s: Refreeze: %v", tag, err)
			}
			cold, err := g.Copy().FreezeChecked()
			if err != nil {
				t.Fatalf("%s: cold freeze: %v", tag, err)
			}
			assertSnapshotsEqual(t, tag, next, cold)
			assertMatchesOracle(t, tag, g, o)
			ids, cursor = assertArcEdgeIDs(t, tag, next, ids, cursor)
			kept = append(kept, epoch{next, cold})
			base = next
			if tips = append(tips, next); len(tips) == 3 {
				old := tips[0]
				tips = tips[1:]
				kept = slices.DeleteFunc(kept, func(e epoch) bool { return e.snap == old })
				old.Retire()
			}
		}
		if g.HasEdge(a, b) != (o.EdgeWeight(a, b) > 0) || g.EdgeWeight(a, b) != o.EdgeWeight(a, b) {
			t.Fatalf("%s: edge weight %d, oracle %d", tag, g.EdgeWeight(a, b), o.EdgeWeight(a, b))
		}
		if g.M() != o.M() || g.TotalStrength() != o.TotalStrength() {
			t.Fatalf("%s: M/B %d/%d, oracle %d/%d", tag, g.M(), g.TotalStrength(), o.M(), o.TotalStrength())
		}
	}
	assertMatchesOracle(t, "end", g, o)
	for i, e := range kept {
		assertSnapshotsEqual(t, fmt.Sprintf("kept snapshot %d", i), e.snap, e.cold)
	}
}

// deltaFrom diffs g's current topology against the snapshot s: the
// delta a refresh of s needs to reach g, whether or not s is the
// snapshot g's mutation log extends.
func deltaFrom(s *Snapshot, g *Graph) *Delta {
	d := &Delta{baseVersion: s.Version(), baseN: s.N(), n: g.N()}
	was, now := s.EdgeList(), g.EdgeList()
	for len(was) > 0 || len(now) > 0 {
		var e DeltaEdge
		switch {
		case len(now) == 0 || (len(was) > 0 && (was[0].U < now[0].U || was[0].U == now[0].U && was[0].V < now[0].V)):
			e = DeltaEdge{U: int32(was[0].U), V: int32(was[0].V), OldW: int32(was[0].W)}
			was = was[1:]
		case len(was) == 0 || was[0].U != now[0].U || was[0].V != now[0].V:
			e = DeltaEdge{U: int32(now[0].U), V: int32(now[0].V), NewW: int32(now[0].W)}
			now = now[1:]
		default:
			e = DeltaEdge{U: int32(now[0].U), V: int32(now[0].V), OldW: int32(was[0].W), NewW: int32(now[0].W)}
			was, now = was[1:], now[1:]
		}
		if e.OldW != e.NewW {
			d.edges = append(d.edges, e)
		}
	}
	return d
}

// TestGraphMatchesMapOracle drives random insert/remove scripts, biased
// toward a small node set so edges are reinforced, thinned and removed
// often, against the map oracle.
func TestGraphMatchesMapOracle(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		script := make([]byte, 1+3*(50+r.Intn(400)))
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		// Fewer AddNode steps keep rows long enough to reuse neighbors.
		for i := 1; i+3 <= len(script); i += 3 {
			if script[i]%8 == 0 && r.Float64() < 0.7 {
				script[i]++
			}
			script[i+1] %= 24
			script[i+2] %= 24
		}
		runScript(t, script)
	}
}

// FuzzGraphMutations: any byte script keeps the row-backed graph in
// lockstep with the map oracle, every refresh (Refreeze of the tip or
// a second refresh off an older snapshot) equals a cold freeze, and
// every refreshed snapshot still equals its epoch's freeze at the end.
func FuzzGraphMutations(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 1, 1, 2, 7, 0, 0, 4, 0, 1, 7, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 2, 1, 0, 5, 0, 1, 7, 1, 1, 6, 1, 0})
	f.Add([]byte{7, 1, 2, 3, 1, 3, 2, 1, 2, 4, 7, 9, 9, 4, 3, 2, 4, 2, 3, 7, 0, 0, 0, 5, 5})
	// Refresh off a superseded snapshot: it must not append into the
	// row slack the tip refresh already filled.
	f.Add([]byte{3, 1, 0, 1, 1, 0, 2, 7, 0, 0, 1, 1, 2, 7, 0, 0, 1, 1, 2, 15, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*2000 {
			script = script[:3*2000]
		}
		runScript(t, script)
	})
}

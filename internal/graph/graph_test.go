package graph

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"netmodel/internal/rng"
)

func mustEdge(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if _, err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 || g.AvgDegree() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph has non-zero counters")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	created, err := g.AddEdge(0, 1)
	if err != nil || !created {
		t.Fatalf("first AddEdge: created=%v err=%v", created, err)
	}
	created, err = g.AddEdge(1, 0)
	if err != nil || created {
		t.Fatalf("reinforcing AddEdge should not create: created=%v err=%v", created, err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.EdgeWeight(0, 1) != 2 || g.EdgeWeight(1, 0) != 2 {
		t.Fatalf("multiplicity = %d, want 2", g.EdgeWeight(0, 1))
	}
	if g.TotalStrength() != 2 {
		t.Fatalf("TotalStrength = %d, want 2", g.TotalStrength())
	}
	if g.Degree(0) != 1 || g.Strength(0) != 2 {
		t.Fatalf("degree/strength = %d/%d, want 1/2", g.Degree(0), g.Strength(0))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop should fail")
	}
	if _, err := g.AddEdge(0, 2); err == nil {
		t.Fatal("out-of-range should fail")
	}
	if _, err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative index should fail")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(2)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 1)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.EdgeWeight(0, 1) != 1 {
		t.Fatal("removing one unit should keep the simple edge")
	}
	if err := g.RemoveEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Fatal("edge should be gone")
	}
	if err := g.RemoveEdge(0, 1); err == nil {
		t.Fatal("removing absent edge should fail")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNode(t *testing.T) {
	g := New(1)
	id := g.AddNode()
	if id != 1 || g.N() != 2 {
		t.Fatalf("AddNode returned %d, N=%d", id, g.N())
	}
	mustEdge(t, g, 0, 1)
	if g.Degree(1) != 1 {
		t.Fatal("new node unusable")
	}
}

func TestNeighborListSorted(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 2, 4)
	mustEdge(t, g, 2, 0)
	mustEdge(t, g, 2, 3)
	nl := g.NeighborList(2)
	want := []int{0, 3, 4}
	if len(nl) != 3 {
		t.Fatalf("NeighborList = %v", nl)
	}
	for i := range want {
		if nl[i] != want[i] {
			t.Fatalf("NeighborList = %v, want %v", nl, want)
		}
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 0, 3)
	count := 0
	g.Neighbors(0, func(v, w int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d neighbors", count)
	}
}

func TestEdgeListDeterministicSorted(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 3, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 0)
	el := g.EdgeList()
	if len(el) != 3 {
		t.Fatalf("EdgeList length %d", len(el))
	}
	for i := 1; i < len(el); i++ {
		if el[i-1].U > el[i].U || (el[i-1].U == el[i].U && el[i-1].V >= el[i].V) {
			t.Fatalf("EdgeList unsorted: %v", el)
		}
	}
	for _, e := range el {
		if e.U >= e.V {
			t.Fatalf("edge not normalized: %+v", e)
		}
	}
}

func TestDegreeSequenceAndAvg(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	ds := g.DegreeSequence()
	want := []int{1, 2, 2, 1}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("DegreeSequence = %v", ds)
		}
	}
	if g.AvgDegree() != 1.5 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %v", g.MaxDegree())
	}
}

func TestCopyIndependent(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	c := g.Copy()
	mustEdge(t, c, 1, 2)
	if g.M() != 1 || c.M() != 2 {
		t.Fatal("copy is not independent")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	r := rng.New(99)
	prop := func(seed uint32) bool {
		r.Seed(uint64(seed))
		g := New(10)
		type pair struct{ u, v int }
		var present []pair
		for op := 0; op < 200; op++ {
			u, v := r.Intn(10), r.Intn(10)
			if r.Float64() < 0.7 {
				if u != v {
					g.MustAddEdge(u, v)
					present = append(present, pair{u, v})
				}
			} else if len(present) > 0 {
				i := r.Intn(len(present))
				p := present[i]
				if err := g.RemoveEdge(p.u, p.v); err != nil {
					return false
				}
				present = append(present[:i], present[i+1:]...)
			}
		}
		return g.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeLemma(t *testing.T) {
	r := rng.New(7)
	g := New(50)
	for i := 0; i < 200; i++ {
		u, v := r.Intn(50), r.Intn(50)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	sumDeg, sumStr := 0, 0
	for u := 0; u < g.N(); u++ {
		sumDeg += g.Degree(u)
		sumStr += g.Strength(u)
	}
	if sumDeg != 2*g.M() {
		t.Fatalf("sum of degrees %d != 2M %d", sumDeg, 2*g.M())
	}
	if sumStr != 2*g.TotalStrength() {
		t.Fatalf("sum of strengths %d != 2B %d", sumStr, 2*g.TotalStrength())
	}
}

// TestNodeEnvelope: New, AddNode and Reserve refuse node counts beyond
// the int32 id envelope with a one-line panic raised before anything is
// allocated.
func TestNodeEnvelope(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		var msg any
		// AllocsPerRun averages over its runs, so a stray runtime
		// allocation during one run cannot fake a failure.
		allocs := testing.AllocsPerRun(10, func() {
			defer func() { msg = recover() }()
			f()
		})
		s, ok := msg.(string)
		if !ok || strings.Contains(s, "\n") {
			t.Fatalf("%s: want a one-line panic message, got %v", name, msg)
		}
		if allocs != 0 {
			t.Fatalf("%s: panicked after allocating %v objects", name, allocs)
		}
	}
	panics("New", func() { New(math.MaxInt32 + 1) })
	g := New(0)
	panics("Reserve", func() { g.Reserve(math.MaxInt32 + 1) })
	// AddNode checks the count it would reach; a graph at the limit
	// cannot be built in a test, so pin the bound it checks against.
	panics("AddNode bound", func() { checkNodes(math.MaxInt32 + 1) })
	checkNodes(math.MaxInt32)
}

// TestMultiplicityEnvelope: AddEdge and Build refuse a multiplicity past
// MaxInt32 with an error and leave the graph unchanged.
func TestMultiplicityEnvelope(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 1)
	// Saturate (0,1) without 2^31 calls.
	g.rows[0][0].w, g.rows[1][0].w = math.MaxInt32, math.MaxInt32
	g.str[0], g.str[1] = math.MaxInt32, math.MaxInt32+1
	g.strength = math.MaxInt32 + 1
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Fatal("AddEdge past MaxInt32 must error")
	}
	if g.EdgeWeight(0, 1) != math.MaxInt32 || g.Strength(1) != math.MaxInt32+1 {
		t.Fatal("failed AddEdge changed the graph")
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(2, []Edge{{U: 0, V: 1, W: math.MaxInt32 + 1}}, 1); err == nil {
		t.Fatal("Build must reject a multiplicity past MaxInt32")
	}
	for _, workers := range []int{1, 2} {
		edges := []Edge{{U: 0, V: 1, W: math.MaxInt32}}
		for i := 0; i < 100; i++ {
			edges = append(edges, Edge{U: 1, V: 0, W: 1})
		}
		if _, err := Build(2, edges, workers); err == nil {
			t.Fatalf("workers=%d: Build must reject an accumulated multiplicity past MaxInt32", workers)
		}
	}
}

// TestMemEstimateMatchesHeap: MemEstimate of a 100k-node preferential
// attachment graph stays within 10% of the heap it actually retains.
func TestMemEstimateMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 100k-node graph")
	}
	const n, m = 100_000, 3
	r := rng.New(5)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := New(m + 1)
	ends := make([]int32, 0, 2*m*n) // endpoint list: uniform draws are degree-proportional
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.MustAddEdge(u, v)
			ends = append(ends, int32(u), int32(v))
		}
	}
	for u := m + 1; u < n; u++ {
		g.AddNode()
		for k := 0; k < m; k++ {
			v := int(ends[r.Intn(len(ends))])
			if v != u && g.MustAddEdge(u, v) {
				ends = append(ends, int32(u), int32(v))
			}
		}
	}
	ends = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	est := float64(g.MemEstimate())
	t.Logf("MemEstimate %.0f bytes, retained heap %.0f bytes", est, heap)
	if math.Abs(est-heap) > 0.1*heap {
		t.Fatalf("MemEstimate %.0f bytes, retained heap %.0f bytes", est, heap)
	}
	runtime.KeepAlive(g)
}

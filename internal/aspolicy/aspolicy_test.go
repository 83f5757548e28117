package aspolicy

import (
	"testing"

	"netmodel/internal/graph"
)

// hierarchy builds a 3-tier test topology:
//
//	    0 ——— 1        tier 1 (peers)
//	   / \     \
//	  2   3     4      tier 2 (customers of tier 1); 2—3 peer
//	 / \   \   / \
//	5   6   7 8   9    tier 3 (customers of tier 2)
func hierarchy(t *testing.T) *Annotated {
	t.Helper()
	g := graph.New(10)
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 3},
		{2, 5}, {2, 6}, {3, 7}, {4, 8}, {4, 9}}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	a := NewAnnotated(g)
	set := func(u, v int, r Rel) {
		t.Helper()
		if err := a.SetRel(u, v, r); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 1, Peer)
	set(2, 3, Peer)
	set(0, 2, P2C)
	set(0, 3, P2C)
	set(1, 4, P2C)
	set(2, 5, P2C)
	set(2, 6, P2C)
	set(3, 7, P2C)
	set(4, 8, P2C)
	set(4, 9, P2C)
	return a
}

func TestRelSymmetry(t *testing.T) {
	a := hierarchy(t)
	if a.RelOf(0, 2) != P2C {
		t.Fatalf("RelOf(0,2) = %v, want p2c", a.RelOf(0, 2))
	}
	if a.RelOf(2, 0) != C2P {
		t.Fatalf("RelOf(2,0) = %v, want c2p", a.RelOf(2, 0))
	}
	if a.RelOf(0, 1) != Peer || a.RelOf(1, 0) != Peer {
		t.Fatal("peer must be symmetric")
	}
	if a.RelOf(5, 9) != 0 {
		t.Fatal("non-edge must be unannotated")
	}
}

func TestSetRelRequiresEdge(t *testing.T) {
	a := NewAnnotated(graph.New(3))
	if err := a.SetRel(0, 1, Peer); err == nil {
		t.Fatal("SetRel on missing edge should fail")
	}
}

func TestSetRelReversedOrder(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	a := NewAnnotated(g)
	if err := a.SetRel(1, 0, P2C); err != nil { // 1 is provider of 0
		t.Fatal(err)
	}
	if a.RelOf(1, 0) != P2C || a.RelOf(0, 1) != C2P {
		t.Fatal("reversed SetRel stored wrong relationship")
	}
}

func TestCompleteAndCounts(t *testing.T) {
	a := hierarchy(t)
	if !a.Complete() {
		t.Fatal("hierarchy should be completely annotated")
	}
	p2c, peer := a.Counts()
	if p2c != 8 || peer != 2 {
		t.Fatalf("counts = %d p2c, %d peer; want 8, 2", p2c, peer)
	}
	// Remove an annotation.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	if NewAnnotated(g).Complete() {
		t.Fatal("unannotated edge must make Complete false")
	}
}

func TestProvidersCustomersTier1(t *testing.T) {
	a := hierarchy(t)
	prov := a.Providers(5)
	if len(prov) != 1 || prov[0] != 2 {
		t.Fatalf("Providers(5) = %v, want [2]", prov)
	}
	cust := a.Customers(2)
	if len(cust) != 2 || cust[0] != 5 || cust[1] != 6 {
		t.Fatalf("Customers(2) = %v, want [5 6]", cust)
	}
	t1 := a.Tier1s()
	if len(t1) != 2 || t1[0] != 0 || t1[1] != 1 {
		t.Fatalf("Tier1s = %v, want [0 1]", t1)
	}
}

func TestAnnotateByDegree(t *testing.T) {
	// Star: hub is provider of all leaves.
	g := graph.New(5)
	for i := 1; i < 5; i++ {
		g.MustAddEdge(0, i)
	}
	a, err := AnnotateByDegree(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if a.RelOf(0, i) != P2C {
			t.Fatalf("hub must be provider of %d, got %v", i, a.RelOf(0, i))
		}
	}
	if !a.Complete() {
		t.Fatal("degree annotation must be complete")
	}
}

func TestAnnotateByDegreePeersEqualDegrees(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	a, err := AnnotateByDegree(g, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.RelOf(0, 1) != Peer {
		t.Fatal("equal degrees must peer")
	}
}

func TestAnnotateByDegreeValidation(t *testing.T) {
	if _, err := AnnotateByDegree(graph.New(2), 0.5); err == nil {
		t.Fatal("peerRatio < 1 should fail")
	}
}

package aspolicy

import (
	"sort"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

func TestCustomerConeHierarchy(t *testing.T) {
	a := hierarchy(t)
	cones := a.Freeze().CustomerCone()
	// Leaves: cone = 1.
	for _, leaf := range []int{5, 6, 7, 8, 9} {
		if cones[leaf] != 1 {
			t.Fatalf("leaf %d cone = %d, want 1", leaf, cones[leaf])
		}
	}
	// Node 2: customers 5,6 -> cone 3. Node 4: customers 8,9 -> cone 3.
	if cones[2] != 3 || cones[4] != 3 {
		t.Fatalf("tier-2 cones = %d,%d, want 3,3", cones[2], cones[4])
	}
	// Node 3: customer 7 -> cone 2.
	if cones[3] != 2 {
		t.Fatalf("cone(3) = %d, want 2", cones[3])
	}
	// Node 0: customers 2,3 -> {0,2,3,5,6,7} = 6. Node 1: customer 4 -> {1,4,8,9} = 4.
	if cones[0] != 6 || cones[1] != 4 {
		t.Fatalf("tier-1 cones = %d,%d, want 6,4", cones[0], cones[1])
	}
}

func TestCustomerConeMultiHoming(t *testing.T) {
	// Diamond: 0 and 1 both provide to 2; 2 provides to 3. Cones must
	// not double count.
	g := newGraphWithEdges(4, [][2]int{{0, 2}, {1, 2}, {2, 3}})
	a := NewAnnotated(g)
	for _, e := range [][2]int{{0, 2}, {1, 2}, {2, 3}} {
		if err := a.SetRel(e[0], e[1], P2C); err != nil {
			t.Fatal(err)
		}
	}
	cones := a.Freeze().CustomerCone()
	want := []int{3, 3, 2, 1}
	for u := range want {
		if cones[u] != want[u] {
			t.Fatalf("cones = %v, want %v", cones, want)
		}
	}
}

func TestCustomerConeCycleTerminates(t *testing.T) {
	// Pathological provider cycle 0->1->2->0 (p2c each way around).
	g := newGraphWithEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	a := NewAnnotated(g)
	if err := a.SetRel(0, 1, P2C); err != nil {
		t.Fatal(err)
	}
	if err := a.SetRel(1, 2, P2C); err != nil {
		t.Fatal(err)
	}
	if err := a.SetRel(2, 0, P2C); err != nil {
		t.Fatal(err)
	}
	cones := a.Freeze().CustomerCone()
	for u, c := range cones {
		if c != 3 {
			t.Fatalf("cycle cone[%d] = %d, want 3 (whole cycle)", u, c)
		}
	}
}

func TestConesOnSyntheticMapHeavyTailed(t *testing.T) {
	top, err := gen.BA{N: 2000, M: 2, A: -1.2}.Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnnotateByDegree(top.G, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	cones := a.Freeze().CustomerCone()
	xs := make([]float64, len(cones))
	biggest := 0
	for i, c := range cones {
		xs[i] = float64(c)
		if c > biggest {
			biggest = c
		}
	}
	sort.Float64s(xs)
	med := stats.Quantile(xs, 0.5)
	if med > 2 {
		t.Fatalf("median cone %v — most ASs should be stubs", med)
	}
	if biggest < len(cones)/4 {
		t.Fatalf("largest cone %d of %d — tier-1 should cover a macroscopic share", biggest, len(cones))
	}
}

// newGraphWithEdges is a tiny test helper.
func newGraphWithEdges(n int, edges [][2]int) *graph.Graph {
	g := graph.New(n)
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

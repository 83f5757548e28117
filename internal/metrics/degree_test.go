package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

func TestDegreeDistributionStar(t *testing.T) {
	g := star(10)
	d := DegreeDistributionFrozen(g.Freeze())
	if math.Abs(d[9]-0.1) > 1e-12 {
		t.Fatalf("P(9) = %v, want 0.1", d[9])
	}
	if math.Abs(d[1]-0.9) > 1e-12 {
		t.Fatalf("P(1) = %v, want 0.9", d[1])
	}
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestDegreeCCDF(t *testing.T) {
	g := star(10)
	ks, pc := DegreeCCDFFrozen(g.Freeze())
	if len(ks) != 2 || ks[0] != 1 || ks[1] != 9 {
		t.Fatalf("ks = %v", ks)
	}
	if math.Abs(pc[0]-1) > 1e-12 {
		t.Fatalf("Pc(1) = %v, want 1", pc[0])
	}
	if math.Abs(pc[1]-0.1) > 1e-12 {
		t.Fatalf("Pc(9) = %v, want 0.1", pc[1])
	}
}

func TestKnnStar(t *testing.T) {
	g := star(5) // hub degree 4, leaves degree 1
	knn := KnnFrozen(g.Freeze())
	if math.Abs(knn[4]-1) > 1e-12 {
		t.Fatalf("knn(hub) = %v, want 1", knn[4])
	}
	if math.Abs(knn[1]-4) > 1e-12 {
		t.Fatalf("knn(leaf) = %v, want 4", knn[1])
	}
}

func TestKnnNormalizedUncorrelated(t *testing.T) {
	// On a large ER graph knn(k)·⟨k⟩/⟨k²⟩ should be ~1 for common k:
	// an uncorrelated network's spectrum is flat at ⟨k²⟩/⟨k⟩.
	s := randomGraph(rng.New(3), 2000, 0.005).Freeze()
	var k1, k2 float64
	for _, k := range DegreesAsFloatsFrozen(s) {
		k1 += k
		k2 += k * k
	}
	// check at the mode of the degree distribution (~np = 10)
	knn, ok := KnnFrozen(s)[10]
	if !ok {
		t.Skip("no nodes of degree 10")
	}
	if v := knn * k1 / k2; math.Abs(v-1) > 0.1 {
		t.Fatalf("normalized knn(10) = %v, want ~1", v)
	}
}

func TestAssortativityStar(t *testing.T) {
	// A star is maximally disassortative: every edge joins degree 1 to
	// degree n-1, giving zero variance at each end -> r defined as 0 by
	// our convention (degenerate), so use a double star instead.
	g := graph.New(6)
	g.MustAddEdge(0, 1) // two hubs joined
	for i := 2; i < 4; i++ {
		g.MustAddEdge(0, i)
	}
	for i := 4; i < 6; i++ {
		g.MustAddEdge(1, i)
	}
	r := AssortativityFrozen(g.Freeze())
	if r >= 0 {
		t.Fatalf("double star assortativity = %v, want negative", r)
	}
}

func TestAssortativityRegularIsDegenerate(t *testing.T) {
	if r := AssortativityFrozen(cycleGraph(10).Freeze()); r != 0 {
		t.Fatalf("cycle assortativity = %v, want 0 (degenerate)", r)
	}
}

func TestAssortativityBounds(t *testing.T) {
	g := randomGraph(rng.New(7), 500, 0.02)
	r := AssortativityFrozen(g.Freeze())
	if r < -1 || r > 1 {
		t.Fatalf("assortativity %v out of [-1,1]", r)
	}
	// ER graphs are uncorrelated.
	if math.Abs(r) > 0.1 {
		t.Fatalf("ER assortativity %v, want ~0", r)
	}
}

func TestDegreeStrengthPairs(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1) // multiplicity 2
	g.MustAddEdge(0, 2)
	ks, bs := DegreeStrengthPairs(g)
	if len(ks) != 3 {
		t.Fatalf("pairs for %d nodes, want 3", len(ks))
	}
	// node 0: k=2, b=3
	if ks[0] != 2 || bs[0] != 3 {
		t.Fatalf("node 0 (k,b) = (%v,%v), want (2,3)", ks[0], bs[0])
	}
}

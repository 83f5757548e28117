package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
)

func TestClosenessStar(t *testing.T) {
	g := star(5) // hub 0, leaves at distance 1 from hub, 2 from each other
	c := ClosenessFrozen(g.Freeze())
	if math.Abs(c[0]-1) > 1e-12 {
		t.Fatalf("hub closeness = %v, want 1", c[0])
	}
	// leaf: distances 1 + 2*3 = 7, reach 4: c = 4/7 * 4/4
	want := 4.0 / 7
	for u := 1; u < 5; u++ {
		if math.Abs(c[u]-want) > 1e-12 {
			t.Fatalf("leaf closeness = %v, want %v", c[u], want)
		}
	}
}

func TestClosenessDisconnectedPenalized(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	c := ClosenessFrozen(g.Freeze())
	// pair node: reach 1, sum 1 -> 1 * 1/3
	want := 1.0 / 3
	for u := range c {
		if math.Abs(c[u]-want) > 1e-12 {
			t.Fatalf("closeness[%d] = %v, want %v", u, c[u], want)
		}
	}
}

func TestHarmonicCloseness(t *testing.T) {
	g := path(3)
	h := HarmonicClosenessFrozen(g.Freeze())
	// middle: (1 + 1)/2 = 1; ends: (1 + 1/2)/2 = 0.75
	if math.Abs(h[1]-1) > 1e-12 || math.Abs(h[0]-0.75) > 1e-12 {
		t.Fatalf("harmonic = %v", h)
	}
	// isolated node contributes zero without dividing by zero
	if out := HarmonicClosenessFrozen(graph.New(1).Freeze()); out[0] != 0 {
		t.Fatal("single node should score 0")
	}
}

func TestClosenessOrderingMatchesCentrality(t *testing.T) {
	g := path(7)
	c := ClosenessFrozen(g.Freeze())
	if !(c[3] > c[1] && c[1] > c[0]) {
		t.Fatalf("path closeness ordering broken: %v", c)
	}
}

package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
)

// exactCloseness is the production closeness: the reach and
// distance-sum columns of an exact DistMap.
func exactCloseness(g *graph.Graph) []float64 {
	return RefreshCloseness(NewDistMap(g.Freeze(), nil, 2))
}

func TestClosenessStar(t *testing.T) {
	g := star(5) // hub 0, leaves at distance 1 from hub, 2 from each other
	c := exactCloseness(g)
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
	c := exactCloseness(g)
	// pair node: reach 1, sum 1 -> 1 * 1/3
	want := 1.0 / 3
	for u := range c {
		if math.Abs(c[u]-want) > 1e-12 {
			t.Fatalf("closeness[%d] = %v, want %v", u, c[u], want)
		}
	}
}

func TestClosenessOrderingMatchesCentrality(t *testing.T) {
	c := exactCloseness(path(7))
	if !(c[3] > c[1] && c[1] > c[0]) {
		t.Fatalf("path closeness ordering broken: %v", c)
	}
}

package metrics

import (
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bruteCycles counts simple cycles of length 3, 4, 5 by enumeration of
// vertex tuples. Only usable on tiny graphs.
func bruteCycles(g *graph.Graph) CycleCounts {
	n := g.N()
	var out CycleCounts
	// C3
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					out.C3++
				}
			}
		}
	}
	// C4: enumerate ordered 4-tuples forming a cycle, divide by 8.
	var c4 int64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if b == a || !g.HasEdge(a, b) {
				continue
			}
			for c := 0; c < n; c++ {
				if c == a || c == b || !g.HasEdge(b, c) {
					continue
				}
				for d := 0; d < n; d++ {
					if d == a || d == b || d == c || !g.HasEdge(c, d) || !g.HasEdge(d, a) {
						continue
					}
					c4++
				}
			}
		}
	}
	out.C4 = c4 / 8
	// C5: same with 5-tuples, divide by 10.
	var c5 int64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if b == a || !g.HasEdge(a, b) {
				continue
			}
			for c := 0; c < n; c++ {
				if c == a || c == b || !g.HasEdge(b, c) {
					continue
				}
				for d := 0; d < n; d++ {
					if d == a || d == b || d == c || !g.HasEdge(c, d) {
						continue
					}
					for e := 0; e < n; e++ {
						if e == a || e == b || e == c || e == d || !g.HasEdge(d, e) || !g.HasEdge(e, a) {
							continue
						}
						c5++
					}
				}
			}
		}
	}
	out.C5 = c5 / 10
	return out
}

func TestCountCyclesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want CycleCounts
	}{
		{"K4", complete(4), CycleCounts{C3: 4, C4: 3, C5: 0}},
		{"K5", complete(5), CycleCounts{C3: 10, C4: 15, C5: 12}},
		{"C5", cycleGraph(5), CycleCounts{C3: 0, C4: 0, C5: 1}},
		{"C4", cycleGraph(4), CycleCounts{C3: 0, C4: 1, C5: 0}},
		{"path", path(6), CycleCounts{}},
		{"star", star(8), CycleCounts{}},
	}
	for _, tc := range cases {
		if got := cyclesOf(tc.g.Freeze()); got != tc.want {
			t.Fatalf("%s: cycles = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestCountCyclesMatchesBruteForce(t *testing.T) {
	r := rng.New(37)
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 14, 0.3)
		got := cyclesOf(g.Freeze())
		want := bruteCycles(g)
		if got != want {
			t.Fatalf("trial %d: cycles = %+v, brute = %+v", trial, got, want)
		}
	}
}

func TestCountCyclesIgnoresMultiplicity(t *testing.T) {
	g := cycleGraph(5)
	g.MustAddEdge(0, 1) // double one edge
	got := cyclesOf(g.Freeze())
	if got.C5 != 1 || got.C3 != 0 || got.C4 != 0 {
		t.Fatalf("multiplicity changed cycle counts: %+v", got)
	}
}

func TestCountCyclesTinyGraphs(t *testing.T) {
	if got := cyclesOf(graph.New(0).Freeze()); got != (CycleCounts{}) {
		t.Fatal("empty graph must count zero cycles")
	}
	if got := cyclesOf(complete(3).Freeze()); got != (CycleCounts{C3: 1}) {
		t.Fatalf("triangle counts = %+v", got)
	}
	// n=4 must skip the C5 path entirely.
	if got := cyclesOf(cycleGraph(4).Freeze()); got.C5 != 0 {
		t.Fatal("4-node graph cannot have 5-cycles")
	}
}

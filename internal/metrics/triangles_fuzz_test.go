package metrics_test

import (
	"slices"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
)

// triangleScript encodes a FuzzTriangles input: n nodes, the edges of
// the initial graph, then the pairs toggled before the refresh.
func triangleScript(n int, edges, toggles [][2]int) []byte {
	b := []byte{byte(n - 1), byte(len(edges))}
	for _, e := range append(edges, toggles...) {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// cliqueEdges lists the edges of the clique on nodes [lo, hi).
func cliqueEdges(lo, hi int) [][2]int {
	var out [][2]int
	for u := lo; u < hi; u++ {
		for v := u + 1; v < hi; v++ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// FuzzTriangles decodes bytes into a small simple graph: the first byte
// sets N (1..80), the second the number of byte pairs that form its
// edges, and the remaining pairs are toggled — removed when present,
// inserted when absent — before a Refreeze, so the refreshed snapshot
// has removal holes and relocated rows. The frozen, refreshed and a
// cold re-freeze of the final graph must each give per-node counts
// equal to the id-ordered oracle through the engine at 1 and 4 workers
// (N > 48 spreads four worker partials).
func FuzzTriangles(f *testing.F) {
	f.Add(triangleScript(6, cliqueEdges(0, 6), nil))
	f.Add(triangleScript(8, cliqueEdges(0, 5), [][2]int{{0, 1}, {5, 6}, {5, 0}, {6, 0}, {7, 2}}))
	hubs := append(cliqueEdges(0, 4), cliqueEdges(60, 66)...)
	for v := 4; v < 70; v++ {
		hubs = append(hubs, [2]int{v % 4, v}, [2]int{v, v + 1})
	}
	f.Add(triangleScript(72, hubs, [][2]int{{0, 1}, {61, 62}, {0, 61}, {2, 70}, {40, 41}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%80
		pairs := data[2:]
		split := min(2*int(data[1]), len(pairs))
		g := graph.New(n)
		for i := 0; i+1 < split; i += 2 {
			if u, v := int(pairs[i])%n, int(pairs[i+1])%n; u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		base := g.Freeze()
		checkTriangles(t, "frozen", base)
		for i := split; i+1 < len(pairs); i += 2 {
			u, v := int(pairs[i])%n, int(pairs[i+1])%n
			switch {
			case u == v:
			case g.HasEdge(u, v):
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			default:
				g.MustAddEdge(u, v)
			}
		}
		next, _, err := g.Refreeze(base)
		if err != nil {
			t.Fatal(err)
		}
		checkTriangles(t, "refreshed", next)
		checkTriangles(t, "cold", g.Copy().Freeze())
	})
}

func checkTriangles(t *testing.T, tag string, s *graph.Snapshot) {
	t.Helper()
	want := metrics.IDOrderedTriangles(s)
	for _, w := range []int{1, 4} {
		if got := engine.New(s, engine.WithWorkers(w)).TrianglesPerNode(); !slices.Equal(got, want) {
			t.Fatalf("%s: engine at %d workers %v, id-ordered oracle %v", tag, w, got, want)
		}
	}
}

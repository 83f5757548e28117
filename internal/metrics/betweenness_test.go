package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bruteBetweenness computes betweenness by explicit shortest-path
// enumeration over all pairs (exponential-ish, tiny graphs only).
func bruteBetweenness(g *graph.Graph) []float64 {
	srcs := make([]int, g.N())
	for i := range srcs {
		srcs[i] = i
	}
	return bruteBetweennessFrom(g, srcs, 1)
}

// bruteBetweennessFrom is bruteBetweenness restricted to paths that
// start at srcs, each source's contribution multiplied by scale — the
// sampled estimator written from its definition.
func bruteBetweennessFrom(g *graph.Graph, srcs []int, scale float64) []float64 {
	n := g.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	for _, s := range srcs {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			paths := shortestPaths(g, s, t)
			if len(paths) == 0 {
				continue
			}
			through := make([]int, n)
			for _, p := range paths {
				for _, v := range p[1 : len(p)-1] {
					through[v]++
				}
			}
			for v := 0; v < n; v++ {
				if v != s && v != t {
					bc[v] += scale * float64(through[v]) / float64(len(paths))
				}
			}
		}
	}
	norm := float64(n-1) * float64(n-2)
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// shortestPaths enumerates all shortest paths from s to t by BFS layers.
func shortestPaths(g *graph.Graph, s, t int) [][]int {
	dist := bfs(g, s)
	if dist[t] < 0 {
		return nil
	}
	var out [][]int
	var walk func(v int, acc []int)
	walk = func(v int, acc []int) {
		acc = append(acc, v)
		if v == s {
			rev := make([]int, len(acc))
			for i, x := range acc {
				rev[len(acc)-1-i] = x
			}
			out = append(out, rev)
			return
		}
		g.Neighbors(v, func(u, _ int) bool {
			if dist[u] == dist[v]-1 {
				walk(u, acc)
			}
			return true
		})
	}
	walk(t, nil)
	return out
}

func TestBetweennessStar(t *testing.T) {
	g := star(6)
	bc := BetweennessFrozen(g.Freeze())
	if math.Abs(bc[0]-1) > 1e-12 {
		t.Fatalf("hub betweenness = %v, want 1", bc[0])
	}
	for u := 1; u < 6; u++ {
		if bc[u] != 0 {
			t.Fatalf("leaf betweenness = %v, want 0", bc[u])
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	g := path(5)
	bc := BetweennessFrozen(g.Freeze())
	// Middle node lies on 3*2=... pairs: (0,3),(0,4),(1,3),(1,4),(3,0)...
	// For path of 5, exact normalized values: node 2 covers pairs
	// {0,1}x{3,4} in both directions = 8 of 12 ordered pairs.
	if math.Abs(bc[2]-8.0/12) > 1e-12 {
		t.Fatalf("middle betweenness = %v, want %v", bc[2], 8.0/12)
	}
	if bc[0] != 0 || bc[4] != 0 {
		t.Fatal("endpoints must have zero betweenness")
	}
}

func TestBetweennessMatchesBruteForce(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(r, 12, 0.3)
		got := BetweennessFrozen(g.Freeze())
		want := bruteBetweenness(g)
		for u := range want {
			if math.Abs(got[u]-want[u]) > 1e-9 {
				t.Fatalf("trial %d node %d: brandes %v, brute %v", trial, u, got[u], want[u])
			}
		}
	}
}

func TestBetweennessTinyGraph(t *testing.T) {
	bc := BetweennessFrozen(graph.New(2).Freeze())
	if len(bc) != 2 || bc[0] != 0 || bc[1] != 0 {
		t.Fatal("graphs with <3 nodes must be all-zero")
	}
}

func TestBetweennessSampledApproximates(t *testing.T) {
	r := rng.New(29)
	s := randomGraph(r, 300, 0.03).Freeze()
	exact := BetweennessFrozen(s)
	approx, err := BetweennessSampledFrozen(s, r, 150)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the two on aggregate: correlation of top values.
	var num, exSum, apSum float64
	for i := range exact {
		num += exact[i] * approx[i]
		exSum += exact[i] * exact[i]
		apSum += approx[i] * approx[i]
	}
	if exSum == 0 || apSum == 0 {
		t.Skip("degenerate graph")
	}
	corr := num / math.Sqrt(exSum*apSum)
	if corr < 0.95 {
		t.Fatalf("sampled betweenness correlation %v too low", corr)
	}
}

func TestBetweennessSampledErrors(t *testing.T) {
	s := path(5).Freeze()
	if _, err := BetweennessSampledFrozen(s, nil, 2); err == nil {
		t.Fatal("nil generator should fail")
	}
	if _, err := BetweennessSampledFrozen(s, rng.New(1), 0); err == nil {
		t.Fatal("zero sources should fail")
	}
}

func TestBetweennessSampledFullFallsBackToExact(t *testing.T) {
	s := path(6).Freeze()
	exact := BetweennessFrozen(s)
	full, err := BetweennessSampledFrozen(s, rng.New(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-full[i]) > 1e-12 {
			t.Fatal("sources >= N should be exact")
		}
	}
}

package metrics

import (
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bruteCoreness computes coreness by iterated peeling.
func bruteCoreness(g *graph.Graph) []int {
	n := g.N()
	core := make([]int, n)
	removed := make([]bool, n)
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
	}
	for k := 0; ; k++ {
		changed := true
		for changed {
			changed = false
			for u := 0; u < n; u++ {
				if !removed[u] && deg[u] <= k {
					removed[u] = true
					core[u] = k
					changed = true
					g.Neighbors(u, func(v, _ int) bool {
						if !removed[v] {
							deg[v]--
						}
						return true
					})
				}
			}
		}
		done := true
		for u := 0; u < n; u++ {
			if !removed[u] {
				done = false
				break
			}
		}
		if done {
			return core
		}
	}
}

func TestKCoreComplete(t *testing.T) {
	res := KCoreFrozen(complete(6).Freeze())
	for u, c := range res.Coreness {
		if c != 5 {
			t.Fatalf("K6 coreness[%d] = %d, want 5", u, c)
		}
	}
	if res.MaxCore != 5 {
		t.Fatalf("MaxCore = %d", res.MaxCore)
	}
}

func TestKCoreTree(t *testing.T) {
	res := KCoreFrozen(path(10).Freeze())
	for u, c := range res.Coreness {
		if c != 1 {
			t.Fatalf("path coreness[%d] = %d, want 1", u, c)
		}
	}
}

func TestKCoreMixed(t *testing.T) {
	// K4 with a pendant chain: chain nodes have coreness 1, clique 3.
	g := graph.New(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j)
		}
	}
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	res := KCoreFrozen(g.Freeze())
	want := []int{3, 3, 3, 3, 1, 1}
	for u := range want {
		if res.Coreness[u] != want[u] {
			t.Fatalf("coreness = %v, want %v", res.Coreness, want)
		}
	}
}

func TestKCoreMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 60, 0.08)
		got := KCoreFrozen(g.Freeze()).Coreness
		want := bruteCoreness(g)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d node %d: coreness %d, brute %d", trial, u, got[u], want[u])
			}
		}
	}
}

func TestKCoreEmptyAndIsolated(t *testing.T) {
	res := KCoreFrozen(graph.New(0).Freeze())
	if res.MaxCore != 0 || len(res.Coreness) != 0 {
		t.Fatal("empty graph should decompose trivially")
	}
	res = KCoreFrozen(graph.New(5).Freeze())
	for _, c := range res.Coreness {
		if c != 0 {
			t.Fatal("isolated nodes must have coreness 0")
		}
	}
}

func TestShellAndCoreSizes(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j)
		}
	}
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	res := KCoreFrozen(g.Freeze())
	shells := res.ShellSizes()
	if shells[1] != 2 || shells[3] != 4 {
		t.Fatalf("shells = %v", shells)
	}
	cores := res.CoreSizes()
	if cores[0] != 6 || cores[1] != 6 || cores[3] != 4 {
		t.Fatalf("cores = %v", cores)
	}
	if cores[2] != 4 {
		t.Fatalf("2-core size = %d, want 4", cores[2])
	}
}

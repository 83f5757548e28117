// The betweenness cases pin the Brandes kernel through engine.Engine,
// the one whole-graph betweenness entry point, so they sit in the
// external test package, which may import the engine.
package metrics_test

import (
	"math"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bruteBetweenness is betweenness from its definition over all pairs
// (s, t) with s in srcs: node v gains σ_sv·σ_vt/σ_st whenever
// d(s,v) + d(v,t) = d(s,t), times scale, normalized by (N-1)(N-2).
// Distances and path counts come from one plain BFS per node, so the
// oracle shares no code with the Brandes kernel.
func bruteBetweenness(s *graph.Snapshot, srcs []int, scale float64) []float64 {
	n := s.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	dist := make([][]int, n)
	sigma := make([][]float64, n)
	for src := range dist {
		d, c := make([]int, n), make([]float64, n)
		for i := range d {
			d[i] = -1
		}
		d[src], c[src] = 0, 1
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, v := range s.Neighbors(u) {
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, int(v))
				}
				if d[v] == d[u]+1 {
					c[v] += c[u]
				}
			}
		}
		dist[src], sigma[src] = d, c
	}
	for _, a := range srcs {
		for b := 0; b < n; b++ {
			if b == a || dist[a][b] < 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v != a && v != b && dist[a][v] >= 0 && dist[a][v]+dist[v][b] == dist[a][b] {
					bc[v] += scale * sigma[a][v] * sigma[v][b] / sigma[a][b]
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

// allNodes lists 0..n-1, the exact source set.
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// randomSnapshot is G(n, p) drawn edge by edge.
func randomSnapshot(r *rng.Rand, n int, p float64) *graph.Snapshot {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g.Freeze()
}

// betweennessWidths are the pool widths every betweenness case runs at:
// the sequential order and a sharded pool.
var betweennessWidths = []int{1, 4}

// assertFloatsClose fails unless got and want agree entrywise within tol.
func assertFloatsClose(t *testing.T, key, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %s: length %d vs %d", key, name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s %s[%d] = %v, want %v (Δ=%g)", key, name, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// checkExact asserts Engine.Betweenness at every width against want and
// the widths against each other, within 1e-9.
func checkExact(t *testing.T, name string, s *graph.Snapshot, want []float64) {
	t.Helper()
	var first []float64
	for _, w := range betweennessWidths {
		got := engine.New(s, engine.WithWorkers(w)).Betweenness()
		assertFloatsClose(t, name, "betweenness", got, want, 1e-9)
		if first == nil {
			first = got
		}
		assertFloatsClose(t, name, "betweenness across widths", got, first, 1e-9)
	}
}

func TestBetweennessStar(t *testing.T) {
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(0, v)
	}
	checkExact(t, "star", g.Freeze(), []float64{1, 0, 0, 0, 0, 0})
}

func TestBetweennessPath(t *testing.T) {
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(v-1, v)
	}
	// Node 2 covers the pairs {0,1}x{3,4} in both directions, 8 of the
	// 12 ordered pairs excluding itself; node 1 covers 0 with {2,3,4}.
	checkExact(t, "path", g.Freeze(), []float64{0, 6.0 / 12, 8.0 / 12, 6.0 / 12, 0})
}

func TestBetweennessTinyGraph(t *testing.T) {
	for n := 0; n < 3; n++ {
		g := graph.New(n)
		if n == 2 {
			g.MustAddEdge(0, 1)
		}
		checkExact(t, "tiny", g.Freeze(), make([]float64, n))
	}
}

func TestBetweennessMatchesBruteForce(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 5; trial++ {
		s := randomSnapshot(r, 14, 0.25)
		checkExact(t, "random", s, bruteBetweenness(s, allNodes(s.N()), 1))
	}
}

// TestBetweennessSampledMatchesBruteForce pins the sampled estimator:
// the sources are PathSources' draw for the same generator state, each
// scaled by n/sources.
func TestBetweennessSampledMatchesBruteForce(t *testing.T) {
	const n, sources = 30, 12
	for seed := uint64(1); seed <= 3; seed++ {
		s := randomSnapshot(rng.New(seed), n, 0.12)
		want := bruteBetweenness(s, rng.New(42 + seed).Perm(n)[:sources], float64(n)/sources)
		var first []float64
		for _, w := range betweennessWidths {
			got, err := engine.New(s, engine.WithWorkers(w)).BetweennessSampled(rng.New(42+seed), sources)
			if err != nil {
				t.Fatal(err)
			}
			assertFloatsClose(t, "sampled", "betweenness", got, want, 1e-9)
			if first == nil {
				first = got
			}
			assertFloatsClose(t, "sampled", "betweenness across widths", got, first, 1e-9)
		}
	}
}

func TestBetweennessSampledApproximates(t *testing.T) {
	s := randomSnapshot(rng.New(29), 300, 0.03)
	for _, w := range betweennessWidths {
		e := engine.New(s, engine.WithWorkers(w))
		exact := e.Betweenness()
		approx, err := e.BetweennessSampled(rng.New(29), 150)
		if err != nil {
			t.Fatal(err)
		}
		var num, exSum, apSum float64
		for i := range exact {
			num += exact[i] * approx[i]
			exSum += exact[i] * exact[i]
			apSum += approx[i] * approx[i]
		}
		if corr := num / math.Sqrt(exSum*apSum); !(corr >= 0.95) {
			t.Fatalf("workers %d: sampled betweenness correlation %v too low", w, corr)
		}
	}
}

func TestBetweennessSampledErrors(t *testing.T) {
	s := randomSnapshot(rng.New(5), 10, 0.3)
	for _, w := range betweennessWidths {
		e := engine.New(s, engine.WithWorkers(w))
		if _, err := e.BetweennessSampled(nil, 2); err == nil {
			t.Fatal("nil generator must error")
		}
		if _, err := e.BetweennessSampled(rng.New(1), 0); err == nil {
			t.Fatal("zero sources must error")
		}
	}
}

func TestBetweennessSampledFullFallsBackToExact(t *testing.T) {
	g := graph.New(6)
	for v := 1; v < 6; v++ {
		g.MustAddEdge(v-1, v)
	}
	s := g.Freeze()
	want := bruteBetweenness(s, allNodes(6), 1)
	for _, w := range betweennessWidths {
		full, err := engine.New(s, engine.WithWorkers(w)).BetweennessSampled(rng.New(1), 100)
		if err != nil {
			t.Fatal(err)
		}
		assertFloatsClose(t, "full sample", "betweenness", full, want, 1e-12)
	}
}

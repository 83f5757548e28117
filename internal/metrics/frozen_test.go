package metrics

import (
	"math"
	"reflect"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// frozenTestGraph builds a random graph dense enough to have triangles
// and sparse enough to leave a few isolated nodes.
func frozenTestGraph(t *testing.T, seed uint64, n, edges int) (*graph.Graph, *graph.Snapshot) {
	t.Helper()
	r := rng.New(seed)
	g := graph.New(n)
	for i := 0; i < edges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	return g, g.Freeze()
}

func floatsClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestFrozenBFSMatchesMap(t *testing.T) {
	g, s := frozenTestGraph(t, 1, 80, 150)
	dist := make([]int32, s.N())
	queue := make([]int32, s.N())
	for src := 0; src < s.N(); src += 7 {
		want := bfs(g, src)
		order := BFSFrozen(s, src, dist, queue)
		for v, d := range want {
			if int(dist[v]) != d {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, dist[v], d)
			}
		}
		reach := 0
		for _, d := range want {
			if d >= 0 {
				reach++
			}
		}
		if len(order) != reach {
			t.Fatalf("src %d: visit order has %d nodes, want %d", src, len(order), reach)
		}
	}
}

// TestFrozenClosenessMatchesMap pins the production closeness, an
// exact DistMap's reach and distance-sum columns, against one map BFS
// per node.
func TestFrozenClosenessMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 90, 200)
		floatsClose(t, "closeness", RefreshCloseness(NewDistMap(s, nil, 2)), closeness(g), 0)
	}
}

// TestFrozenBetweennessMatchesMap drives the BrandesFrozen kernel from
// every source and from a scaled sample against shortest-path
// enumeration.
func TestFrozenBetweennessMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 30, 60)
		all, _ := PathSources(30, nil, 0)
		floatsClose(t, "betweenness", brandes(s, all, 1), bruteBetweenness(g), 1e-9)

		srcs := rng.New(42 + seed).Perm(30)[:12]
		floatsClose(t, "sampled betweenness", brandes(s, srcs, 30.0/12), bruteBetweennessFrom(g, srcs, 30.0/12), 1e-9)
	}
}

func TestFrozenPathLengthsMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 90, 180)
		for _, sources := range []int{0, 25} {
			want, err := pathLengths(g, rng.New(5*seed), sources)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PathLengthsFrozen(s, rng.New(5*seed), sources)
			if err != nil {
				t.Fatal(err)
			}
			if got.Avg != want.Avg || got.Diameter != want.Diameter || got.Sources != want.Sources {
				t.Fatalf("seed %d sources %d: stats %+v, want %+v", seed, sources, got, want)
			}
			if !reflect.DeepEqual(got.Distribution, want.Distribution) {
				t.Fatalf("seed %d sources %d: distributions differ", seed, sources)
			}
		}
	}
	if _, err := PathLengthsFrozen(graph.New(0).Freeze(), nil, 0); err == nil {
		t.Fatal("empty graph must error")
	}
	_, s := frozenTestGraph(t, 4, 40, 80)
	if _, err := PathLengthsFrozen(s, nil, 10); err == nil {
		t.Fatal("sampling without generator must error")
	}
}

func TestFrozenTrianglesAndClusteringMatchMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 60, 240)
		tri := bruteTrianglesPerNode(g)
		if got := TrianglesPerNodeWith(s, 1); !reflect.DeepEqual(got, tri) {
			t.Fatalf("seed %d: triangle counts differ:\n got %v\nwant %v", seed, got, tri)
		}
		floatsClose(t, "local clustering", localClusteringOf(s), localClustering(g), 0)
		if got, want := avgClusteringOf(s), avgClustering(g); got != want {
			t.Fatalf("seed %d: avg clustering %v vs %v", seed, got, want)
		}
		if got, want := transitivityOf(s), transitivity(g); got != want {
			t.Fatalf("seed %d: transitivity %v vs %v", seed, got, want)
		}
		if got, want := ClusteringSpectrumFromLocal(s, localClusteringOf(s)), clusteringSpectrum(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clustering spectra differ", seed)
		}
	}
}

func TestFrozenKCoreRichClubMatchMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 80, 260)
		kc := KCoreFrozen(s)
		if want := bruteCoreness(g); !reflect.DeepEqual(kc.Coreness, want) {
			t.Fatalf("seed %d: coreness %v, want %v", seed, kc.Coreness, want)
		}
		if kc.MaxCore != maxCore(g) {
			t.Fatalf("seed %d: max core %d, want %d", seed, kc.MaxCore, maxCore(g))
		}
		// One point per threshold at which club membership changes:
		// every distinct degree d > 0 yields the threshold d-1.
		pts := RichClubFrozen(s)
		thresholds := make(map[int]bool)
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(u); d > 0 {
				thresholds[d-1] = true
			}
		}
		if len(pts) != len(thresholds) {
			t.Fatalf("seed %d: %d rich-club points, want %d", seed, len(pts), len(thresholds))
		}
		for _, p := range pts {
			n, e, phi := bruteRichClub(g, p.K)
			if !thresholds[p.K] || p.N != n || p.E != e || p.Phi != phi {
				t.Fatalf("seed %d k=%d: got (%d,%d,%v), brute (%d,%d,%v)", seed, p.K, p.N, p.E, p.Phi, n, e, phi)
			}
		}
	}
}

func TestFrozenCyclesMatchMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 16, 45)
		if got, want := cyclesOf(s), bruteCycles(g); got != want {
			t.Fatalf("seed %d: cycles %+v vs %+v", seed, got, want)
		}
	}
	// Small-n guards.
	for _, n := range []int{0, 1, 2, 4} {
		g := graph.New(n)
		if n >= 4 {
			g.MustAddEdge(0, 1)
			g.MustAddEdge(1, 2)
			g.MustAddEdge(2, 0)
			g.MustAddEdge(2, 3)
		}
		if got, want := cyclesOf(g.Freeze()), bruteCycles(g); got != want {
			t.Fatalf("n=%d: cycles %+v vs %+v", n, got, want)
		}
	}
}

func TestFrozenDegreeMetricsMatchMap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, s := frozenTestGraph(t, seed, 70, 150)
		floatsClose(t, "degrees", DegreesAsFloatsFrozen(s), degreesAsFloats(g), 0)
		if got, want := DegreeDistributionFrozen(s), degreeDistribution(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: degree distributions differ", seed)
		}
		ks1, pc1 := DegreeCCDFFrozen(s)
		ks2, pc2 := degreeCCDF(g)
		if !reflect.DeepEqual(ks1, ks2) || !reflect.DeepEqual(pc1, pc2) {
			t.Fatalf("seed %d: CCDFs differ", seed)
		}
		knnF, knnM := KnnFrozen(s), knn(g)
		if len(knnF) != len(knnM) {
			t.Fatalf("seed %d: knn key sets differ", seed)
		}
		for k, v := range knnM {
			if math.Abs(knnF[k]-v) > 1e-9 {
				t.Fatalf("seed %d: knn(%d) = %v, want %v", seed, k, knnF[k], v)
			}
		}
		if got, want := AssortativityFrozen(s), assortativity(g); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: assortativity %v vs %v", seed, got, want)
		}
	}
}

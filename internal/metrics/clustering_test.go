package metrics

import (
	"math"
	"reflect"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

func TestTrianglesComplete(t *testing.T) {
	s := complete(5).Freeze()
	tri := TrianglesPerNodeWith(s, 1)
	for u, ti := range tri {
		if ti != 6 { // C(4,2) triangles through each node of K5
			t.Fatalf("T(%d) = %d, want 6", u, ti)
		}
	}
}

func TestTrianglesTriangleWithTail(t *testing.T) {
	tri := TrianglesPerNodeWith(triangleWithTail().Freeze(), 1)
	want := []int{1, 1, 1, 0}
	for u := range want {
		if tri[u] != want[u] {
			t.Fatalf("T = %v, want %v", tri, want)
		}
	}
}

func TestTrianglesIgnoreMultiplicity(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	if tri := TrianglesPerNodeWith(g.Freeze(), 1); !reflect.DeepEqual(tri, []int{1, 1, 1}) {
		t.Fatalf("T = %v, want [1 1 1] (multiplicity must not matter)", tri)
	}
}

// bruteTrianglesPerNode counts the triangles through every node by
// enumerating all node triples.
func bruteTrianglesPerNode(g *graph.Graph) []int {
	n := g.N()
	t := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) {
				continue
			}
			for k := j + 1; k < n; k++ {
				if g.HasEdge(i, k) && g.HasEdge(j, k) {
					t[i]++
					t[j]++
					t[k]++
				}
			}
		}
	}
	return t
}

func TestTrianglesMatchBruteForce(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 40, 0.15)
		if got, want := TrianglesPerNodeWith(g.Freeze(), 1), bruteTrianglesPerNode(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: triangles = %v, brute force = %v", trial, got, want)
		}
	}
}

// TestTrianglesDegreeOriented pins the degree-oriented kernel on the
// shapes where its orientation rule has corner cases: every edge a
// degree tie (broken by id), a hub whose out-row is empty, cliques,
// an isolated node, and a node whose neighbours all outrank it. The
// out-rows must hold every edge once, at its lower (degree, id) end,
// sorted by id; the counts must match the brute-force enumeration and
// the id-ordered oracle.
func TestTrianglesDegreeOriented(t *testing.T) {
	lowCorner := graph.New(5) // K4 on 1..4 plus node 0 joined to 1 and 2
	for u := 1; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			lowCorner.MustAddEdge(u, v)
		}
	}
	lowCorner.MustAddEdge(0, 1)
	lowCorner.MustAddEdge(0, 2)
	bowtie := graph.New(5) // triangles 0-1-2 and 2-3-4: ties at 0, 1, 3, 4
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		bowtie.MustAddEdge(e[0], e[1])
	}
	isolated := graph.New(4) // the triangle 0-1-2 and the lone node 3
	isolated.MustAddEdge(0, 1)
	isolated.MustAddEdge(1, 2)
	isolated.MustAddEdge(2, 0)
	cases := []struct {
		name string
		g    *graph.Graph
		want []int
	}{
		{"ties-cycle", cycleGraph(3), []int{1, 1, 1}},
		{"ties-bowtie", bowtie, []int{1, 1, 2, 1, 1}},
		{"star", star(7), make([]int, 7)},
		{"K4", complete(4), []int{3, 3, 3, 3}},
		{"K5", complete(5), []int{6, 6, 6, 6, 6}},
		{"isolated-node", isolated, []int{1, 1, 1, 0}},
		{"neighbours-outrank", lowCorner, []int{1, 4, 4, 3, 3}},
	}
	for _, tc := range cases {
		s := tc.g.Freeze()
		r := orientByDegree(s)
		rank := func(u int) [2]int { return [2]int{s.Degree(u), u} }
		below := func(a, b [2]int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }
		seen := 0
		for u := 0; u < s.N(); u++ {
			row := r.adj[r.off[u]:r.off[u+1]]
			for i, v := range row {
				if !below(rank(u), rank(int(v))) || !s.HasEdge(u, int(v)) || i > 0 && row[i-1] >= v {
					t.Fatalf("%s: out-row of %d is %v", tc.name, u, row)
				}
			}
			seen += len(row)
		}
		if seen != s.M() || len(r.off) != s.N()+1 {
			t.Fatalf("%s: %d oriented arcs over %d offsets, want %d over %d", tc.name, seen, len(r.off), s.M(), s.N()+1)
		}
		got := TrianglesPerNodeWith(s, 1)
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: T = %v, want %v", tc.name, got, tc.want)
		}
		if brute, oracle := bruteTrianglesPerNode(tc.g), idOrderedTriangles(s); !reflect.DeepEqual(brute, tc.want) || !reflect.DeepEqual(oracle, tc.want) {
			t.Fatalf("%s: brute force %v, id-ordered %v, want %v", tc.name, brute, oracle, tc.want)
		}
	}
	// The star's hub outranks every leaf, so its out-row is empty and
	// each spoke sits in its leaf's row.
	r := orientByDegree(star(7).Freeze())
	if r.off[1] != 0 {
		t.Fatalf("star hub out-row has %d arcs, want 0", r.off[1])
	}
}

func TestLocalClusteringComplete(t *testing.T) {
	c := localClusteringOf(complete(6).Freeze())
	for u, cu := range c {
		if math.Abs(cu-1) > 1e-12 {
			t.Fatalf("c(%d) = %v, want 1", u, cu)
		}
	}
}

func TestLocalClusteringPath(t *testing.T) {
	c := localClusteringOf(path(5).Freeze())
	for u, cu := range c {
		if cu != 0 {
			t.Fatalf("c(%d) = %v on a path, want 0", u, cu)
		}
	}
}

func TestAvgClusteringSkipsLowDegree(t *testing.T) {
	// Triangle plus isolated pendant: average should be over the three
	// triangle nodes only.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(3, 4)
	if avg := avgClusteringOf(g.Freeze()); math.Abs(avg-1) > 1e-12 {
		t.Fatalf("avg clustering = %v, want 1 (degree-1 nodes excluded)", avg)
	}
}

func TestTransitivityKnown(t *testing.T) {
	if tr := transitivityOf(complete(4).Freeze()); math.Abs(tr-1) > 1e-12 {
		t.Fatalf("K4 transitivity = %v, want 1", tr)
	}
	if tr := transitivityOf(star(10).Freeze()); tr != 0 {
		t.Fatalf("star transitivity = %v, want 0", tr)
	}
	// Triangle with tail: 1 triangle, triples: deg 2,2,3,1 ->
	// 1+1+3+0 = 5 triples, transitivity 3/5.
	if tr := transitivityOf(triangleWithTail().Freeze()); math.Abs(tr-0.6) > 1e-12 {
		t.Fatalf("transitivity = %v, want 0.6", tr)
	}
}

func TestClusteringSpectrum(t *testing.T) {
	// Triangle with tail: nodes of degree 2 have c=1, node of degree 3
	// has c = 1/3.
	s := triangleWithTail().Freeze()
	spec := ClusteringSpectrumFromLocal(s, localClusteringOf(s))
	if math.Abs(spec[2]-1) > 1e-12 {
		t.Fatalf("c(k=2) = %v, want 1", spec[2])
	}
	if math.Abs(spec[3]-1.0/3) > 1e-12 {
		t.Fatalf("c(k=3) = %v, want 1/3", spec[3])
	}
	if _, ok := spec[1]; ok {
		t.Fatal("degree-1 nodes must not appear in the spectrum")
	}
}

func TestERClusteringMatchesP(t *testing.T) {
	// For G(n,p), expected clustering is p.
	avg := avgClusteringOf(randomGraph(rng.New(13), 800, 0.02).Freeze())
	if math.Abs(avg-0.02) > 0.01 {
		t.Fatalf("ER clustering = %v, want ~0.02", avg)
	}
}

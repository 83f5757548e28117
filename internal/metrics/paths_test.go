package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// bfsFrozen runs BFSFrozen with fresh buffers.
func bfsFrozen(s *graph.Snapshot, src int) []int32 {
	dist := make([]int32, s.N())
	BFSFrozen(s, src, dist, make([]int32, s.N()))
	return dist
}

func TestBFSPath(t *testing.T) {
	d := bfsFrozen(path(5).Freeze(), 0)
	for i := 0; i < 5; i++ {
		if int(d[i]) != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	d := bfsFrozen(g.Freeze(), 0)
	if d[2] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", d[2])
	}
}

func TestBFSInvalidSource(t *testing.T) {
	d := bfsFrozen(path(3).Freeze(), 10)
	for _, v := range d {
		if v != -1 {
			t.Fatal("invalid source should reach nothing")
		}
	}
}

func TestPathLengthsCycle(t *testing.T) {
	st, err := PathLengthsFrozen(cycleGraph(6).Freeze(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Diameter != 3 {
		t.Fatalf("C6 diameter = %d, want 3", st.Diameter)
	}
	// C6 distances from any node: 1,1,2,2,3 -> avg = 9/5
	if math.Abs(st.Avg-1.8) > 1e-12 {
		t.Fatalf("C6 avg path = %v, want 1.8", st.Avg)
	}
	sum := 0.0
	for _, p := range st.Distribution {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distance distribution sums to %v", sum)
	}
	if math.Abs(st.Distribution[1]-0.4) > 1e-12 {
		t.Fatalf("P(d=1) = %v, want 0.4", st.Distribution[1])
	}
}

func TestPathLengthsComplete(t *testing.T) {
	st, err := PathLengthsFrozen(complete(10).Freeze(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Avg != 1 || st.Diameter != 1 {
		t.Fatalf("K10 avg=%v diam=%d, want 1,1", st.Avg, st.Diameter)
	}
}

func TestPathLengthsSampledApproximatesExact(t *testing.T) {
	r := rng.New(17)
	g := randomGraph(r, 500, 0.02)
	giant, _ := g.Freeze().GiantComponent()
	exact, err := PathLengthsFrozen(giant, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := PathLengthsFrozen(giant, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sources != 100 {
		t.Fatalf("sources = %d", sampled.Sources)
	}
	if math.Abs(sampled.Avg-exact.Avg) > 0.1 {
		t.Fatalf("sampled avg %v vs exact %v", sampled.Avg, exact.Avg)
	}
}

func TestPathLengthsSamplingNeedsRand(t *testing.T) {
	if _, err := PathLengthsFrozen(path(10).Freeze(), nil, 3); err == nil {
		t.Fatal("sampling without generator should fail")
	}
}

func TestPathLengthsEmpty(t *testing.T) {
	if _, err := PathLengthsFrozen(graph.New(0).Freeze(), nil, 0); err == nil {
		t.Fatal("empty graph should fail")
	}
}

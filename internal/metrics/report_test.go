package metrics

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

func TestMeasureBasics(t *testing.T) {
	g := complete(20)
	s, err := measure(g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 20 || s.M != 190 {
		t.Fatalf("N=%d M=%d", s.N, s.M)
	}
	if math.Abs(s.AvgDegree-19) > 1e-12 || s.MaxDegree != 19 {
		t.Fatalf("degree stats %v %d", s.AvgDegree, s.MaxDegree)
	}
	if math.Abs(s.AvgClustering-1) > 1e-12 || math.Abs(s.Transitivity-1) > 1e-12 {
		t.Fatal("clustering of complete graph must be 1")
	}
	if s.AvgPathLen != 1 || s.Diameter != 1 {
		t.Fatal("path stats of complete graph must be 1")
	}
	if s.MaxCore != 19 {
		t.Fatalf("MaxCore = %d", s.MaxCore)
	}
	if s.GiantFrac != 1 {
		t.Fatalf("GiantFrac = %v", s.GiantFrac)
	}
}

func TestMeasureDisconnected(t *testing.T) {
	g := graph.New(10)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	s, err := measure(g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.GiantFrac-0.3) > 1e-12 {
		t.Fatalf("GiantFrac = %v, want 0.3", s.GiantFrac)
	}
	if s.Diameter != 2 {
		t.Fatalf("giant diameter = %d, want 2", s.Diameter)
	}
}

func TestMeasureEmpty(t *testing.T) {
	s, err := measure(graph.New(0), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 0 || s.GiantFrac != 1 {
		t.Fatalf("empty snapshot %+v", s)
	}
}

func TestMeasureWithSampling(t *testing.T) {
	r := rng.New(47)
	g := randomGraph(r, 400, 0.02)
	exact, err := measure(g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := measure(g, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.AvgPathLen-sampled.AvgPathLen) > 0.15 {
		t.Fatalf("sampled path len %v vs exact %v", sampled.AvgPathLen, exact.AvgPathLen)
	}
}

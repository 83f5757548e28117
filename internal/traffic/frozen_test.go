package traffic

import (
	"math"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// TestRouteFrozenMatchesRoute checks the parallel CSR router against
// the sequential map-based one: same link set, per-link loads and
// summary statistics within floating-point merge tolerance.
func TestRouteFrozenMatchesRoute(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		top, err := (gen.BA{N: 150, M: 2}).Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		g := top.G
		masses := make([]float64, g.N())
		r := rng.New(seed + 100)
		for i := range masses {
			masses[i] = 1 + 10*r.Float64()
		}
		m, err := Gravity(masses, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Route(g, m, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RouteFrozenDemand(g.Freeze(), m, true, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Links) != len(want.Links) {
			t.Fatalf("seed %d: %d links vs %d", seed, len(got.Links), len(want.Links))
		}
		type key struct{ u, v int }
		wantLoads := make(map[key]float64, len(want.Links))
		for _, l := range want.Links {
			wantLoads[key{l.U, l.V}] = l.Load
		}
		const tol = 1e-6 // absolute, loads are O(1e4)
		for _, l := range got.Links {
			w, ok := wantLoads[key{l.U, l.V}]
			if !ok {
				t.Fatalf("seed %d: unexpected link (%d,%d)", seed, l.U, l.V)
			}
			if math.Abs(l.Load-w) > tol {
				t.Fatalf("seed %d: load(%d,%d) = %v, want %v", seed, l.U, l.V, l.Load, w)
			}
		}
		if math.Abs(got.MaxLoad-want.MaxLoad) > tol ||
			math.Abs(got.MeanLoad-want.MeanLoad) > tol ||
			math.Abs(got.Undelivered-want.Undelivered) > tol ||
			math.Abs(got.MaxUtilization-want.MaxUtilization) > tol/1e3 {
			t.Fatalf("seed %d: summary differs:\n got %+v\nwant %+v", seed,
				summaryOf(got), summaryOf(want))
		}
	}
}

func summaryOf(r *LoadReport) map[string]float64 {
	return map[string]float64{
		"max": r.MaxLoad, "mean": r.MeanLoad,
		"undelivered": r.Undelivered, "maxutil": r.MaxUtilization,
	}
}

// TestRouteFrozenDisconnected checks undelivered accounting on a graph
// with an unreachable component.
func TestRouteFrozenDisconnected(t *testing.T) {
	top, err := (gen.GNP{N: 120, P: 0.01}).Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G
	m, err := Gravity(uniformMasses(g.N()), 1000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Route(g, m, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RouteFrozenDemand(g.Freeze(), m, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want.Undelivered == 0 {
		t.Skip("graph unexpectedly connected")
	}
	if math.Abs(got.Undelivered-want.Undelivered) > 1e-9*want.Undelivered {
		t.Fatalf("undelivered %v vs %v", got.Undelivered, want.Undelivered)
	}
}

func TestRouteFrozenErrors(t *testing.T) {
	top, err := (gen.BA{N: 20, M: 1}).Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := top.G.Freeze()
	if _, err := RouteFrozenDemand(s, &Matrix{Demand: make([][]float64, 3)}, false, 0); err == nil {
		t.Fatal("size mismatch must error")
	}
}

// TestGravityDemandMatchesMatrix: the streamed rows agree with the
// dense gravity matrix entry for entry (the scale factors differ only
// in floating-point association).
func TestGravityDemandMatchesMatrix(t *testing.T) {
	r := rng.New(9)
	masses := make([]float64, 80)
	for i := range masses {
		masses[i] = 1 + 20*r.Float64()
	}
	dense, err := Gravity(masses, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewGravityDemand(masses, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	if stream.N() != dense.N() {
		t.Fatalf("N = %d vs %d", stream.N(), dense.N())
	}
	buf := make([]float64, len(masses))
	var total float64
	for u := 0; u < len(masses); u++ {
		row := stream.Row(u, buf)
		for v, got := range row {
			want := dense.Demand[u][v]
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("row %d col %d: %v vs %v", u, v, got, want)
			}
			total += got
		}
	}
	if math.Abs(total-5e5) > 1e-6*5e5 {
		t.Fatalf("streamed total = %v, want 5e5", total)
	}
}

// TestRouteFrozenDemandMatchesMatrixPath: routing the streamed gravity
// demand equals routing the materialized matrix.
func TestRouteFrozenDemandMatchesMatrixPath(t *testing.T) {
	top, err := (gen.GLP{N: 200, M: 2, P: 0.4, Beta: 0.6}).Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g := top.G
	masses := make([]float64, g.N())
	r := rng.New(105)
	for i := range masses {
		masses[i] = 1 + 10*r.Float64()
	}
	m, err := Gravity(masses, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewGravityDemand(masses, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Freeze()
	want, err := RouteFrozenDemand(s, m, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RouteFrozenDemand(s, d, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("%d links vs %d", len(got.Links), len(want.Links))
	}
	type key struct{ u, v int }
	wantLoads := make(map[key]float64, len(want.Links))
	for _, l := range want.Links {
		wantLoads[key{l.U, l.V}] = l.Load
	}
	for _, l := range got.Links {
		w, ok := wantLoads[key{l.U, l.V}]
		if !ok {
			t.Fatalf("unexpected link (%d,%d)", l.U, l.V)
		}
		if math.Abs(l.Load-w) > 1e-6*(1+w) {
			t.Fatalf("load(%d,%d) = %v, want %v", l.U, l.V, l.Load, w)
		}
	}
	if math.Abs(got.MaxLoad-want.MaxLoad) > 1e-6*(1+want.MaxLoad) {
		t.Fatalf("max load %v vs %v", got.MaxLoad, want.MaxLoad)
	}
}

// TestGravityDemandValidation mirrors the dense constructor's errors
// plus the streaming-specific degenerate case.
func TestGravityDemandValidation(t *testing.T) {
	if _, err := NewGravityDemand([]float64{1}, 10); err == nil {
		t.Fatal("single node must error")
	}
	if _, err := NewGravityDemand([]float64{1, 2}, 0); err == nil {
		t.Fatal("non-positive total must error")
	}
	if _, err := NewGravityDemand([]float64{1, -2}, 10); err == nil {
		t.Fatal("negative mass must error")
	}
	if _, err := NewGravityDemand([]float64{0, 0, 5}, 10); err == nil {
		t.Fatal("fewer than two positive masses must error")
	}
}

package traffic

import (
	"math"
	"testing"

	"netmodel/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func TestGravityProperties(t *testing.T) {
	m, err := Gravity([]float64{1, 2, 3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Total()-60) > 1e-9 {
		t.Fatalf("total = %v, want 60", m.Total())
	}
	for u := range m.Demand {
		if m.Demand[u][u] != 0 {
			t.Fatal("self demand must be zero")
		}
	}
	// Demand(1,2) : Demand(0,1) = (2*3):(1*2) = 3
	if r := m.Demand[1][2] / m.Demand[0][1]; math.Abs(r-3) > 1e-9 {
		t.Fatalf("gravity ratio = %v, want 3", r)
	}
	// symmetric masses -> symmetric matrix
	if m.Demand[0][2] != m.Demand[2][0] {
		t.Fatal("gravity with symmetric masses must be symmetric")
	}
}

func TestGravityErrors(t *testing.T) {
	if _, err := Gravity([]float64{1}, 10); err == nil {
		t.Fatal("single node should fail")
	}
	if _, err := Gravity([]float64{1, 2}, 0); err == nil {
		t.Fatal("zero total should fail")
	}
	if _, err := Gravity([]float64{1, -1}, 10); err == nil {
		t.Fatal("negative mass should fail")
	}
	if _, err := Gravity([]float64{0, 0}, 10); err == nil {
		t.Fatal("all-zero masses should fail")
	}
}

func TestRoutePathGraphMiddleLinkBusiest(t *testing.T) {
	g := pathGraph(4) // 0-1-2-3
	m, err := Gravity(uniformMasses(4), 12)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Route(g, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Links) != 3 {
		t.Fatalf("links = %d, want 3", len(rep.Links))
	}
	// Conservation: total link load = sum over pairs of demand*distance.
	var wantLoad float64
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				d := float64(v - u)
				if d < 0 {
					d = -d
				}
				wantLoad += m.Demand[u][v] * d
			}
		}
	}
	var gotLoad float64
	middle := 0.0
	for _, l := range rep.Links {
		gotLoad += l.Load
		if l.U == 1 && l.V == 2 {
			middle = l.Load
		}
	}
	if math.Abs(gotLoad-wantLoad) > 1e-9 {
		t.Fatalf("total load %v, want %v", gotLoad, wantLoad)
	}
	if middle != rep.MaxLoad {
		t.Fatalf("middle link load %v is not the max %v", middle, rep.MaxLoad)
	}
	if rep.Undelivered != 0 {
		t.Fatalf("undelivered = %v on a connected graph", rep.Undelivered)
	}
}

func TestRouteECMPSplitsEvenly(t *testing.T) {
	// Square 0-1-2-3-0: two equal paths between opposite corners.
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	m := &Matrix{Demand: make([][]float64, 4)}
	for i := range m.Demand {
		m.Demand[i] = make([]float64, 4)
	}
	m.Demand[0][2] = 8
	rep, err := Route(g, m, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.Links {
		if math.Abs(l.Load-4) > 1e-9 {
			t.Fatalf("link (%d,%d) load %v, want 4 (even split)", l.U, l.V, l.Load)
		}
	}
}

func TestRouteUndelivered(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	m := &Matrix{Demand: [][]float64{{0, 1, 5}, {1, 0, 0}, {5, 0, 0}}}
	rep, err := Route(g, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Undelivered-10) > 1e-9 {
		t.Fatalf("undelivered = %v, want 10", rep.Undelivered)
	}
}

func TestRouteUtilization(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1) // capacity 2
	m := &Matrix{Demand: [][]float64{{0, 6}, {0, 0}}}
	rep, err := Route(g, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxUtilization-3) > 1e-9 {
		t.Fatalf("utilization = %v, want 3 (load 6 / capacity 2)", rep.MaxUtilization)
	}
}

func TestRouteErrors(t *testing.T) {
	if _, err := Route(graph.New(0), &Matrix{}, false); err == nil {
		t.Fatal("empty graph should fail")
	}
	if _, err := Route(graph.New(2), &Matrix{Demand: [][]float64{{0}}}, false); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestHotSpots(t *testing.T) {
	rep := &LoadReport{Links: []LinkLoad{
		{0, 1, 5}, {1, 2, 9}, {2, 3, 1}, {3, 4, 7},
	}}
	hot := rep.HotSpots(2)
	if len(hot) != 2 || rep.Links[hot[0]].Load != 9 || rep.Links[hot[1]].Load != 7 {
		t.Fatalf("hot spots = %v", hot)
	}
	if got := rep.HotSpots(10); len(got) != 4 {
		t.Fatalf("HotSpots over-capacity = %d entries", len(got))
	}
}

func TestHotSpotsDegenerateK(t *testing.T) {
	rep := &LoadReport{Links: []LinkLoad{{0, 1, 5}, {1, 2, 9}}}
	if got := rep.HotSpots(0); len(got) != 0 {
		t.Fatalf("HotSpots(0) = %v, want empty", got)
	}
	if got := rep.HotSpots(-3); len(got) != 0 {
		t.Fatalf("HotSpots(-3) = %v, want empty", got)
	}
	if got := rep.HotSpots(7); len(got) != 2 || rep.Links[got[0]].Load != 9 {
		t.Fatalf("HotSpots(7) = %v, want both links, busiest first", got)
	}
	if got := (&LoadReport{}).HotSpots(4); len(got) != 0 {
		t.Fatalf("HotSpots on empty report = %v", got)
	}
}

func TestHotSpotsTieOrdering(t *testing.T) {
	// Equal loads keep the lower link index first: selection only swaps
	// on a strictly greater load.
	rep := &LoadReport{Links: []LinkLoad{
		{0, 1, 7}, {1, 2, 9}, {2, 3, 9}, {3, 4, 7}, {4, 5, 1},
	}}
	got := rep.HotSpots(4)
	want := []int{1, 2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie ordering = %v, want %v", got, want)
		}
	}
}

func TestMatrixRowHonorsBuffer(t *testing.T) {
	m, err := Gravity([]float64{1, 2, 3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	row := m.Row(1, buf)
	if &row[0] != &buf[0] {
		t.Fatal("Row must fill the caller's buffer when it has capacity")
	}
	// Mutating the returned row must not corrupt the matrix.
	row[0] = -99
	if m.Demand[1][0] == -99 {
		t.Fatal("Row leaked the backing row despite a capable buffer")
	}
	// An undersized buffer falls back to the backing row.
	if short := m.Row(1, nil); &short[0] != &m.Demand[1][0] {
		t.Fatal("Row with nil buffer should return the backing row")
	}
	// Both forms agree with GravityDemand.Row, the shared contract.
	gd, err := NewGravityDemand([]float64{1, 2, 3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	gbuf := make([]float64, 3)
	grow := gd.Row(1, gbuf)
	for v := range grow {
		if math.Abs(grow[v]-m.Demand[1][v]) > 1e-9 {
			t.Fatalf("streamed row disagrees with dense row at %d: %v vs %v", v, grow[v], m.Demand[1][v])
		}
	}
	// Capacity-only (length 0) and nil buffers satisfy the contract on
	// both implementations: capacity suffices -> reslice and fill;
	// otherwise a usable fresh slice (or backing row) comes back.
	for name, d := range map[string]Demand{"matrix": m, "gravity": gd} {
		capOnly := make([]float64, 0, 3)
		row := d.Row(1, capOnly)
		if len(row) != 3 || &row[0] != &capOnly[:1][0] {
			t.Fatalf("%s: capacity-only buffer not resliced and filled", name)
		}
		if row := d.Row(1, nil); len(row) != 3 {
			t.Fatalf("%s: nil buffer returned %d entries", name, len(row))
		}
	}
}

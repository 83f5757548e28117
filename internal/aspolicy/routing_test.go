package aspolicy

import (
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

func TestValleyFreeDistancesHierarchy(t *testing.T) {
	a := hierarchy(t)
	d, err := a.Freeze().ValleyFreeDistances(5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 → 2 → 0 → 1 → 4 → 8: climbing then one peer then descending.
	if d[8] != 5 {
		t.Fatalf("policy dist 5→8 = %d, want 5", d[8])
	}
	// 5 → 2 → 6 (down via shared provider).
	if d[6] != 2 {
		t.Fatalf("policy dist 5→6 = %d, want 2", d[6])
	}
	// 5 → 2 → 3 → 7 (peer at tier 2 then down).
	if d[7] != 3 {
		t.Fatalf("policy dist 5→7 = %d, want 3", d[7])
	}
	if d[5] != 0 {
		t.Fatalf("self distance = %d", d[5])
	}
}

// chainDistances annotates the path 0—1—2—… with rels[i] as the
// relationship of (i, i+1) and returns the valley-free distances from 0.
func chainDistances(t *testing.T, rels ...Rel) []int {
	t.Helper()
	g := graph.New(len(rels) + 1)
	a := NewAnnotated(g)
	for i, r := range rels {
		g.MustAddEdge(i, i+1)
		if err := a.SetRel(i, i+1, r); err != nil {
			t.Fatal(err)
		}
	}
	d, err := a.Freeze().ValleyFreeDistances(0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValleyFreeForbidsValleys(t *testing.T) {
	// On a chain the only path to the far end is the chain itself, so
	// its distance is the chain length when the path is valley-free
	// and -1 when policy forbids it.
	cases := []struct {
		name string
		rels []Rel
		ok   bool
	}{
		{"down then up", []Rel{P2C, C2P}, false},
		{"peer after down", []Rel{P2C, Peer}, false},
		{"up after peer", []Rel{Peer, C2P}, false},
		{"up peer down", []Rel{C2P, Peer, P2C}, true},
		{"pure uphill", []Rel{C2P, C2P}, true},
		{"pure downhill", []Rel{P2C, P2C}, true},
		{"up then down", []Rel{C2P, P2C}, true},
	}
	for _, c := range cases {
		d := chainDistances(t, c.rels...)
		want := -1
		if c.ok {
			want = len(c.rels)
		}
		if got := d[len(c.rels)]; got != want {
			t.Errorf("%s: distance to chain end = %d, want %d", c.name, got, want)
		}
	}
}

func TestValleyFreePeerToPeerForbidden(t *testing.T) {
	if d := chainDistances(t, Peer, Peer); d[1] != 1 || d[2] != -1 {
		t.Fatalf("peer-peer chain distances = %v, want [0 1 -1]", d)
	}
	// In the hierarchy, 6 reaches tier-1 AS 1 over the tier-1 peering
	// (6→2→0→1); the tier-2 peering 2—3 cannot be followed by a climb.
	d, err := hierarchy(t).Freeze().ValleyFreeDistances(6)
	if err != nil {
		t.Fatal(err)
	}
	if d[1] != 3 {
		t.Fatalf("policy dist 6→1 = %d, want 3", d[1])
	}
}

func TestValleyFreeDistancesErrors(t *testing.T) {
	a := hierarchy(t)
	if _, err := a.Freeze().ValleyFreeDistances(-1); err == nil {
		t.Fatal("bad source should fail")
	}
	// Incomplete annotation must be detected.
	a.G.MustAddEdge(5, 9)
	if _, err := a.Freeze().ValleyFreeDistances(5); err == nil {
		t.Fatal("incomplete annotation should fail")
	}
}

func TestMeasureInflationHierarchy(t *testing.T) {
	a := hierarchy(t)
	inf, err := a.Freeze().MeasureInflation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Pairs != 90 {
		t.Fatalf("pairs = %d, want 90", inf.Pairs)
	}
	if inf.Unreachable != 0 {
		t.Fatalf("unreachable = %d in a clean hierarchy", inf.Unreachable)
	}
	if inf.Ratio < 1 {
		t.Fatalf("policy ratio %v below 1", inf.Ratio)
	}
}

func TestMeasureInflationOnSyntheticMap(t *testing.T) {
	top, err := gen.BA{N: 600, M: 2}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnnotateByDegree(top.G, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := a.Freeze().MeasureInflation(rng.New(5), 80)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Ratio < 1 {
		t.Fatalf("inflation ratio %v must be >= 1", inf.Ratio)
	}
	if inf.Ratio > 2 {
		t.Fatalf("inflation ratio %v implausibly high for a degree hierarchy", inf.Ratio)
	}
	if inf.AvgPolicy < inf.AvgShortest {
		t.Fatal("policy paths cannot be shorter than shortest paths")
	}
}

func TestMeasureInflationErrors(t *testing.T) {
	a := hierarchy(t)
	if _, err := a.Freeze().MeasureInflation(nil, 3); err == nil {
		t.Fatal("sampling without generator should fail")
	}
}

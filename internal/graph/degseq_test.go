package graph

import (
	"testing"

	"netmodel/internal/rng"
)

func TestFromDegreeSequenceRegular(t *testing.T) {
	r := rng.New(11)
	deg := make([]int, 100)
	for i := range deg {
		deg[i] = 4
	}
	g, err := FromDegreeSequence(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	// Rejection may drop a few stubs; degrees must not exceed targets and
	// nearly all should hit them.
	low := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) > 4 {
			t.Fatalf("node %d exceeded target degree: %d", u, g.Degree(u))
		}
		if g.Degree(u) < 4 {
			low++
		}
	}
	if low > 5 {
		t.Fatalf("%d nodes fell below target degree", low)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFromDegreeSequenceErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := FromDegreeSequence(r, []int{1, 1, 1}); err == nil {
		t.Fatal("odd degree sum should fail")
	}
	if _, err := FromDegreeSequence(r, []int{-1, 1}); err == nil {
		t.Fatal("negative degree should fail")
	}
}

func TestFromDegreeSequenceSimpleGraph(t *testing.T) {
	r := rng.New(13)
	deg := []int{5, 3, 3, 2, 2, 2, 2, 1}
	g, err := FromDegreeSequence(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	g.Edges(func(u, v, w int) bool {
		if w != 1 {
			t.Fatalf("multi-edge (%d,%d) weight %d in configuration model", u, v, w)
		}
		return true
	})
}

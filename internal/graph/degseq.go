package graph

import (
	"errors"

	"netmodel/internal/rng"
)

// FromDegreeSequence builds a random simple graph with (approximately)
// the given degree sequence via the configuration model with rejection
// of self-loops and multi-edges: stubs are paired uniformly at random;
// forbidden pairings are retried a bounded number of times and finally
// dropped, so high-degree heads may end slightly below their target.
// The sum of degrees must be even.
func FromDegreeSequence(r *rng.Rand, degrees []int) (*Graph, error) {
	total := 0
	for _, d := range degrees {
		if d < 0 {
			return nil, errors.New("graph: negative degree")
		}
		total += d
	}
	if total%2 != 0 {
		return nil, errors.New("graph: degree sum must be even")
	}
	g := New(len(degrees))
	stubs := make([]int, 0, total)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// Pair consecutive stubs; on a forbidden pairing, swap in a stub from
	// a random later position and retry a few times.
	for i := 0; i+1 < len(stubs); i += 2 {
		ok := false
		for try := 0; try < 50; try++ {
			u, v := stubs[i], stubs[i+1]
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
				ok = true
				break
			}
			if i+2 >= len(stubs) {
				break
			}
			j := i + 2 + r.Intn(len(stubs)-i-2)
			stubs[i+1], stubs[j] = stubs[j], stubs[i+1]
		}
		_ = ok // unconnectable stub pairs are dropped
	}
	return g, nil
}

package aspolicy

import (
	"errors"

	"netmodel/internal/rng"
)

// Map-based reference traversals over the mutable graph and the
// relationship table. They are the straightforward per-pair-lookup
// forms of Frozen's CSR traversals, kept here as the oracles that the
// TestFrozen*MatchesMap suites compare the production code against.

// CustomerCone returns every AS's customer-cone size, one sequential
// provider→customer DFS per node.
func (a *Annotated) CustomerCone() []int {
	n := a.G.N()
	cone := make([]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var stack []int
	for u := 0; u < n; u++ {
		size := 0
		stack = append(stack[:0], u)
		mark[u] = u
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			a.G.Neighbors(v, func(w, _ int) bool {
				if a.RelOf(v, w) == P2C && mark[w] != u {
					mark[w] = u
					stack = append(stack, w)
				}
				return true
			})
		}
		cone[u] = size
	}
	return cone
}

// ValleyFreeDistances returns the shortest valley-free distance from
// src to every node, -1 where no policy-compliant path exists.
func (a *Annotated) ValleyFreeDistances(src int) ([]int, error) {
	n := a.G.N()
	if src < 0 || src >= n {
		return nil, errors.New("aspolicy: source out of range")
	}
	dist := make([]int, numPhases*n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src*numPhases+phaseUp] = 0
	queue := []int{src*numPhases + phaseUp}
	for len(queue) > 0 {
		state := queue[0]
		queue = queue[1:]
		u, phase := state/numPhases, state%numPhases
		d := dist[state]
		var stop bool
		a.G.Neighbors(u, func(v, _ int) bool {
			r := a.RelOf(u, v)
			if r == 0 {
				stop = true
				return false
			}
			var next int
			switch {
			case phase == phaseUp && r == C2P:
				next = v*numPhases + phaseUp
			case r == P2C:
				next = v*numPhases + phaseDown
			case phase == phaseUp && r == Peer:
				next = v*numPhases + phaseDown
			default:
				return true // policy forbids this step
			}
			if dist[next] < 0 {
				dist[next] = d + 1
				queue = append(queue, next)
			}
			return true
		})
		if stop {
			return nil, errors.New("aspolicy: annotation incomplete")
		}
	}
	out := make([]int, n)
	for v := 0; v < n; v++ {
		du := dist[v*numPhases+phaseUp]
		dd := dist[v*numPhases+phaseDown]
		switch {
		case du < 0:
			out[v] = dd
		case dd < 0:
			out[v] = du
		case du < dd:
			out[v] = du
		default:
			out[v] = dd
		}
	}
	return out, nil
}

// MeasureInflation compares plain and valley-free distances from
// `sources` sampled roots (all nodes when <= 0), one root at a time.
func (a *Annotated) MeasureInflation(r *rng.Rand, sources int) (Inflation, error) {
	n := a.G.N()
	if n < 2 {
		return Inflation{}, errors.New("aspolicy: need at least two nodes")
	}
	var srcs []int
	if sources <= 0 || sources >= n {
		srcs = make([]int, n)
		for i := range srcs {
			srcs[i] = i
		}
	} else {
		if r == nil {
			return Inflation{}, errors.New("aspolicy: sampling requires a generator")
		}
		srcs = r.Perm(n)[:sources]
	}
	var inf Inflation
	var sumS, sumP float64
	var both int
	for _, s := range srcs {
		plain := bfsPlain(a, s)
		policy, err := a.ValleyFreeDistances(s)
		if err != nil {
			return Inflation{}, err
		}
		for v := 0; v < n; v++ {
			if v == s || plain[v] < 0 {
				continue
			}
			inf.Pairs++
			if policy[v] < 0 {
				inf.Unreachable++
				continue
			}
			both++
			sumS += float64(plain[v])
			sumP += float64(policy[v])
			if st := policy[v] - plain[v]; st > inf.MaxStretch {
				inf.MaxStretch = st
			}
		}
	}
	if both > 0 {
		inf.AvgShortest = sumS / float64(both)
		inf.AvgPolicy = sumP / float64(both)
		if inf.AvgShortest > 0 {
			inf.Ratio = inf.AvgPolicy / inf.AvgShortest
		}
	}
	return inf, nil
}

// bfsPlain returns hop distances from src ignoring policy, -1 where
// unreachable.
func bfsPlain(a *Annotated, src int) []int {
	n := a.G.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		a.G.Neighbors(u, func(v, _ int) bool {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
			return true
		})
	}
	return dist
}

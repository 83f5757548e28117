// Package aspolicy adds the economics of Internet routing to raw
// topologies: every AS-AS link carries a business relationship —
// provider-to-customer, customer-to-provider or settlement-free peering
// — and packets only follow paths that make commercial sense.
//
// The export rule is Gao's: a route learned from a provider or peer is
// only announced to customers. The induced "valley-free" property says a
// valid AS path climbs customer→provider links, crosses at most one peer
// link at the top, then descends provider→customer — it never goes down
// and up again (a valley would mean an AS giving free transit).
//
// Annotated holds the relationship table and AnnotateByDegree fills it
// from the degree hierarchy, the standard heuristic for synthetic maps.
// Every policy metric is computed on the frozen CSR view (Freeze,
// FreezeWith): customer cones, valley-free shortest paths, and policy
// path inflation, one of the canonical quantities of the
// routing-policy literature. The map-based traversals that the frozen
// ones are checked against live in the package's tests.
package aspolicy

import (
	"errors"
	"fmt"
	"sort"

	"netmodel/internal/graph"
)

// Rel is the business relationship of an ordered AS pair (u,v).
type Rel int8

// Relationship values for an ordered pair (u,v).
const (
	// P2C: u is v's provider (u sells transit to v).
	P2C Rel = iota + 1
	// C2P: u is v's customer.
	C2P
	// Peer: settlement-free peering.
	Peer
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case P2C:
		return "p2c"
	case C2P:
		return "c2p"
	case Peer:
		return "peer"
	default:
		return fmt.Sprintf("rel(%d)", int(r))
	}
}

// Annotated is a topology with a relationship on every simple edge.
type Annotated struct {
	G    *graph.Graph
	rels map[[2]int]Rel // keyed by ordered pair with u < v, value is rel of (u,v)
}

// NewAnnotated wraps a graph with an empty relationship table.
func NewAnnotated(g *graph.Graph) *Annotated {
	return &Annotated{G: g, rels: make(map[[2]int]Rel)}
}

// RelOf returns the relationship of the ordered pair (u,v), or 0 when
// the edge is absent or unannotated.
func (a *Annotated) RelOf(u, v int) Rel {
	if u > v {
		return invert(a.rels[[2]int{v, u}])
	}
	return a.rels[[2]int{u, v}]
}

func invert(r Rel) Rel {
	switch r {
	case P2C:
		return C2P
	case C2P:
		return P2C
	default:
		return r
	}
}

// Counts returns the number of provider-customer and peering links.
func (a *Annotated) Counts() (p2c, peer int) {
	a.G.Edges(func(u, v, w int) bool {
		switch a.RelOf(u, v) {
		case Peer:
			peer++
		case P2C, C2P:
			p2c++
		}
		return true
	})
	return
}

// AnnotateByDegree assigns relationships from the degree hierarchy, the
// standard heuristic for synthetic maps: for each edge the higher-degree
// endpoint is the provider, unless the two degrees are within PeerRatio
// of each other (ratio in [1,∞)), in which case they peer. Ties peer.
func AnnotateByDegree(g *graph.Graph, peerRatio float64) (*Annotated, error) {
	if peerRatio < 1 {
		return nil, errors.New("aspolicy: peerRatio must be >= 1")
	}
	a := NewAnnotated(g)
	g.Edges(func(u, v, w int) bool {
		du, dv := g.Degree(u), g.Degree(v)
		lo, hi := du, dv
		if lo > hi {
			lo, hi = hi, lo
		}
		var r Rel
		switch {
		case float64(hi) <= peerRatio*float64(lo):
			r = Peer
		case du > dv:
			r = P2C
		default:
			r = C2P
		}
		a.rels[[2]int{u, v}] = r
		return true
	})
	return a, nil
}

// Providers returns the ASs that u buys transit from, sorted.
func (a *Annotated) Providers(u int) []int {
	var out []int
	a.G.Neighbors(u, func(v, _ int) bool {
		if a.RelOf(u, v) == C2P {
			out = append(out, v)
		}
		return true
	})
	sort.Ints(out)
	return out
}

// Customers returns the ASs that buy transit from u, sorted.
func (a *Annotated) Customers(u int) []int {
	var out []int
	a.G.Neighbors(u, func(v, _ int) bool {
		if a.RelOf(u, v) == P2C {
			out = append(out, v)
		}
		return true
	})
	sort.Ints(out)
	return out
}

// Tier1s returns ASs with customers but no providers — the top of the
// transit hierarchy.
func (a *Annotated) Tier1s() []int {
	var out []int
	for u := 0; u < a.G.N(); u++ {
		if len(a.Providers(u)) == 0 && len(a.Customers(u)) > 0 {
			out = append(out, u)
		}
	}
	return out
}

package gen

import (
	"fmt"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// TransitStub is a GT-ITM-style hierarchical generator (Zegura-Calvert-
// Bhattacharjee): the network is built as explicit routing hierarchy
// rather than emergent structure. Transit domains form a connected
// random core; every transit node sponsors stub domains; stub domains
// are connected random subgraphs hanging off their transit node. The
// model encodes the pre-power-law mental model of the Internet
// ("backbones and campuses") and is the structured baseline in the
// comparison experiments: realistic hierarchy, no heavy tail.
type TransitStub struct {
	Transits      int     // number of transit domains
	TransitSize   int     // nodes per transit domain
	StubsPerNode  int     // stub domains sponsored by each transit node
	StubSize      int     // nodes per stub domain
	EdgeP         float64 // intra-domain edge probability beyond the spanning backbone
	ExtraTransitP float64 // probability of extra inter-transit-domain links
}

// DefaultTransitStub returns a parameterization producing on the order
// of n nodes.
func DefaultTransitStub(n int) TransitStub {
	ts := TransitStub{Transits: 4, TransitSize: 8, StubsPerNode: 3, StubSize: 8, EdgeP: 0.4, ExtraTransitP: 0.3}
	// nodes = T*TS + T*TS*SPN*SS; solve for StubSize to approximate n.
	base := ts.Transits * ts.TransitSize
	if n > base {
		ts.StubSize = (n - base) / (base * ts.StubsPerNode)
		if ts.StubSize < 1 {
			ts.StubSize = 1
		}
	}
	return ts
}

// Name implements Generator.
func (TransitStub) Name() string { return "transitstub" }

// Generate implements Generator.
func (m TransitStub) Generate(r *rng.Rand) (*Topology, error) {
	if m.Transits <= 0 || m.TransitSize <= 0 || m.StubsPerNode < 0 || m.StubSize <= 0 {
		return nil, errPositive(m.Name(), "all sizes")
	}
	if m.EdgeP < 0 || m.EdgeP > 1 || m.ExtraTransitP < 0 || m.ExtraTransitP > 1 {
		return nil, errPositive(m.Name(), "probabilities in [0,1]")
	}
	// Nodes = T·TS·(1 + SPN·SS), multiplied in float64 so the check
	// itself cannot overflow; the product is exact near the bound.
	if n := float64(m.Transits) * float64(m.TransitSize) * (1 + float64(m.StubsPerNode)*float64(m.StubSize)); n > maxN {
		return nil, fmt.Errorf("gen/%s: %.0f nodes above the %d-node limit", m.Name(), n, maxN)
	}
	g := graph.New(0)
	// connectedCluster adds size nodes wired as a random connected
	// subgraph (random tree + extra EdgeP links) and returns their ids.
	connectedCluster := func(size int) []int {
		ids := make([]int, size)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for i := 1; i < size; i++ {
			g.MustAddEdge(ids[i], ids[r.Intn(i)])
		}
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if !g.HasEdge(ids[i], ids[j]) && r.Float64() < m.EdgeP {
					g.MustAddEdge(ids[i], ids[j])
				}
			}
		}
		return ids
	}
	// Transit domains.
	domains := make([][]int, m.Transits)
	for d := range domains {
		domains[d] = connectedCluster(m.TransitSize)
	}
	// Inter-transit backbone: ring of domains plus random extras, linking
	// random representatives.
	link := func(a, b []int) {
		u := a[r.Intn(len(a))]
		v := b[r.Intn(len(b))]
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	for d := 0; d < m.Transits; d++ {
		link(domains[d], domains[(d+1)%m.Transits])
	}
	for a := 0; a < m.Transits; a++ {
		for b := a + 2; b < m.Transits; b++ {
			if r.Float64() < m.ExtraTransitP {
				link(domains[a], domains[b])
			}
		}
	}
	// Stub domains per transit node.
	for _, dom := range domains {
		for _, tnode := range dom {
			for s := 0; s < m.StubsPerNode; s++ {
				stub := connectedCluster(m.StubSize)
				g.MustAddEdge(tnode, stub[r.Intn(len(stub))])
			}
		}
	}
	return &Topology{G: g}, nil
}

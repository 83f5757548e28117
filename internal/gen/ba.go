package gen

import (
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// BA is the Barabási–Albert growth model: starting from a small seed,
// each arriving node attaches M edges to existing nodes with probability
// proportional to k + A (linear preferential attachment with initial
// attractiveness A).
//
// With A = 0 the degree exponent is the classic γ = 3 — visibly steeper
// than the measured AS-map γ ≈ 2.1–2.2, which is why plain BA appears in
// every comparison as the "right mechanism, wrong exponent" baseline.
// Negative A in (−M, 0) flattens the exponent toward γ = 3 + A/M,
// allowing the empirical range to be reached.
type BA struct {
	N int
	M int     // edges per arriving node
	A float64 // initial attractiveness, > -M
}

// Name implements Generator.
func (BA) Name() string { return "ba" }

func (m BA) validate() error {
	if err := validateN(m.Name(), m.N); err != nil {
		return err
	}
	if m.M <= 0 {
		return errPositive(m.Name(), "M")
	}
	if float64(m.M)+m.A <= 0 {
		return errPositive(m.Name(), "M + A")
	}
	return nil
}

// Generate implements Generator. Attachment sampling uses the Fenwick
// tree, O(N·M·log N) overall. This is the sequential reference the
// sharded kernel is pinned against.
func (m BA) Generate(r *rng.Rand) (*Topology, error) {
	return m.generate(r, Trajectory{})
}

// generate is the sequential growth loop with optional trajectory
// observation; a disabled Trajectory reproduces Generate exactly
// (observation draws no randomness and nodes take the same dense ids).
func (m BA) generate(r *rng.Rand, traj Trajectory) (*Topology, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := m.M + 1
	if seed > m.N {
		seed = m.N
	}
	cur := newTrajectoryCursor(traj, seed)
	g := graph.New(seed)
	g.Reserve(m.N)
	f := rng.NewFenwick(r, m.N)
	// Connected seed: a small clique so every seed node has degree > 0.
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			g.MustAddEdge(u, v)
		}
	}
	for u := 0; u < seed; u++ {
		f.Set(u, float64(g.Degree(u))+m.A)
	}
	for u := seed; u < m.N; u++ {
		g.AddNode()
		targets := f.SampleDistinct(m.M)
		for _, v := range targets {
			g.MustAddEdge(u, v)
			f.Add(v, 1)
		}
		f.Set(u, float64(g.Degree(u))+m.A)
		if err := cur.visit(g, g.N()); err != nil {
			return nil, err
		}
	}
	if err := cur.finish(g, g.N()); err != nil {
		return nil, err
	}
	return &Topology{G: g}, nil
}

// GenerateSharded implements ShardedGenerator: arrivals are planned in
// frozen-weight rounds (each arrival samples its M distinct targets
// against the round's alias table with its own seed-derived stream, in
// parallel) and committed in arrival order. Every edge joins the new
// node to a pre-round node, so commits never conflict; weight updates
// are plain array writes, O(1) against the Fenwick path's O(log N).
func (m BA) GenerateSharded(r *rng.Rand, workers int) (*Topology, error) {
	return m.generateSharded(r, workers, Trajectory{})
}

// GenerateTrajectory implements TrajectoryGenerator: the growth loops
// pause at every Every-node boundary and hand the live graph to the
// observer, sequentially (workers <= 1) or inside the sharded kernel's
// commit phase (workers >= 2).
func (m BA) GenerateTrajectory(r *rng.Rand, workers int, t Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, t)
	}
	return m.generateSharded(r, workers, t)
}

func (m BA) generateSharded(r *rng.Rand, workers int, traj Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, traj)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := m.M + 1
	if seed > m.N {
		seed = m.N
	}
	k := newGrowth(r, workers, m.N)
	cur := newTrajectoryCursor(traj, seed)
	if cur != nil {
		k.mirror()
	}
	for u := 0; u < seed; u++ {
		k.addNode()
	}
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			k.addEdge(u, v)
		}
	}
	for u := 0; u < seed; u++ {
		k.weights[u] = float64(k.degree[u]) + m.A
	}
	var flat []int
	var lens []int
	for k.n < m.N {
		b := growthBatch(k.n, m.N-k.n)
		t := k.freeze()
		if cap(flat) < b*m.M {
			flat = make([]int, b*m.M)
			lens = make([]int, b)
		}
		k.forItems(b, func(i int, rs *rng.Rand) {
			seg := k.sampleDistinct(t, rs, m.M, nil, flat[i*m.M:i*m.M:(i+1)*m.M])
			lens[i] = len(seg)
		})
		for i := 0; i < b; i++ {
			u := k.addNode()
			for _, v := range flat[i*m.M : i*m.M+lens[i]] {
				k.addEdge(u, v)
				k.weights[v]++
			}
			k.weights[u] = float64(k.degree[u]) + m.A
			if err := cur.visit(k.live, k.n); err != nil {
				return nil, err
			}
		}
	}
	if err := cur.finish(k.live, k.n); err != nil {
		return nil, err
	}
	g, err := k.build()
	if err != nil {
		return nil, err
	}
	return &Topology{G: g}, nil
}

package gen

import (
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// GLP is the Generalized Linear Preference model (Bu–Towsley 2002),
// designed specifically to match AS-map statistics that plain BA misses.
// At each step, with probability P the network adds M new links between
// existing nodes; otherwise a new node joins with M links. Targets are
// drawn with probability proportional to k − Beta, where Beta < 1 shifts
// preference toward high-degree nodes and tunes the exponent to
// γ ≈ 2.2 while the internal-link steps raise clustering to AS-map
// levels — the combination that made GLP the reference "Internet-like"
// degree-driven generator.
type GLP struct {
	N    int
	M    int     // links per step
	P    float64 // probability of an internal-link step
	Beta float64 // preference shift, < 1
}

// Name implements Generator.
func (GLP) Name() string { return "glp" }

func (m GLP) validate() error {
	if err := validateN(m.Name(), m.N); err != nil {
		return err
	}
	if m.M <= 0 {
		return errPositive(m.Name(), "M")
	}
	if m.P < 0 || m.P >= 1 {
		return errPositive(m.Name(), "P in [0,1)")
	}
	if m.Beta >= 1 {
		return errPositive(m.Name(), "1 - Beta")
	}
	return nil
}

// Generate implements Generator. This is the sequential reference the
// sharded kernel is pinned against.
func (m GLP) Generate(r *rng.Rand) (*Topology, error) {
	return m.generate(r, Trajectory{})
}

// GenerateTrajectory implements TrajectoryGenerator; internal-link
// steps leave the node count unchanged, so epochs land exactly on
// arrival boundaries in both the sequential and sharded paths.
func (m GLP) GenerateTrajectory(r *rng.Rand, workers int, t Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, t)
	}
	return m.generateSharded(r, workers, t)
}

func (m GLP) generate(r *rng.Rand, traj Trajectory) (*Topology, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := m.M + 2
	if seed > m.N {
		seed = m.N
	}
	cur := newTrajectoryCursor(traj, seed)
	g := graph.New(seed)
	g.Reserve(m.N)
	f := rng.NewFenwick(r, m.N)
	for u := 1; u < seed; u++ {
		g.MustAddEdge(u-1, u)
	}
	weight := func(u int) float64 { return float64(g.Degree(u)) - m.Beta }
	for u := 0; u < seed; u++ {
		f.Set(u, weight(u))
	}
	for g.N() < m.N {
		if r.Float64() < m.P && g.N() >= 2 {
			// Internal links: M pairs of distinct preferential endpoints.
			for i := 0; i < m.M; i++ {
				pair := f.SampleDistinct(2)
				if len(pair) < 2 {
					break
				}
				u, v := pair[0], pair[1]
				if g.HasEdge(u, v) {
					continue // GLP discards duplicate internal links
				}
				g.MustAddEdge(u, v)
				f.Set(u, weight(u))
				f.Set(v, weight(v))
			}
			continue
		}
		u := g.AddNode()
		targets := f.SampleDistinct(m.M)
		for _, v := range targets {
			g.MustAddEdge(u, v)
			f.Set(v, weight(v))
		}
		f.Set(u, weight(u))
		if err := cur.visit(g, g.N()); err != nil {
			return nil, err
		}
	}
	if err := cur.finish(g, g.N()); err != nil {
		return nil, err
	}
	return &Topology{G: g}, nil
}

// GenerateSharded implements ShardedGenerator. Each round first draws
// its step schedule (internal-link step vs new-node step, the same
// Bernoulli the sequential loop runs at each iteration head) from the
// main stream, then plans every step's preferential draws in parallel
// against the round's frozen weights — M endpoint pairs for an internal
// step, M distinct targets for an arrival — and commits in step order,
// discarding duplicate internal links exactly as the sequential model
// does.
func (m GLP) GenerateSharded(r *rng.Rand, workers int) (*Topology, error) {
	return m.generateSharded(r, workers, Trajectory{})
}

func (m GLP) generateSharded(r *rng.Rand, workers int, traj Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, traj)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := m.M + 2
	if seed > m.N {
		seed = m.N
	}
	cur := newTrajectoryCursor(traj, seed)
	k := newGrowth(r, workers, m.N)
	if cur != nil {
		k.mirror()
	}
	k.trackDuplicates(m.N)
	for u := 0; u < seed; u++ {
		k.addNode()
	}
	for u := 1; u < seed; u++ {
		k.addEdge(u-1, u)
	}
	wOf := func(u int) float64 {
		w := float64(k.degree[u]) - m.Beta
		if w < 0 {
			return 0
		}
		return w
	}
	for u := 0; u < seed; u++ {
		k.weights[u] = wOf(u)
	}
	kMax := 2 * m.M // slots per step: M pairs, or M targets
	var steps []bool
	var flat []int
	var lens []int
	for k.n < m.N {
		nodes := growthBatch(k.n, m.N-k.n)
		steps = steps[:0]
		for arrived := 0; arrived < nodes; {
			if r.Float64() < m.P && k.n >= 2 {
				steps = append(steps, true)
			} else {
				steps = append(steps, false)
				arrived++
			}
		}
		t := k.freeze()
		if cap(flat) < len(steps)*kMax {
			flat = make([]int, len(steps)*kMax)
			lens = make([]int, len(steps))
		}
		k.forItems(len(steps), func(i int, rs *rng.Rand) {
			seg := flat[i*kMax : i*kMax : (i+1)*kMax]
			if steps[i] {
				var pb [2]int
				for j := 0; j < m.M; j++ {
					pair := k.sampleDistinct(t, rs, 2, nil, pb[:0])
					if len(pair) < 2 {
						break
					}
					seg = append(seg, pair[0], pair[1])
				}
			} else {
				seg = k.sampleDistinct(t, rs, m.M, nil, seg)
			}
			lens[i] = len(seg)
		})
		for i, internal := range steps {
			seg := flat[i*kMax : i*kMax+lens[i]]
			if internal {
				for j := 0; j+1 < len(seg); j += 2 {
					u, v := seg[j], seg[j+1]
					if k.hasEdge(u, v) {
						continue // GLP discards duplicate internal links
					}
					k.addEdge(u, v)
					k.weights[u] = wOf(u)
					k.weights[v] = wOf(v)
				}
			} else {
				u := k.addNode()
				for _, v := range seg {
					k.addEdge(u, v)
					k.weights[v] = wOf(v)
				}
				k.weights[u] = wOf(u)
				if err := cur.visit(k.live, k.n); err != nil {
					return nil, err
				}
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

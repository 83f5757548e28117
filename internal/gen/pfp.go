package gen

import (
	"math"

	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// PFP is the Positive-Feedback Preference model (Zhou–Mondragón 2004),
// built around two observations from AS maps: growth is mostly driven by
// new links between existing nodes ("interactive growth"), and rich
// nodes gain degree super-linearly. Attachment probability is
// proportional to k^(1 + Delta·log10 k). At each step:
//
//   - with probability P:   a new node attaches to one host, and that
//     host gains one internal link to a peer;
//   - with probability Q:   a new node attaches to one host, and the
//     host gains two internal peer links;
//   - otherwise:            a new node attaches to two hosts, and the
//     first host gains one internal peer link.
//
// The defaults P=0.4, Q=0.3, Delta=0.048 are the published calibration;
// PFP reproduces the AS map's exponent, rich-club and disassortativity
// simultaneously, which degree-linear models cannot.
type PFP struct {
	N     int
	P, Q  float64
	Delta float64
}

// DefaultPFP returns the published parameterization at size n.
func DefaultPFP(n int) PFP { return PFP{N: n, P: 0.4, Q: 0.3, Delta: 0.048} }

// Name implements Generator.
func (PFP) Name() string { return "pfp" }

func (m PFP) validate() error {
	if err := validateN(m.Name(), m.N); err != nil {
		return err
	}
	if m.P < 0 || m.Q < 0 || m.P+m.Q > 1 {
		return errPositive(m.Name(), "P,Q with P+Q <= 1")
	}
	if m.Delta < 0 {
		return errPositive(m.Name(), "Delta")
	}
	return nil
}

// Generate implements Generator. This is the sequential reference the
// sharded kernel is pinned against.
func (m PFP) Generate(r *rng.Rand) (*Topology, error) {
	return m.generate(r, Trajectory{})
}

// GenerateTrajectory implements TrajectoryGenerator: observation lands
// after each arrival's full step, host links and internal peer links
// included.
func (m PFP) GenerateTrajectory(r *rng.Rand, workers int, t Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, t)
	}
	return m.generateSharded(r, workers, t)
}

func (m PFP) generate(r *rng.Rand, traj Trajectory) (*Topology, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := 3
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
	weight := func(u int) float64 {
		k := float64(g.Degree(u))
		if k <= 0 {
			return 0
		}
		return math.Pow(k, 1+m.Delta*math.Log10(k))
	}
	for u := 0; u < seed; u++ {
		f.Set(u, weight(u))
	}
	refresh := func(us ...int) {
		for _, u := range us {
			f.Set(u, weight(u))
		}
	}
	// addInternal links host to a preferentially chosen peer != host,
	// skipping duplicates (PFP discards them).
	addInternal := func(host int) {
		saved := f.Weight(host)
		f.Set(host, 0)
		peer := f.Sample()
		f.Set(host, saved)
		if peer < 0 || peer == host || g.HasEdge(host, peer) {
			return
		}
		g.MustAddEdge(host, peer)
		refresh(host, peer)
	}
	for g.N() < m.N {
		x := r.Float64()
		u := g.AddNode()
		switch {
		case x < m.P:
			hosts := f.SampleDistinct(1)
			if len(hosts) == 1 {
				g.MustAddEdge(u, hosts[0])
				refresh(u, hosts[0])
				addInternal(hosts[0])
			}
		case x < m.P+m.Q:
			hosts := f.SampleDistinct(1)
			if len(hosts) == 1 {
				g.MustAddEdge(u, hosts[0])
				refresh(u, hosts[0])
				addInternal(hosts[0])
				addInternal(hosts[0])
			}
		default:
			hosts := f.SampleDistinct(2)
			for _, h := range hosts {
				g.MustAddEdge(u, h)
				refresh(h)
			}
			refresh(u)
			if len(hosts) > 0 {
				addInternal(hosts[0])
			}
		}
		if err := cur.visit(g, g.N()); err != nil {
			return nil, err
		}
	}
	if err := cur.finish(g, g.N()); err != nil {
		return nil, err
	}
	return &Topology{G: g}, nil
}

// pfpSlots is the fixed plan layout per PFP step: up to two hosts plus
// up to two internal peers, -1 marking absent draws.
const pfpSlots = 4

// GenerateSharded implements ShardedGenerator. Every step adds one node,
// so a round of growthBatch arrivals draws its step kinds (P/Q/other)
// from the main stream, plans hosts and internal peers for all steps in
// parallel against the frozen super-linear weights (peers exclude their
// host at plan time, mirroring addInternal's zeroed-host draw), and
// commits in step order, discarding duplicate internal links as the
// sequential model does.
func (m PFP) GenerateSharded(r *rng.Rand, workers int) (*Topology, error) {
	return m.generateSharded(r, workers, Trajectory{})
}

func (m PFP) generateSharded(r *rng.Rand, workers int, traj Trajectory) (*Topology, error) {
	if workers <= 1 {
		return m.generate(r, traj)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	seed := 3
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
		kk := float64(k.degree[u])
		if kk <= 0 {
			return 0
		}
		return math.Pow(kk, 1+m.Delta*math.Log10(kk))
	}
	for u := 0; u < seed; u++ {
		k.weights[u] = wOf(u)
	}
	refresh := func(us ...int) {
		for _, u := range us {
			k.weights[u] = wOf(u)
		}
	}
	// internal commits a planned host→peer link unless the plan's peer
	// is absent or the link already exists (PFP discards duplicates).
	internal := func(host, peer int) {
		if peer < 0 || peer == host || k.hasEdge(host, peer) {
			return
		}
		k.addEdge(host, peer)
		refresh(host, peer)
	}
	var kinds []byte
	var flat []int
	for k.n < m.N {
		b := growthBatch(k.n, m.N-k.n)
		kinds = kinds[:0]
		for i := 0; i < b; i++ {
			x := r.Float64()
			switch {
			case x < m.P:
				kinds = append(kinds, 0)
			case x < m.P+m.Q:
				kinds = append(kinds, 1)
			default:
				kinds = append(kinds, 2)
			}
		}
		t := k.freeze()
		if cap(flat) < b*pfpSlots {
			flat = make([]int, b*pfpSlots)
		}
		k.forItems(b, func(i int, rs *rng.Rand) {
			seg := flat[i*pfpSlots : (i+1)*pfpSlots]
			seg[0], seg[1], seg[2], seg[3] = -1, -1, -1, -1
			var hb, pb [2]int
			peerOf := func(host int) int {
				p := k.sampleDistinct(t, rs, 1, func(c int) bool { return c == host }, pb[:0])
				if len(p) == 0 {
					return -1
				}
				return p[0]
			}
			switch kinds[i] {
			case 0: // new node → host; host gains one peer link
				if hosts := k.sampleDistinct(t, rs, 1, nil, hb[:0]); len(hosts) == 1 {
					h := hosts[0]
					seg[0] = h
					seg[2] = peerOf(h)
				}
			case 1: // new node → host; host gains two peer links
				if hosts := k.sampleDistinct(t, rs, 1, nil, hb[:0]); len(hosts) == 1 {
					h := hosts[0]
					seg[0] = h
					seg[2] = peerOf(h)
					seg[3] = peerOf(h)
				}
			default: // new node → two hosts; first host gains one peer link
				hosts := k.sampleDistinct(t, rs, 2, nil, hb[:0])
				var h0, h1 = -1, -1
				if len(hosts) > 0 {
					h0 = hosts[0]
				}
				if len(hosts) > 1 {
					h1 = hosts[1]
				}
				if h0 >= 0 {
					seg[0] = h0
					seg[2] = peerOf(h0)
				}
				seg[1] = h1
			}
		})
		for i := range kinds {
			seg := flat[i*pfpSlots : (i+1)*pfpSlots]
			u := k.addNode()
			if seg[0] >= 0 {
				k.addEdge(u, seg[0])
				refresh(u, seg[0])
			}
			if seg[1] >= 0 {
				k.addEdge(u, seg[1])
				refresh(u, seg[1])
			}
			if seg[0] >= 0 {
				internal(seg[0], seg[2])
				internal(seg[0], seg[3])
			}
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

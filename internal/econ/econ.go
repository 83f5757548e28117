// Package econ implements the socio-economic growth engine of netmodel:
// an Internet model where the topology emerges from a demand/supply
// market rather than from wiring rules alone.
//
// The environment is a pool of users (demand) growing exponentially at
// rate Alpha. Autonomous systems (supply) compete for those users by
// linear preferential attachment — rich-get-richer competition — while
// new ASs enter at rate Beta with a minimum viable customer base Omega0.
// Each AS continuously adapts its total bandwidth (modeled as edge
// multiplicity) to its customer base; bandwidth increases must be
// negotiated with a peer that also wants capacity, optionally damped by
// geographic link cost. The construction follows the competition-and-
// adaptation family of weighted growth models (Serrano-Boguñá-
// Díaz-Guilera 2005), which this package uses as the "economics-driven"
// member of the generator comparison matrix.
//
// Beyond the topology, the engine records a full monthly history of
// demand, supply and capacity, which the market layer (market.go) turns
// into per-AS revenue, cost and profit — the "can you make a living?"
// question asked quantitatively.
package econ

import (
	"errors"
	"fmt"
	"math"

	"netmodel/internal/geom"
	"netmodel/internal/graph"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// econRootTag keys the derivation of the sharded rounds' stream root
// off the caller's generator, keeping per-AS sub-streams disjoint from
// the main stream that link formation keeps drawing from.
const econRootTag = ^uint64(0)

// econPhases is the number of per-month sharded phases (demand
// allocation, churn); each gets its own stream-index band.
const econPhases = 2

// Model parameterizes the growth engine. Rates are per month, matching
// the units of the 1997-2002 measurements (Alpha ≈ 0.036 for hosts,
// Beta ≈ 0.030 for ASs, DeltaPrime ≈ 0.040 for total bandwidth).
type Model struct {
	Alpha      float64 // user (demand) growth rate
	Beta       float64 // AS (supply) growth rate
	DeltaPrime float64 // total-bandwidth growth rate, > Alpha
	Lambda     float64 // monthly user churn probability
	Omega0     float64 // minimum viable users per AS
	N0         int     // initial AS count
	TargetN    int     // stop once this many ASs exist
	R          float64 // link reinforcement probability (multi-edges)
	// Distance, when true, applies the exponential link-cost constraint
	// D(d) = exp(-d/dc) with dc = wi*wj/(Kappa*W) over a fractal
	// (D_f = 1.5) AS placement.
	Distance bool
	Kappa    float64 // link-cost scale; only used when Distance is set
	// Workers shards the per-month competition rounds — demand
	// allocation, churn and the bandwidth-adaptation scan — across a
	// pool, each AS drawing from its own seed-derived sub-stream keyed
	// by (month, phase, AS). Workers <= 1 runs the sequential reference
	// path unchanged; at Workers >= 2 the run is a pure function of the
	// seed, identical across repeated runs and across worker counts
	// (link formation itself stays on the main stream: the pairwise
	// bandwidth negotiation is a serial chain by construction).
	Workers int
}

// Default returns the published calibration targeting n ASs.
func Default(n int) Model {
	return Model{
		Alpha: 0.035, Beta: 0.030, DeltaPrime: 0.040,
		Lambda: 0.01, Omega0: 5000, N0: 2,
		TargetN: n, R: 0.8,
		Distance: false, Kappa: 30,
	}
}

// DefaultDistance is Default with the geographic constraint enabled.
func DefaultDistance(n int) Model {
	m := Default(n)
	m.Distance = true
	return m
}

// MonthStats is one row of the growth history.
type MonthStats struct {
	Month     int
	Users     float64 // W(t): total demand
	Nodes     int     // N(t)
	Edges     int     // E(t): simple edges
	Bandwidth int     // B(t): total multiplicity
}

// Result is the output of a growth run.
type Result struct {
	G       *graph.Graph
	Pos     []geom.Point // nil without the distance constraint
	Users   []float64    // final per-AS customer base
	History []MonthStats
}

// validate rejects parameterizations outside the supported regime.
func (m Model) validate() error {
	switch {
	case m.Alpha <= 0 || m.Beta <= 0 || m.DeltaPrime <= 0:
		return errors.New("econ: growth rates must be positive")
	case m.Alpha <= m.Beta:
		return errors.New("econ: demand must outgrow supply (Alpha > Beta)")
	case m.DeltaPrime <= m.Alpha:
		return errors.New("econ: bandwidth must outgrow demand (DeltaPrime > Alpha)")
	case m.Lambda < 0 || m.Lambda >= 1:
		return errors.New("econ: Lambda must be in [0,1)")
	case m.Omega0 <= 0:
		return errors.New("econ: Omega0 must be positive")
	case m.N0 < 2:
		return errors.New("econ: need at least two initial ASs")
	case m.TargetN < m.N0:
		return errors.New("econ: TargetN below N0")
	case m.TargetN > math.MaxInt32:
		// Frozen snapshots store node ids as int32; reject before the
		// per-AS slices are sized.
		return fmt.Errorf("econ: TargetN=%d above the %d-node limit", m.TargetN, math.MaxInt32)
	case m.R < 0 || m.R >= 1:
		return errors.New("econ: R must be in [0,1)")
	case m.Distance && m.Kappa <= 0:
		return errors.New("econ: Kappa must be positive with Distance")
	}
	return nil
}

// Run grows the network until TargetN autonomous systems exist and
// returns the final topology, customer bases and monthly history.
func (m Model) Run(r *rng.Rand) (*Result, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	// Months needed: N0·e^{Beta·t} = TargetN.
	months := int(math.Ceil(math.Log(float64(m.TargetN)/float64(m.N0)) / m.Beta))
	if months < 1 {
		months = 1
	}

	g := graph.New(m.N0)
	users := make([]float64, 0, m.TargetN)
	for i := 0; i < m.N0; i++ {
		users = append(users, m.Omega0)
	}
	g.MustAddEdge(0, 1)
	var pos []geom.Point
	if m.Distance {
		// Pre-draw positions for every AS that will ever exist so the
		// fractal set is one consistent embedding.
		pts, err := geom.Fractal(r, m.TargetN+m.N0, 1.5)
		if err != nil {
			return nil, err
		}
		pos = pts
	}

	totalUsers := m.Omega0 * float64(m.N0)
	w0N0 := totalUsers
	history := make([]MonthStats, 0, months)

	need := make([]float64, 0, m.TargetN) // bandwidth deficit per AS
	needF := rng.NewFenwick(r, m.TargetN+m.N0)

	// Sharded-round state: each AS draws from sub-stream
	// (month*phases+phase)<<32 | AS of the root, so what it draws is a
	// pure function of the seed — never of worker interleaving.
	sharded := m.Workers > 1
	var root rng.Rand
	var childs []rng.Rand
	var draws []float64
	if sharded {
		r.SplitInto(&root, econRootTag)
		childs = make([]rng.Rand, par.Workers(m.Workers))
		draws = make([]float64, 0, m.TargetN+m.N0)
	}
	streamTag := func(t, phase int) uint64 {
		return uint64(t*econPhases+phase) << 32
	}

	for t := 1; t <= months && g.N() < m.TargetN; t++ {
		// (i) New demand: ΔW users pick providers by linear preference.
		// Poisson-thinned proportional allocation keeps O(N) per month
		// while preserving the fluctuations that shape the size
		// distribution of small ASs.
		deltaW := w0N0 * (math.Exp(m.Alpha*float64(t)) - math.Exp(m.Alpha*float64(t-1)))
		if totalUsers > 0 {
			scale := deltaW / totalUsers
			if sharded {
				draws = draws[:len(users)]
				tag := streamTag(t, 0)
				par.For(len(users), m.Workers, func(w, i int) {
					rs := &childs[w]
					root.SplitInto(rs, tag|uint64(i))
					draws[i] = float64(rs.Poisson(users[i] * scale))
				})
				for i, gain := range draws {
					users[i] += gain
					totalUsers += gain
				}
			} else {
				for i := range users {
					gain := float64(r.Poisson(users[i] * scale))
					users[i] += gain
					totalUsers += gain
				}
			}
		}
		// (iii) Churn: each user relocates with probability Lambda,
		// choosing the new AS by the same preference. Because both the
		// loss and the gain are proportional to size, the expected drift
		// is zero; only the diffusion matters, so a symmetric Poisson
		// exchange suffices.
		if m.Lambda > 0 && len(users) > 1 {
			moved := 0.0
			if sharded {
				draws = draws[:len(users)]
				tag := streamTag(t, 1)
				par.For(len(users), m.Workers, func(w, i int) {
					rs := &childs[w]
					root.SplitInto(rs, tag|uint64(i))
					out := float64(rs.Poisson(users[i] * m.Lambda))
					if out > users[i]-1 {
						out = math.Max(0, users[i]-1)
					}
					draws[i] = out
				})
				for i, out := range draws {
					users[i] -= out
					moved += out
				}
			} else {
				for i := range users {
					out := float64(r.Poisson(users[i] * m.Lambda))
					if out > users[i]-1 {
						out = math.Max(0, users[i]-1)
					}
					users[i] -= out
					moved += out
				}
			}
			base := totalUsers - moved
			if base > 0 {
				for i := range users {
					users[i] += moved * users[i] / base
				}
			}
		}
		// (ii) New supply: ASs enter so the population tracks
		// N0·e^{Beta·t} cumulatively (per-month rounding would silently
		// drop fractional arrivals and bias the realized growth rate).
		// Each entrant's Omega0 starter base is withdrawn from incumbents
		// uniformly per AS with a reflecting boundary at Omega0 — the
		// −β·ω0 drift of the continuum model, which keeps large ASs
		// growing at the full demand rate and no AS below viability.
		deltaN := int(math.Round(float64(m.N0)*math.Exp(m.Beta*float64(t)))) - g.N()
		added := 0
		for j := 0; j < deltaN && g.N() < m.TargetN; j++ {
			g.AddNode()
			users = append(users, m.Omega0)
			totalUsers += m.Omega0
			added++
		}
		if added > 0 {
			poach := m.Omega0 * float64(added)
			incumbents := len(users) - added
			for pass := 0; pass < 4 && poach > 1e-9; pass++ {
				eligible := 0
				for i := 0; i < incumbents; i++ {
					if users[i] > m.Omega0 {
						eligible++
					}
				}
				if eligible == 0 {
					break
				}
				share := poach / float64(eligible)
				for i := 0; i < incumbents; i++ {
					if users[i] <= m.Omega0 {
						continue
					}
					take := math.Min(share, users[i]-m.Omega0)
					users[i] -= take
					totalUsers -= take
					poach -= take
				}
			}
		}
		// (iv) Adaptation: every AS sizes its bandwidth to its customer
		// base, b_i = 1 + a(t)(w_i − ω0), with a(t) = 2B(t)/W(t) and the
		// capacity budget B(t) growing at DeltaPrime. The deficit scan
		// is per-AS arithmetic over the (read-only) graph, so the
		// sharded path evaluates it element-wise in parallel; the
		// reduction runs in index order either way, keeping the total
		// bit-identical across worker counts.
		bTarget := math.Exp(m.DeltaPrime * float64(t))
		a := 2 * bTarget / totalUsers
		need = need[:len(users)]
		if sharded {
			par.For(len(users), m.Workers, func(_, i int) {
				want := 1 + a*math.Max(0, users[i]-m.Omega0)
				d := want - float64(g.Strength(i))
				if d < 0 {
					d = 0
				}
				need[i] = d
			})
		} else {
			for i := range users {
				want := 1 + a*math.Max(0, users[i]-m.Omega0)
				d := want - float64(g.Strength(i))
				if d < 0 {
					d = 0
				}
				need[i] = d
			}
		}
		totalNeed := 0.0
		for _, d := range need {
			totalNeed += d
		}
		if g.N() >= 2 && totalNeed >= 2 {
			for i, d := range need {
				needF.Set(i, d)
			}
			for i := g.N(); i < needF.Len(); i++ {
				needF.Set(i, 0)
			}
			m.formLinks(r, g, pos, users, totalUsers, need, needF)
		}
		history = append(history, MonthStats{
			Month: t, Users: totalUsers, Nodes: g.N(), Edges: g.M(), Bandwidth: g.TotalStrength(),
		})
	}
	res := &Result{G: g, Users: users, History: history}
	if m.Distance {
		res.Pos = pos[:g.N()]
	}
	return res, nil
}

// formLinks matches bandwidth-hungry ASs pairwise: both endpoints are
// drawn proportionally to their deficit, pass the distance filter when
// enabled, connect once and then keep reinforcing with probability R
// while both still need capacity.
func (m Model) formLinks(r *rng.Rand, g *graph.Graph, pos []geom.Point,
	users []float64, totalUsers float64, need []float64, needF *rng.Fenwick) {

	attempts := 0
	maxAttempts := int(needF.Total()*8) + 64
	for needF.Total() >= 2 && attempts < maxAttempts {
		attempts++
		pair := needF.SampleDistinct(2)
		if len(pair) < 2 {
			break
		}
		i, j := pair[0], pair[1]
		if m.Distance {
			d := pos[i].Dist(pos[j])
			dc := users[i] * users[j] / (m.Kappa * totalUsers)
			if r.Float64() >= math.Exp(-d/dc) {
				continue
			}
		}
		g.MustAddEdge(i, j)
		dec := func(u int) {
			need[u]--
			if need[u] < 0 {
				need[u] = 0
			}
			needF.Set(u, need[u])
		}
		dec(i)
		dec(j)
		// Reinforcement: cheap extra capacity on the freshly negotiated
		// link while both peers still have deficit.
		for need[i] >= 1 && need[j] >= 1 && r.Float64() < m.R {
			g.MustAddEdge(i, j)
			dec(i)
			dec(j)
		}
	}
}

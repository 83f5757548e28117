package econ

import (
	"math"
	"slices"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

func TestValidate(t *testing.T) {
	bad := []Model{
		{}, // all zero
		func() Model { m := Default(100); m.Alpha = m.Beta; return m }(),       // demand not above supply
		func() Model { m := Default(100); m.DeltaPrime = m.Alpha; return m }(), // bandwidth not above demand
		func() Model { m := Default(100); m.Lambda = 1; return m }(),
		func() Model { m := Default(100); m.Omega0 = 0; return m }(),
		func() Model { m := Default(100); m.N0 = 1; return m }(),
		func() Model { m := Default(100); m.TargetN = 1; return m }(),
		func() Model { m := Default(100); m.R = 1; return m }(),
		func() Model { m := DefaultDistance(100); m.Kappa = 0; return m }(),
		Default(math.MaxInt32 + 1), // beyond the int32 snapshot id width
	}
	for i, m := range bad {
		if _, err := m.Run(rng.New(1)); err == nil {
			t.Fatalf("case %d: invalid model accepted", i)
		}
	}
}

func TestRunReachesTarget(t *testing.T) {
	res, err := Default(400).Run(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.G.N() < 380 || res.G.N() > 400 {
		t.Fatalf("final N = %d, want ~400", res.G.N())
	}
	if err := res.G.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != res.G.N() {
		t.Fatalf("users slice length %d for %d nodes", len(res.Users), res.G.N())
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Default(300).Run(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default(300).Run(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.G.EdgeList(), b.G.EdgeList()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("nondeterministic topology")
		}
	}
}

func TestGrowthIsExponentialWithOrderedRates(t *testing.T) {
	m := Default(1500)
	res, err := m.Run(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta, delta, err := GrowthRates(res.History)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-m.Alpha) > 0.01 {
		t.Fatalf("measured user growth %v, configured %v", alpha, m.Alpha)
	}
	if math.Abs(beta-m.Beta) > 0.01 {
		t.Fatalf("measured node growth %v, configured %v", beta, m.Beta)
	}
	// The paper-era ordering alpha >~ delta >~ beta.
	if !(alpha > beta) {
		t.Fatalf("rate ordering violated: alpha %v <= beta %v", alpha, beta)
	}
	if delta < beta-0.005 {
		t.Fatalf("edge growth %v below node growth %v", delta, beta)
	}
}

func TestUserSizeDistributionHeavyTail(t *testing.T) {
	res, err := Default(3000).Run(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// p(w) ~ w^-(1+tau) with tau = beta/alpha ≈ 1.86: heavy-tailed user
	// counts with a huge max/median ratio.
	sizes := append([]float64(nil), res.Users...)
	sorted := slices.Sorted(slices.Values(sizes))
	kmax, median := sorted[len(sorted)-1], (sorted[(len(sorted)-1)/2]+sorted[len(sorted)/2])/2
	if kmax < 20*median {
		t.Fatalf("user sizes not heavy-tailed: max %v median %v", kmax, median)
	}
	h, err := stats.Hill(sizes, 200)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.030/0.035
	if math.Abs(h-want) > 0.5 {
		t.Fatalf("size-distribution exponent %v, want ~%v", h, want)
	}
}

func TestTopologyIsInternetLike(t *testing.T) {
	res, err := Default(4000).Run(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	g := res.G
	s := g.Freeze()
	sizes := metrics.ComponentsHybrid(s, metrics.NewBFSScratch(s.N()), make([]int32, s.N()), nil)
	if giant := slices.Max(sizes); float64(giant) < 0.9*float64(g.N()) {
		t.Fatalf("giant component %d of %d", giant, g.N())
	}
	// Heavy-tailed degrees.
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(s))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.7 || fit.Alpha > 3.2 {
		t.Fatalf("degree exponent %v outside Internet-like band", fit.Alpha)
	}
	// Disassortative like the AS map.
	if r := metrics.AssortativityFrozen(s); r > 0.05 {
		t.Fatalf("assortativity %v, want non-positive", r)
	}
	// Small world.
	ps, err := engine.New(s).GiantPathLengths(rng.New(1), 300)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Avg > 7 {
		t.Fatalf("average path length %v too large", ps.Avg)
	}
}

func TestBandwidthDegreeScaling(t *testing.T) {
	res, err := Default(3000).Run(rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	ks, bs := metrics.DegreeStrengthPairs(res.G)
	// k ~ b^mu with mu < 1: log-log slope below 1, strengths exceed
	// degrees for hubs (multi-edges).
	f, err := stats.LogLogFit(bs, ks)
	if err != nil {
		t.Fatal(err)
	}
	if f.Slope >= 1.0 || f.Slope <= 0.3 {
		t.Fatalf("degree-bandwidth scaling exponent %v, want in (0.3,1)", f.Slope)
	}
	if res.G.TotalStrength() <= res.G.M() {
		t.Fatal("no multi-edges formed; reinforcement inactive")
	}
}

func TestDistanceConstraintProducesEmbeddingAndLocalLinks(t *testing.T) {
	res, err := DefaultDistance(1200).Run(rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pos == nil || len(res.Pos) != res.G.N() {
		t.Fatalf("distance run must embed nodes: %d positions", len(res.Pos))
	}
	var edgeD []float64
	res.G.Edges(func(u, v, w int) bool {
		edgeD = append(edgeD, res.Pos[u].Dist(res.Pos[v]))
		return true
	})
	r := rng.New(3)
	var randD []float64
	for i := 0; i < 5000; i++ {
		u, v := r.Intn(res.G.N()), r.Intn(res.G.N())
		if u != v {
			randD = append(randD, res.Pos[u].Dist(res.Pos[v]))
		}
	}
	if stats.Mean(edgeD) >= stats.Mean(randD) {
		t.Fatalf("distance constraint inactive: edge mean %v vs random %v",
			stats.Mean(edgeD), stats.Mean(randD))
	}
}

func TestReinforcementAblation(t *testing.T) {
	lo := Default(1500)
	lo.R = 0
	hi := Default(1500)
	hi.R = 0.9
	resLo, err := lo.Run(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := hi.Run(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	// Multi-edges can still arise at R=0 when a pair is matched twice
	// across months (hubs outgrow their partner pool), but reinforcement
	// is what concentrates bandwidth: the deepest link must get much
	// deeper with R, and total capacity must stay on its growth target.
	maxW := func(res *Result) int {
		max := 0
		res.G.Edges(func(u, v, w int) bool {
			if w > max {
				max = w
			}
			return true
		})
		return max
	}
	if lo, hi := maxW(resLo), maxW(resHi); hi < 2*lo {
		t.Fatalf("reinforcement did not deepen links: max multiplicity %d vs %d", hi, lo)
	}
	lodiff := math.Abs(float64(resLo.G.TotalStrength())-float64(resHi.G.TotalStrength())) /
		float64(resHi.G.TotalStrength())
	if lodiff > 0.1 {
		t.Fatalf("total bandwidth should be R-invariant, differs by %v", lodiff)
	}
}

// shardedEqual asserts two runs are byte-equal in topology, customer
// bases and history.
func shardedEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ea, eb := a.G.EdgeList(), b.G.EdgeList()
	if len(ea) != len(eb) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, i, ea[i], eb[i])
		}
	}
	if len(a.Users) != len(b.Users) {
		t.Fatalf("%s: user slices differ in length", label)
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			t.Fatalf("%s: users[%d] = %v vs %v", label, i, a.Users[i], b.Users[i])
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ", label)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: history[%d] = %+v vs %+v", label, i, a.History[i], b.History[i])
		}
	}
}

// TestShardedRunReproducible: at a fixed worker count the sharded run
// is a pure function of the seed.
func TestShardedRunReproducible(t *testing.T) {
	m := Default(300)
	m.Workers = 4
	a, err := m.Run(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	shardedEqual(t, "workers=4 repeated", a, b)
}

// TestShardedRunWorkerInvariance: per-AS sub-streams are keyed by
// (month, phase, AS), so the run is identical at every pool width.
func TestShardedRunWorkerInvariance(t *testing.T) {
	m2 := Default(300)
	m2.Workers = 2
	a, err := m2.Run(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 4, 8} {
		mw := Default(300)
		mw.Workers = workers
		b, err := mw.Run(rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		shardedEqual(t, "workers=2 vs more", a, b)
	}
}

// TestShardedRunKeepsGrowthRegime: the sharded competition rounds must
// realize the same macroscopic regime as the sequential engine —
// exponential growth with alpha > delta' >= beta ordering intact.
func TestShardedRunKeepsGrowthRegime(t *testing.T) {
	m := Default(600)
	m.Workers = 4
	res, err := m.Run(rng.New(1997))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.G.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.G.N() < 550 {
		t.Fatalf("sharded run stalled at N=%d, want ~600", res.G.N())
	}
	alpha, beta, _, err := GrowthRates(res.History)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-m.Alpha) > 0.01 {
		t.Fatalf("sharded realized alpha = %v, want ~%v", alpha, m.Alpha)
	}
	if math.Abs(beta-m.Beta) > 0.01 {
		t.Fatalf("sharded realized beta = %v, want ~%v", beta, m.Beta)
	}
	if alpha <= beta {
		t.Fatalf("rate ordering lost: alpha %v <= beta %v", alpha, beta)
	}
}

// TestShardedRunDistance: the geographic constraint composes with the
// sharded rounds.
func TestShardedRunDistance(t *testing.T) {
	m := DefaultDistance(200)
	m.Workers = 4
	res, err := m.Run(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pos == nil || len(res.Pos) != res.G.N() {
		t.Fatalf("distance run missing embedding: %d positions for %d nodes",
			len(res.Pos), res.G.N())
	}
}

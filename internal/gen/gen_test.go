package gen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// allGenerators returns one configured instance of every model at small
// scale, for the cross-cutting contract tests.
func allGenerators() []Generator {
	return []Generator{
		GNP{N: 300, P: 0.02},
		GNM{N: 300, M: 900},
		WS{N: 300, K: 6, Beta: 0.1},
		Waxman{N: 300, Alpha: 0.4, Beta: 0.15},
		RGG{N: 300, Radius: 0.08},
		BA{N: 300, M: 2},
		BA{N: 300, M: 2, A: -1},
		GLP{N: 300, M: 2, P: 0.4, Beta: 0.6},
		DefaultPFP(300),
		FKP{N: 300, Alpha: 4},
		Inet{N: 300, Gamma: 2.2, MinDeg: 1},
		BRITE{N: 300, M: 2, Beta: 0.2},
		DefaultTransitStub(300),
	}
}

func TestGeneratorContract(t *testing.T) {
	for _, m := range allGenerators() {
		top, err := m.Generate(rng.New(7))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if top.G == nil || top.G.N() == 0 {
			t.Fatalf("%s: empty topology", m.Name())
		}
		if err := top.G.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if top.Pos != nil && len(top.Pos) != top.G.N() {
			t.Fatalf("%s: %d positions for %d nodes", m.Name(), len(top.Pos), top.G.N())
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, m := range allGenerators() {
		a, err := m.Generate(rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Generate(rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.G.EdgeList(), b.G.EdgeList()
		if len(ea) != len(eb) {
			t.Fatalf("%s: different edge counts across identical seeds", m.Name())
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs: %+v vs %+v", m.Name(), i, ea[i], eb[i])
			}
		}
		c, err := m.Generate(rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.G.EdgeList()) == len(ea) {
			same := true
			for i, e := range c.G.EdgeList() {
				if e != ea[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: different seeds produced identical topology", m.Name())
			}
		}
	}
}

func TestGNPEdgeDensity(t *testing.T) {
	m := GNP{N: 2000, P: 0.004}
	top, err := m.Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.004 * float64(2000*1999/2)
	got := float64(top.G.M())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("GNP edges = %v, want ~%v", got, want)
	}
}

func TestGNPDegenerate(t *testing.T) {
	top, err := GNP{N: 50, P: 0}.Generate(rng.New(1))
	if err != nil || top.G.M() != 0 {
		t.Fatalf("P=0 should give empty graph: %v, M=%d", err, top.G.M())
	}
	top, err = GNP{N: 20, P: 1}.Generate(rng.New(1))
	if err != nil || top.G.M() != 190 {
		t.Fatalf("P=1 should give complete graph: %v, M=%d", err, top.G.M())
	}
}

func TestGNMExactEdges(t *testing.T) {
	top, err := GNM{N: 100, M: 250}.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if top.G.M() != 250 {
		t.Fatalf("GNM produced %d edges, want 250", top.G.M())
	}
}

func TestGNMTooDense(t *testing.T) {
	if _, err := (GNM{N: 5, M: 11}).Generate(rng.New(1)); err != ErrTooDense {
		t.Fatalf("want ErrTooDense, got %v", err)
	}
}

func TestWSLatticeLimit(t *testing.T) {
	top, err := WS{N: 50, K: 4, Beta: 0}.Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if top.G.M() != 100 {
		t.Fatalf("lattice edges = %d, want 100", top.G.M())
	}
	for u := 0; u < 50; u++ {
		if top.G.Degree(u) != 4 {
			t.Fatalf("lattice degree(%d) = %d, want 4", u, top.G.Degree(u))
		}
	}
	// High clustering in the lattice limit.
	if c := engine.New(top.G.Freeze()).AvgClustering(); c < 0.4 {
		t.Fatalf("lattice clustering = %v, want >= 0.5-ish", c)
	}
}

func TestWSRewiringShortensPaths(t *testing.T) {
	lattice, err := WS{N: 400, K: 4, Beta: 0}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	small, err := WS{N: 400, K: 4, Beta: 0.1}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := engine.New(lattice.G.Freeze()).GiantPathLengths(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := engine.New(small.G.Freeze()).GiantPathLengths(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Avg >= pl.Avg/2 {
		t.Fatalf("rewiring did not shorten paths: %v vs %v", ps.Avg, pl.Avg)
	}
}

func TestWSValidation(t *testing.T) {
	if _, err := (WS{N: 10, K: 3, Beta: 0.1}).Generate(rng.New(1)); err == nil {
		t.Fatal("odd K should fail")
	}
	if _, err := (WS{N: 4, K: 4, Beta: 0.1}).Generate(rng.New(1)); err == nil {
		t.Fatal("K >= N should fail")
	}
}

func TestWaxmanDistanceBias(t *testing.T) {
	top, err := Waxman{N: 800, Alpha: 0.3, Beta: 0.1}.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var linked, unlinked []float64
	g := top.G
	for u := 0; u < 400; u++ {
		for v := u + 1; v < 400; v++ {
			d := top.Pos[u].Dist(top.Pos[v])
			if g.HasEdge(u, v) {
				linked = append(linked, d)
			} else {
				unlinked = append(unlinked, d)
			}
		}
	}
	if len(linked) < 10 {
		t.Skip("too few edges to compare")
	}
	if stats.Mean(linked) >= stats.Mean(unlinked) {
		t.Fatalf("linked pairs are not shorter on average: %v vs %v",
			stats.Mean(linked), stats.Mean(unlinked))
	}
}

func TestWaxmanNotHeavyTailed(t *testing.T) {
	top, err := Waxman{N: 2000, Alpha: 0.3, Beta: 0.12}.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	// Poisson-like: max degree within a small multiple of the mean.
	if kmax, mean := float64(top.G.MaxDegree()), top.G.AvgDegree(); kmax > 6*mean+10 {
		t.Fatalf("Waxman unexpectedly heavy-tailed: max %v mean %v", kmax, mean)
	}
}

func TestRGGRespectsRadius(t *testing.T) {
	top, err := RGG{N: 500, Radius: 0.07}.Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	top.G.Edges(func(u, v, w int) bool {
		if top.Pos[u].Dist(top.Pos[v]) > 0.07+1e-12 {
			t.Fatalf("edge (%d,%d) longer than radius", u, v)
		}
		return true
	})
	// And no missing edges: spot check.
	for u := 0; u < 100; u++ {
		for v := u + 1; v < 100; v++ {
			if top.Pos[u].Dist(top.Pos[v]) <= 0.07 && !top.G.HasEdge(u, v) {
				t.Fatalf("pair (%d,%d) within radius but unlinked", u, v)
			}
		}
	}
}

func TestBAConnectedAndEdgeCount(t *testing.T) {
	top, err := BA{N: 1000, M: 2}.Generate(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !connected(top.G) {
		t.Fatal("BA graph must be connected")
	}
	// seed clique of 3 nodes (3 edges) + 2 per arrival
	want := 3 + 2*(1000-3)
	if top.G.M() != want {
		t.Fatalf("BA edges = %d, want %d", top.G.M(), want)
	}
}

func TestBAPowerLawExponent(t *testing.T) {
	top, err := BA{N: 20000, M: 2}.Generate(rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-3) > 0.35 {
		t.Fatalf("BA exponent = %v, want ~3", fit.Alpha)
	}
}

func TestBAInitialAttractivenessFlattens(t *testing.T) {
	plain, err := BA{N: 15000, M: 2}.Generate(rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := BA{N: 15000, M: 2, A: -1.4}.Generate(rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(plain.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(flat.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	// gamma = 3 + A/M = 2.3 for A=-1.4, M=2
	if ff.Alpha >= fp.Alpha-0.2 {
		t.Fatalf("negative A did not flatten exponent: %v vs %v", ff.Alpha, fp.Alpha)
	}
}

func TestBAValidation(t *testing.T) {
	if _, err := (BA{N: 10, M: 0}).Generate(rng.New(1)); err == nil {
		t.Fatal("M=0 should fail")
	}
	if _, err := (BA{N: 10, M: 2, A: -2}).Generate(rng.New(1)); err == nil {
		t.Fatal("A <= -M should fail")
	}
}

func TestGLPHeavyTail(t *testing.T) {
	// Theory: γ = 1 + (2m − β(1−p)) / (m(1+p)) ≈ 2.13 for these params.
	top, err := GLP{N: 30000, M: 1, P: 0.45, Beta: 0.65}.Generate(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	h, err := stats.Hill(metrics.DegreesAsFloatsFrozen(top.G.Freeze()), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if h < 1.8 || h > 2.5 {
		t.Fatalf("GLP Hill exponent = %v, want AS-like ~2.1", h)
	}
	if top.G.MaxDegree() < 100 {
		t.Fatalf("GLP max degree = %d, expected hub formation", top.G.MaxDegree())
	}
}

func TestGLPInternalLinksRaiseDensity(t *testing.T) {
	noInternal, err := GLP{N: 3000, M: 1, P: 0, Beta: 0.5}.Generate(rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	withInternal, err := GLP{N: 3000, M: 1, P: 0.5, Beta: 0.5}.Generate(rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	if withInternal.G.AvgDegree() <= noInternal.G.AvgDegree() {
		t.Fatalf("internal links did not raise density: %v vs %v",
			withInternal.G.AvgDegree(), noInternal.G.AvgDegree())
	}
}

func TestPFPHeavyTailAndRichClub(t *testing.T) {
	top, err := DefaultPFP(8000).Generate(rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.8 || fit.Alpha > 2.8 {
		t.Fatalf("PFP exponent = %v, want ~2.2", fit.Alpha)
	}
	// Rich club: the ~10 highest-degree nodes should be densely
	// interconnected (use the smallest club of size >= 10; the very last
	// thresholds hold single nodes where φ is degenerate).
	rc := metrics.RichClubFrozen(top.G.Freeze())
	var club *metrics.RichClubPoint
	for i := len(rc) - 1; i >= 0; i-- {
		if rc[i].N >= 10 {
			club = &rc[i]
			break
		}
	}
	if club == nil {
		t.Fatal("no rich-club point with >= 10 members")
	}
	if club.Phi < 0.5 {
		t.Fatalf("PFP rich-club φ(N=%d) = %v, want high", club.N, club.Phi)
	}
	// PFP is disassortative like the AS map.
	if r := metrics.AssortativityFrozen(top.G.Freeze()); r >= 0 {
		t.Fatalf("PFP assortativity = %v, want negative", r)
	}
}

func TestFKPIsTree(t *testing.T) {
	top, err := FKP{N: 500, Alpha: 10}.Generate(rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if top.G.M() != 499 {
		t.Fatalf("FKP edges = %d, want N-1", top.G.M())
	}
	if !connected(top.G) {
		t.Fatal("FKP tree must be connected")
	}
}

func TestFKPAlphaRegimes(t *testing.T) {
	// Tiny alpha: cost dominated by centrality -> star around the root.
	star, err := FKP{N: 300, Alpha: 0.01}.Generate(rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if star.G.MaxDegree() < 290 {
		t.Fatalf("small-alpha FKP max degree = %d, want near-star", star.G.MaxDegree())
	}
	// Huge alpha: distance dominates -> no big hubs.
	spag, err := FKP{N: 300, Alpha: 1000}.Generate(rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if spag.G.MaxDegree() > 30 {
		t.Fatalf("large-alpha FKP max degree = %d, want small", spag.G.MaxDegree())
	}
}

func TestInetMatchesTargetExponent(t *testing.T) {
	top, err := Inet{N: 8000, Gamma: 2.2, MinDeg: 1}.Generate(rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.2) > 0.35 {
		t.Fatalf("Inet exponent = %v, want ~2.2", fit.Alpha)
	}
}

func TestInetConnected(t *testing.T) {
	top, err := Inet{N: 2000, Gamma: 2.3, MinDeg: 1}.Generate(rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(slices.Max(componentSizes(top.G))) / float64(top.G.N())
	if frac < 0.99 {
		t.Fatalf("Inet giant component fraction = %v, want ~1", frac)
	}
}

func TestBRITEDegreeAndDistanceBias(t *testing.T) {
	top, err := BRITE{N: 1500, M: 2, Beta: 0.15}.Generate(rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	if !connected(top.G) {
		t.Fatal("BRITE graph must be connected")
	}
	// Heavier tail than Waxman at same size.
	if top.G.MaxDegree() < 30 {
		t.Fatalf("BRITE max degree = %d, expected hubs", top.G.MaxDegree())
	}
	// Distance bias: edges shorter than random pairs.
	var edgeD []float64
	top.G.Edges(func(u, v, w int) bool {
		edgeD = append(edgeD, top.Pos[u].Dist(top.Pos[v]))
		return true
	})
	r := rng.New(1)
	var randD []float64
	for i := 0; i < 5000; i++ {
		u, v := r.Intn(1500), r.Intn(1500)
		if u != v {
			randD = append(randD, top.Pos[u].Dist(top.Pos[v]))
		}
	}
	if stats.Mean(edgeD) >= stats.Mean(randD) {
		t.Fatalf("BRITE edges not distance-biased: %v vs %v", stats.Mean(edgeD), stats.Mean(randD))
	}
}

func TestTransitStubStructure(t *testing.T) {
	m := TransitStub{Transits: 3, TransitSize: 4, StubsPerNode: 2, StubSize: 5, EdgeP: 0.5, ExtraTransitP: 0.2}
	top, err := m.Generate(rng.New(59))
	if err != nil {
		t.Fatal(err)
	}
	wantN := 3*4 + 3*4*2*5
	if top.G.N() != wantN {
		t.Fatalf("TransitStub N = %d, want %d", top.G.N(), wantN)
	}
	if !connected(top.G) {
		t.Fatal("TransitStub must be connected")
	}
}

func TestTransitStubNoHeavyTail(t *testing.T) {
	top, err := DefaultTransitStub(3000).Generate(rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	if kmax, mean := float64(top.G.MaxDegree()), top.G.AvgDegree(); kmax > 8*mean+20 {
		t.Fatalf("TransitStub unexpectedly heavy-tailed: max %v mean %v", kmax, mean)
	}
}

func TestDefaultTransitStubApproximatesN(t *testing.T) {
	for _, n := range []int{500, 3000, 10000} {
		top, err := DefaultTransitStub(n).Generate(rng.New(67))
		if err != nil {
			t.Fatal(err)
		}
		got := float64(top.G.N())
		if got < 0.4*float64(n) || got > 2.5*float64(n) {
			t.Fatalf("DefaultTransitStub(%d) produced %v nodes", n, got)
		}
	}
}

func TestSmallNDegenerateCases(t *testing.T) {
	// Every generator must cope with N smaller than its seed/parameter
	// demands without panicking.
	small := []Generator{
		BA{N: 2, M: 3},
		GLP{N: 2, M: 3, P: 0.3, Beta: 0.5},
		DefaultPFP(2),
		FKP{N: 1, Alpha: 1},
		Inet{N: 3, Gamma: 2.5, MinDeg: 1},
		BRITE{N: 2, M: 3, Beta: 0.2},
		Waxman{N: 1, Alpha: 0.5, Beta: 0.2},
		GNP{N: 1, P: 0.5},
	}
	for _, m := range small {
		top, err := m.Generate(rng.New(71))
		if err != nil {
			t.Fatalf("%s small-N: %v", m.Name(), err)
		}
		if err := top.G.CheckInvariants(); err != nil {
			t.Fatalf("%s small-N: %v", m.Name(), err)
		}
	}
}

var _ = graph.New // keep import when tests shuffle

// TestOversizedNRejected pins the node-count bound: every family
// rejects N = MaxInt32+1 (the CSR snapshot's id width) with an error,
// on the sequential and the sharded path, before sizing anything by N.
func TestOversizedNRejected(t *testing.T) {
	const big = math.MaxInt32 + 1
	for _, g := range []Generator{
		BA{N: big, M: 2},
		GLP{N: big, M: 1, P: 0.45, Beta: 0.64},
		DefaultPFP(big),
		GNP{N: big, P: 0.1},
		GNM{N: big, M: 10},
		WS{N: big, K: 4, Beta: 0.1},
		Waxman{N: big, Alpha: 0.2, Beta: 0.2},
		RGG{N: big, Radius: 0.1},
		FKP{N: big, Alpha: 8},
		Inet{N: big, Gamma: 2.2, MinDeg: 1},
		BRITE{N: big, M: 2, Beta: 0.15},
		DefaultTransitStub(big),
	} {
		if _, err := g.Generate(rng.New(1)); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: Generate error = %v, want the node limit", g.Name(), err)
		}
		if sg, ok := g.(ShardedGenerator); ok {
			if _, err := sg.GenerateSharded(rng.New(1), 2); err == nil || !strings.Contains(err.Error(), "limit") {
				t.Errorf("%s: GenerateSharded error = %v, want the node limit", g.Name(), err)
			}
		}
	}
}

// componentSizes returns the sizes of g's connected components.
func componentSizes(g *graph.Graph) []int32 {
	n := g.N()
	return metrics.ComponentsHybrid(g.Freeze(), metrics.NewBFSScratch(n), make([]int32, n), nil)
}

// connected reports whether g has exactly one connected component.
func connected(g *graph.Graph) bool { return len(componentSizes(g)) == 1 }

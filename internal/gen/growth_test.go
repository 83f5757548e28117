package gen

import (
	"math"
	"testing"

	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// shardedFamilies returns one configured instance of every family with
// a parallel kernel, at sizes where the cross-cutting contracts stay
// fast.
func shardedFamilies() []ShardedGenerator {
	return []ShardedGenerator{
		GNP{N: 400, P: 0.02},
		Waxman{N: 400, Alpha: 0.4, Beta: 0.15},
		BA{N: 400, M: 2},
		BA{N: 400, M: 2, A: -1},
		GLP{N: 400, M: 2, P: 0.4, Beta: 0.6},
		DefaultPFP(400),
		Inet{N: 400, Gamma: 2.2, MinDeg: 1},
		BRITE{N: 400, M: 2, Beta: 0.2},
	}
}

func edgeListsEqual(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	ea, eb := a.EdgeList(), b.EdgeList()
	if len(ea) != len(eb) {
		t.Fatalf("%s: edge counts differ: %d vs %d", name, len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, ea[i], eb[i])
		}
	}
}

// TestShardedOneWorkerMatchesSequential: at workers=1 every sharded
// generator dispatches to the sequential reference, bit for bit.
func TestShardedOneWorkerMatchesSequential(t *testing.T) {
	for _, m := range shardedFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			seq, err := m.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			one, err := m.GenerateSharded(rng.New(seed), 1)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			edgeListsEqual(t, m.Name(), seq.G, one.G)
		}
	}
}

// TestShardedReproducibleAcrossRuns: at a fixed worker count the
// sharded kernel is a pure function of the seed.
func TestShardedReproducibleAcrossRuns(t *testing.T) {
	for _, m := range shardedFamilies() {
		for _, seed := range []uint64{1, 2, 3} {
			a, err := m.GenerateSharded(rng.New(seed), 4)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			b, err := m.GenerateSharded(rng.New(seed), 4)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			edgeListsEqual(t, m.Name(), a.G, b.G)
		}
	}
}

// TestShardedWorkerCountInvariance: plans depend only on the seed and
// the static item schedule, so the kernel's output is identical at
// every pool width >= 2.
func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, m := range shardedFamilies() {
		two, err := m.GenerateSharded(rng.New(11), 2)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, workers := range []int{3, 4, 8} {
			w, err := m.GenerateSharded(rng.New(11), workers)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			edgeListsEqual(t, m.Name(), two.G, w.G)
		}
	}
}

// TestShardedContract: invariants and embeddings hold on the parallel
// path, and different seeds produce different topologies.
func TestShardedContract(t *testing.T) {
	for _, m := range shardedFamilies() {
		top, err := m.GenerateSharded(rng.New(7), 4)
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
		other, err := m.GenerateSharded(rng.New(8), 4)
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := top.G.EdgeList(), other.G.EdgeList()
		if len(ea) == len(eb) {
			same := true
			for i := range ea {
				if ea[i] != eb[i] {
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

// TestShardedSmallN: the kernel copes with N at or below the seed
// demands of each family.
func TestShardedSmallN(t *testing.T) {
	small := []ShardedGenerator{
		BA{N: 2, M: 3},
		GLP{N: 2, M: 3, P: 0.3, Beta: 0.5},
		DefaultPFP(2),
		Inet{N: 3, Gamma: 2.5, MinDeg: 1},
		BRITE{N: 2, M: 3, Beta: 0.2},
		Waxman{N: 1, Alpha: 0.5, Beta: 0.2},
		GNP{N: 1, P: 0.5},
	}
	for _, m := range small {
		top, err := m.GenerateSharded(rng.New(71), 4)
		if err != nil {
			t.Fatalf("%s small-N: %v", m.Name(), err)
		}
		if err := top.G.CheckInvariants(); err != nil {
			t.Fatalf("%s small-N: %v", m.Name(), err)
		}
	}
}

// TestShardedBAStructure: the parallel BA run keeps the exact edge
// budget and connectivity of the sequential model.
func TestShardedBAStructure(t *testing.T) {
	top, err := (BA{N: 1000, M: 2}).GenerateSharded(rng.New(13), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(top.G) {
		t.Fatal("sharded BA graph must be connected")
	}
	want := 3 + 2*(1000-3) // seed clique + M per arrival
	if top.G.M() != want {
		t.Fatalf("sharded BA edges = %d, want %d", top.G.M(), want)
	}
}

// TestShardedBAPowerLaw: frozen-round staleness must not move the BA
// degree exponent — the same tolerance the sequential test enforces.
func TestShardedBAPowerLaw(t *testing.T) {
	top, err := (BA{N: 15000, M: 2}).GenerateSharded(rng.New(17), 4)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-3) > 0.35 {
		t.Fatalf("sharded BA exponent = %v, want ~3", fit.Alpha)
	}
}

// TestShardedGLPHeavyTail: the sharded GLP keeps the AS-like exponent
// and hub formation of the reference.
func TestShardedGLPHeavyTail(t *testing.T) {
	top, err := (GLP{N: 20000, M: 1, P: 0.45, Beta: 0.65}).GenerateSharded(rng.New(23), 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := stats.Hill(metrics.DegreesAsFloatsFrozen(top.G.Freeze()), 800)
	if err != nil {
		t.Fatal(err)
	}
	if h < 1.8 || h > 2.5 {
		t.Fatalf("sharded GLP Hill exponent = %v, want AS-like ~2.1", h)
	}
	if top.G.MaxDegree() < 80 {
		t.Fatalf("sharded GLP max degree = %d, expected hub formation", top.G.MaxDegree())
	}
}

// TestShardedPFPProperties: exponent and disassortativity survive the
// frozen-round approximation.
func TestShardedPFPProperties(t *testing.T) {
	top, err := DefaultPFP(6000).GenerateSharded(rng.New(31), 4)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha < 1.8 || fit.Alpha > 2.8 {
		t.Fatalf("sharded PFP exponent = %v, want ~2.2", fit.Alpha)
	}
	if r := metrics.AssortativityFrozen(top.G.Freeze()); r >= 0 {
		t.Fatalf("sharded PFP assortativity = %v, want negative", r)
	}
}

// TestShardedGNPDensity: the per-row skip walk realizes the same edge
// density as the sequential triangle walk.
func TestShardedGNPDensity(t *testing.T) {
	m := GNP{N: 2000, P: 0.004}
	top, err := m.GenerateSharded(rng.New(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.004 * float64(2000*1999/2)
	got := float64(top.G.M())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("sharded GNP edges = %v, want ~%v", got, want)
	}
}

// TestShardedInetExponent: the parallel degree-sequence draw hits the
// same target exponent.
func TestShardedInetExponent(t *testing.T) {
	top, err := (Inet{N: 8000, Gamma: 2.2, MinDeg: 1}).GenerateSharded(rng.New(43), 4)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(top.G.Freeze()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.2) > 0.35 {
		t.Fatalf("sharded Inet exponent = %v, want ~2.2", fit.Alpha)
	}
}

// TestShardedBRITEStructure: connectivity, hubs and distance bias on
// the chunked-roulette path.
func TestShardedBRITEStructure(t *testing.T) {
	top, err := (BRITE{N: 1500, M: 2, Beta: 0.15}).GenerateSharded(rng.New(53), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(top.G) {
		t.Fatal("sharded BRITE graph must be connected")
	}
	if top.G.MaxDegree() < 30 {
		t.Fatalf("sharded BRITE max degree = %d, expected hubs", top.G.MaxDegree())
	}
}

// TestGenerateWith: the dispatch helper takes the sharded path only
// when one exists and more than one worker is requested.
func TestGenerateWith(t *testing.T) {
	ba := BA{N: 300, M: 2}
	seq, err := GenerateWith(ba, rng.New(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ba.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	edgeListsEqual(t, "ba/workers=1", seq.G, ref.G)

	sh, err := GenerateWith(ba, rng.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ba.GenerateSharded(rng.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	edgeListsEqual(t, "ba/workers=4", sh.G, want.G)

	// A family without a kernel falls back to the sequential path.
	ws := WS{N: 200, K: 4, Beta: 0.1}
	a, err := GenerateWith(ws, rng.New(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	edgeListsEqual(t, "ws fallback", a.G, b.G)
}

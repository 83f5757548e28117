package engine

import (
	"math"
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// testWorkers forces a real pool even on single-core machines so the
// race detector exercises the sharded paths.
const testWorkers = 4

// testTopologies generates one instance per family x seed: the four
// model classes named by the equivalence requirement (ER random, BA
// preferential attachment, GLP, PFP) at sizes where exact metrics stay
// fast but every code path (sampling, giant component, hubs) is hit.
func testTopologies(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, seed := range []uint64{1, 2, 3} {
		for _, tc := range []struct {
			name string
			g    gen.Generator
		}{
			{"er", gen.GNP{N: 400, P: 4.2 / 399}},
			{"ba", gen.BA{N: 400, M: 2}},
			{"glp", gen.GLP{N: 400, M: 1, P: 0.45, Beta: 0.64}},
			{"pfp", gen.DefaultPFP(300)},
		} {
			top, err := tc.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			out[tc.name+"/"+string(rune('0'+seed))] = top.G
		}
	}
	return out
}

func assertFloatsClose(t *testing.T, key, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %s: length %d vs %d", key, name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s %s[%d] = %v, want %v (Δ=%g)", key, name, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// inducedGiant is the reference giant component: the subgraph induced
// by the largest connected component (ties go to the component holding
// the smallest node), found by plain queue BFS and renumbered in
// ascending order of the original ids into a snapshot of its own.
func inducedGiant(s *graph.Snapshot) *graph.Snapshot {
	n := s.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	giant, giantSize := -1, 0
	for src := 0; src < n; src++ {
		if comp[src] >= 0 {
			continue
		}
		comp[src] = src
		queue := []int{src}
		for head := 0; head < len(queue); head++ {
			for _, v := range s.Neighbors(queue[head]) {
				if comp[v] < 0 {
					comp[v] = src
					queue = append(queue, int(v))
				}
			}
		}
		if len(queue) > giantSize {
			giant, giantSize = src, len(queue)
		}
	}
	toNew := make([]int, n)
	next := 0
	for v := range comp {
		if comp[v] == giant {
			toNew[v] = next
			next++
		}
	}
	g := graph.New(giantSize)
	for _, e := range s.EdgeList() {
		if comp[e.U] == giant {
			for w := 0; w < e.W; w++ {
				g.MustAddEdge(toNew[e.U], toNew[e.V])
			}
		}
	}
	return g.Freeze()
}

// sequentialMeasure composes the sequential kernels into the metric
// vector Engine.Measure promises: degree-tail fit, clustering and
// assortativity on the whole map, path statistics on the giant
// component, core depth on the whole map.
func sequentialMeasure(s *graph.Snapshot, r *rng.Rand, pathSources int) (metrics.Snapshot, error) {
	out := metrics.Snapshot{N: s.N(), M: s.M(), AvgDegree: s.AvgDegree(), MaxDegree: s.MaxDegree()}
	if s.N() == 0 {
		out.GiantFrac = 1
		return out, nil
	}
	if fit, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(s)); err == nil {
		out.Gamma, out.GammaKS = fit.Alpha, fit.KS
	}
	out.AvgClustering = metrics.AvgClusteringFrozen(s)
	out.Transitivity = metrics.TransitivityFrozen(s)
	out.Assortativity = metrics.AssortativityFrozen(s)
	giant := inducedGiant(s)
	out.GiantFrac = float64(giant.N()) / float64(s.N())
	if giant.N() > 1 {
		ps, err := metrics.PathLengthsFrozen(giant, r, pathSources)
		if err != nil {
			return out, err
		}
		out.AvgPathLen, out.Diameter = ps.Avg, ps.Diameter
	}
	out.MaxCore = metrics.KCoreFrozen(s).MaxCore
	return out, nil
}

// sequentialMeasureGrowth composes the sequential kernels into the
// observation vector Engine.MeasureGrowth promises (without the
// distance family).
func sequentialMeasureGrowth(s *graph.Snapshot) metrics.GrowthStats {
	st := metrics.GrowthStats{N: s.N(), M: s.M(), Strength: s.TotalStrength(), AvgDegree: s.AvgDegree(), MaxDegree: s.MaxDegree()}
	if s.N() == 0 {
		return st
	}
	if fit, err := stats.FitPowerLawHistogram(metrics.DegreeHistogramFrozen(s)); err == nil {
		st.Gamma, st.GammaKS = fit.Alpha, fit.KS
	}
	st.AvgClustering = metrics.AvgClusteringFrozen(s)
	st.Transitivity = metrics.TransitivityFrozen(s)
	st.MaxCore = metrics.KCoreFrozen(s).MaxCore
	return st
}

// TestEngineMatchesSequential is the equivalence property test: every
// parallelized metric must reproduce the sequential kernel in
// internal/metrics — exactly for integer-valued reductions, within 1e-9
// for floating-point accumulations.
func TestEngineMatchesSequential(t *testing.T) {
	for key, g := range testTopologies(t) {
		s := g.Freeze()
		e := New(s, WithWorkers(testWorkers))

		assertFloatsClose(t, key, "betweenness", e.Betweenness(), metrics.BetweennessFrozen(s), 1e-9)

		wantBC, err := metrics.BetweennessSampledFrozen(s, rng.New(99), 37)
		if err != nil {
			t.Fatal(err)
		}
		gotBC, err := e.BetweennessSampled(rng.New(99), 37)
		if err != nil {
			t.Fatal(err)
		}
		assertFloatsClose(t, key, "sampled betweenness", gotBC, wantBC, 1e-9)

		assertFloatsClose(t, key, "closeness", e.Closeness(), metrics.ClosenessFrozen(s), 0)
		assertFloatsClose(t, key, "harmonic", e.HarmonicCloseness(), metrics.HarmonicClosenessFrozen(s), 0)

		for _, sources := range []int{0, 50} {
			want, err := metrics.PathLengthsFrozen(s, rng.New(7), sources)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.PathLengths(rng.New(7), sources)
			if err != nil {
				t.Fatal(err)
			}
			if got.Avg != want.Avg || got.Diameter != want.Diameter || got.Sources != want.Sources ||
				!reflect.DeepEqual(got.Distribution, want.Distribution) {
				t.Fatalf("%s paths(sources=%d): %+v vs %+v", key, sources, got, want)
			}
		}

		if got, want := e.TrianglesPerNode(), metrics.TrianglesPerNodeFrozen(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: triangle counts differ", key)
		}
		if got, want := e.AvgClustering(), metrics.AvgClusteringFrozen(s); got != want {
			t.Fatalf("%s: avg clustering %v vs %v", key, got, want)
		}
		if got, want := e.Transitivity(), metrics.TransitivityFrozen(s); got != want {
			t.Fatalf("%s: transitivity %v vs %v", key, got, want)
		}
		if got, want := e.ClusteringSpectrum(), metrics.ClusteringSpectrumFrozen(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: clustering spectra differ", key)
		}
		if got, want := e.KCore(), metrics.KCoreFrozen(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: k-core differs", key)
		}
		if got, want := e.RichClub(), metrics.RichClubFrozen(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rich club differs", key)
		}
		if got, want := e.CountCycles(), metrics.CountCyclesFrozen(s); got != want {
			t.Fatalf("%s: cycles %+v vs %+v", key, got, want)
		}
		if got, want := e.Assortativity(), metrics.AssortativityFrozen(s); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: assortativity %v vs %v", key, got, want)
		}
	}
}

// TestEngineMeasureMatchesSequential checks the full metric vector
// against sequentialMeasure for identical generator states.
func TestEngineMeasureMatchesSequential(t *testing.T) {
	for key, g := range testTopologies(t) {
		s := g.Freeze()
		for _, sources := range []int{0, 60} {
			want, err := sequentialMeasure(s, rng.New(11), sources)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(s, WithWorkers(testWorkers)).Measure(rng.New(11), sources)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || got.M != want.M || got.MaxDegree != want.MaxDegree ||
				got.Diameter != want.Diameter || got.MaxCore != want.MaxCore {
				t.Fatalf("%s sources=%d: integer fields differ: %+v vs %+v", key, sources, got, want)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"avg degree", got.AvgDegree, want.AvgDegree},
				{"gamma", got.Gamma, want.Gamma},
				{"gammaKS", got.GammaKS, want.GammaKS},
				{"avg clustering", got.AvgClustering, want.AvgClustering},
				{"transitivity", got.Transitivity, want.Transitivity},
				{"assortativity", got.Assortativity, want.Assortativity},
				{"avg path len", got.AvgPathLen, want.AvgPathLen},
				{"giant frac", got.GiantFrac, want.GiantFrac},
			} {
				if math.Abs(f.got-f.want) > 1e-9 {
					t.Fatalf("%s sources=%d: %s = %v, want %v", key, sources, f.name, f.got, f.want)
				}
			}
		}
	}
}

// TestGiantPathLengthsMatchInduced pins the in-place giant path
// statistics against an induced copy of the giant measured on its own:
// the same sources (sampled, or all of them), the same distribution, on
// disconnected maps and on a map whose two largest components tie.
func TestGiantPathLengthsMatchInduced(t *testing.T) {
	maps := make(map[string]*graph.Snapshot)
	for _, seed := range []uint64{1, 2} {
		for _, tc := range []struct {
			name string
			g    gen.Generator
		}{
			{"rgg", gen.RGG{N: 400, Radius: 0.06}},
			{"gnp", gen.GNP{N: 400, P: 1.5 / 399}},
			{"waxman", gen.Waxman{N: 400, Alpha: 0.1, Beta: 0.1}},
		} {
			top, err := tc.g.Generate(rng.New(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			maps[tc.name+"/"+string(rune('0'+seed))] = top.G.Freeze()
		}
	}
	// Two largest components of four nodes each, interleaved: the path
	// 1-3-5-7 holds the smallest node among them and wins the tie over
	// the star centered on 8; node 0 is isolated, 9-10 a lone edge.
	tie := graph.New(11)
	for _, e := range [][2]int{{1, 3}, {3, 5}, {5, 7}, {8, 2}, {8, 4}, {8, 6}, {9, 10}} {
		tie.MustAddEdge(e[0], e[1])
	}
	maps["tie"] = tie.Freeze()

	for key, s := range maps {
		giant := inducedGiant(s)
		if giant.N() == s.N() {
			t.Fatalf("%s: map is connected, the test needs a proper giant", key)
		}
		for _, sources := range []int{40, 0} {
			want, err := metrics.PathLengthsFrozen(giant, rng.New(5), sources)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				e := New(s, WithWorkers(workers))
				got, err := e.GiantPathLengths(rng.New(5), sources)
				if err != nil {
					t.Fatal(err)
				}
				if got.Avg != want.Avg || got.Diameter != want.Diameter || got.Sources != want.Sources ||
					!reflect.DeepEqual(got.Distribution, want.Distribution) {
					t.Fatalf("%s sources=%d workers=%d: %+v, want %+v", key, sources, workers, got, want)
				}
				m, err := e.Measure(rng.New(5), sources)
				if err != nil {
					t.Fatal(err)
				}
				if m.GiantFrac != float64(giant.N())/float64(s.N()) || m.AvgPathLen != want.Avg || m.Diameter != want.Diameter {
					t.Fatalf("%s sources=%d workers=%d: Measure giant %v ⟨d⟩ %v diam %d, want %v %v %d",
						key, sources, workers, m.GiantFrac, m.AvgPathLen, m.Diameter,
						float64(giant.N())/float64(s.N()), want.Avg, want.Diameter)
				}
			}
		}
	}
}

func TestEngineMemoization(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	e := New(g.Freeze(), WithWorkers(testWorkers))
	b1 := e.Betweenness()
	b2 := e.Betweenness()
	if &b1[0] != &b2[0] {
		t.Fatal("betweenness not memoized")
	}
	t1 := e.TrianglesPerNode()
	t2 := e.TrianglesPerNode()
	if &t1[0] != &t2[0] {
		t.Fatal("triangles not memoized")
	}
	p1, err := e.PathLengths(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := e.PathLengths(nil, 0)
	if p1.Avg != p2.Avg {
		t.Fatal("exact path stats must be stable")
	}
	giant1 := e.giantNodes()
	giant2 := e.giantNodes()
	if &giant1[0] != &giant2[0] {
		t.Fatal("giant component node list not memoized")
	}
}

func TestEngineSampledErrors(t *testing.T) {
	g := graph.New(10)
	g.MustAddEdge(0, 1)
	e := New(g.Freeze())
	if _, err := e.BetweennessSampled(nil, 5); err == nil {
		t.Fatal("nil generator must error")
	}
	if _, err := e.BetweennessSampled(rng.New(1), 0); err == nil {
		t.Fatal("non-positive sources must error")
	}
	if _, err := e.PathLengths(nil, 5); err == nil {
		t.Fatal("sampling without generator must error")
	}
	if _, err := New(graph.New(0).Freeze()).PathLengths(nil, 0); err == nil {
		t.Fatal("empty graph must error")
	}
}

func TestEngineEmptyAndTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := graph.New(n)
		if n == 2 {
			g.MustAddEdge(0, 1)
		}
		s := g.Freeze()
		e := New(s, WithWorkers(testWorkers))
		if got, want := e.Betweenness(), metrics.BetweennessFrozen(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: betweenness %v vs %v", n, got, want)
		}
		if got, want := e.CountCycles(), metrics.CountCyclesFrozen(s); got != want {
			t.Fatalf("n=%d: cycles differ", n)
		}
		snap, err := e.Measure(nil, 0)
		if n == 0 {
			if err != nil {
				t.Fatalf("empty Measure: %v", err)
			}
			if snap.GiantFrac != 1 {
				t.Fatalf("empty GiantFrac = %v", snap.GiantFrac)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestEngineDeterministicAcrossRuns pins the static-schedule guarantee:
// at a fixed worker count, floating-point reductions reproduce bit for
// bit between runs because chunk-to-worker assignment is a pure
// function of (n, workers).
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	top, err := gen.DefaultPFP(300).Generate(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s := top.G.Freeze()
	first := New(s, WithWorkers(testWorkers)).Betweenness()
	for run := 0; run < 3; run++ {
		again := New(s, WithWorkers(testWorkers)).Betweenness()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d: betweenness[%d] = %v, want %v (bitwise)", run, i, again[i], first[i])
			}
		}
	}
}

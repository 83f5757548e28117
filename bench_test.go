// Package netmodel's benchmark harness regenerates every experiment in
// the DESIGN.md matrix (E1-E12): each benchmark prints the table or
// series the corresponding figure in the topology-modeling literature
// reports, and times the computation that produces it. Run with
//
//	go test -bench=. -benchmem
//
// The printed values are recorded against their published counterparts
// in EXPERIMENTS.md.
package netmodel

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"netmodel/internal/aspolicy"
	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/econ"
	"netmodel/internal/engine"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
	"netmodel/internal/traffic"
)

// build generates a registry model at size n with a fixed seed, caching
// the result so repeated benchmark iterations measure analysis cost, not
// generation cost, and the printed tables are stable.
var topoCache sync.Map

func build(b *testing.B, model string, n int) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s/%d", model, n)
	if g, ok := topoCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	m, err := core.Lookup(model)
	if err != nil {
		b.Fatal(err)
	}
	top, err := m.Build(n).Generate(rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	topoCache.Store(key, top.G)
	return top.G
}

var printOnce sync.Map

// once prints a table exactly once per benchmark name across -benchtime
// re-runs.
func once(name string, f func()) {
	if _, done := printOnce.LoadOrStore(name, true); !done {
		f()
	}
}

// E1: the AS degree distribution is a power law with γ ≈ 2.1-2.2
// (Faloutsos-Faloutsos-Faloutsos 1999). The heavy-tail models must land
// in that band; Waxman must fail to produce any heavy tail.
func BenchmarkE1DegreeDistribution(b *testing.B) {
	const n = 8000
	models := []string{"ba", "gba", "glp", "pfp", "econ", "waxman"}
	type row struct {
		model       string
		gamma, hill float64
		maxDeg      int
	}
	var rows []row
	for _, m := range models {
		g := build(b, m, n)
		degs := metrics.DegreesAsFloatsFrozen(g.Freeze())
		var gamma float64
		if fit, err := stats.FitPowerLawDiscrete(degs); err == nil {
			gamma = fit.Alpha
		}
		hill, _ := stats.Hill(degs, 300)
		rows = append(rows, row{m, gamma, hill, g.MaxDegree()})
	}
	once("E1", func() {
		fmt.Printf("\nE1: degree-distribution exponents at N=%d (AS map: γ≈2.2)\n", n)
		fmt.Printf("%-8s %8s %8s %8s\n", "model", "MLE γ", "Hill", "k_max")
		for _, r := range rows {
			fmt.Printf("%-8s %8.2f %8.2f %8d\n", r.model, r.gamma, r.hill, r.maxDeg)
		}
	})
	s := build(b, "glp", n).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitPowerLawDiscrete(metrics.DegreesAsFloatsFrozen(s)); err != nil {
			b.Fatal(err)
		}
	}
}

// E2: the clustering spectrum c(k) of the AS map decays roughly as
// k^-0.75 and the mean clustering is orders of magnitude above random
// (Ravasz-Barabási hierarchy).
func BenchmarkE2ClusteringSpectrum(b *testing.B) {
	const n = 8000
	once("E2", func() {
		fmt.Printf("\nE2: clustering at N=%d (AS map: ⟨c⟩≈0.30, slope≈-0.75)\n", n)
		fmt.Printf("%-8s %10s %10s %12s\n", "model", "⟨c⟩", "c(k)slope", "⟨c⟩/⟨c_ER⟩")
		cer := metrics.AvgClusteringFrozen(build(b, "gnp", n).Freeze())
		for _, m := range []string{"glp", "pfp", "econ", "gnp"} {
			eng := engine.New(build(b, m, n).Freeze())
			c := eng.AvgClustering()
			sp := compare.MeasureSpectraFrozen(eng)
			ratio := math.Inf(1)
			if cer > 0 {
				ratio = c / cer
			}
			fmt.Printf("%-8s %10.4f %10.2f %12.1f\n", m, c, sp.CkSlope, ratio)
		}
	})
	s := build(b, "pfp", n).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.ClusteringSpectrumFrozen(s)
	}
}

// E3: the average-neighbor-degree spectrum knn(k) decays (disassortative
// mixing, Pastor-Satorras-Vázquez-Vespignani 2001): slope ≈ -0.5 and
// Newman's r ≈ -0.19 for the AS map, flat for random graphs.
func BenchmarkE3Knn(b *testing.B) {
	const n = 8000
	once("E3", func() {
		fmt.Printf("\nE3: degree correlations at N=%d (AS map: slope≈-0.55, r≈-0.19)\n", n)
		fmt.Printf("%-8s %10s %10s\n", "model", "knn slope", "r")
		for _, m := range []string{"pfp", "glp", "econ", "ba", "gnp"} {
			eng := engine.New(build(b, m, n).Freeze())
			sp := compare.MeasureSpectraFrozen(eng)
			fmt.Printf("%-8s %10.2f %+10.3f\n", m, sp.KnnSlope, metrics.AssortativityFrozen(eng.Snapshot()))
		}
	})
	s := build(b, "pfp", n).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.KnnFrozen(s)
	}
}

// E4: the k-core decomposition of the AS map is deep (coreness ≈ 18 at
// N≈11k) with shell populations decaying outward; trees and random
// graphs collapse to 1-2 shells.
func BenchmarkE4KCore(b *testing.B) {
	const n = 8000
	once("E4", func() {
		fmt.Printf("\nE4: k-core depth at N=%d (AS map: max core 18)\n", n)
		fmt.Printf("%-12s %8s %14s\n", "model", "maxcore", "innermost size")
		for _, m := range []string{"pfp", "glp", "econ", "gnp", "fkp", "transitstub"} {
			kc := metrics.KCoreFrozen(build(b, m, n).Freeze())
			fmt.Printf("%-12s %8d %14d\n", m, kc.MaxCore, kc.ShellSizes()[kc.MaxCore])
		}
	})
	s := build(b, "pfp", n).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.KCoreFrozen(s)
	}
}

// E5: betweenness centrality is heavy-tailed (Goh et al.): the
// cumulative distribution falls roughly as b^-1 over the scaling
// region, and the per-node triangle distribution P(T) is broad.
func BenchmarkE5Betweenness(b *testing.B) {
	const n = 2000
	s := build(b, "pfp", n).Freeze()
	bc := metrics.BetweennessFrozen(s)
	once("E5", func() {
		var pos []float64
		for _, v := range bc {
			if v > 0 {
				pos = append(pos, v)
			}
		}
		sort.Float64s(pos)
		fmt.Printf("\nE5: betweenness distribution, pfp N=%d (AS map: cumulative slope≈-1)\n", n)
		fmt.Printf("%-12s %12s\n", "b", "Pcum(>b)")
		for i := 0; i < len(pos); i += max(1, len(pos)/8) {
			fmt.Printf("%-12.3g %12.4f\n", pos[i], float64(len(pos)-i)/float64(len(pos)))
		}
		var lx, ly []float64
		for i, v := range pos {
			lx = append(lx, v)
			ly = append(ly, float64(len(pos)-i)/float64(len(pos)))
		}
		if f, err := stats.LogLogFit(lx, ly); err == nil {
			fmt.Printf("cumulative log-log slope: %.2f\n", f.Slope)
		}
		tri := metrics.TrianglesPerNodeFrozen(s)
		maxT := 0
		for _, t := range tri {
			if t > maxT {
				maxT = t
			}
		}
		fmt.Printf("triangles per node: max %d (broad P(T))\n", maxT)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.BetweennessSampledFrozen(s, rng.New(uint64(i)), 64); err != nil {
			b.Fatal(err)
		}
	}
}

// E6: the small world — AS-level average distance ≈ 3.6 hops with the
// distribution peaked at 3-4, diameter ≈ 10.
func BenchmarkE6PathLengths(b *testing.B) {
	const n = 8000
	once("E6", func() {
		fmt.Printf("\nE6: path lengths at N=%d (AS map: ⟨d⟩≈3.6, diameter≈10)\n", n)
		fmt.Printf("%-8s %8s %8s  distribution d:P(d)\n", "model", "⟨d⟩", "diam")
		for _, m := range []string{"pfp", "glp", "econ", "waxman", "transitstub"} {
			ps, err := engine.New(build(b, m, n).Freeze()).GiantPathLengths(rng.New(3), 400)
			if err != nil {
				b.Fatal(err)
			}
			var ds []int
			for d := range ps.Distribution {
				ds = append(ds, d)
			}
			sort.Ints(ds)
			line := ""
			for _, d := range ds {
				if ps.Distribution[d] >= 0.01 {
					line += fmt.Sprintf(" %d:%.2f", d, ps.Distribution[d])
				}
			}
			fmt.Printf("%-8s %8.2f %8d %s\n", m, ps.Avg, ps.Diameter, line)
		}
	})
	e := engine.New(build(b, "pfp", n).Freeze())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.GiantPathLengths(rng.New(uint64(i)), 100); err != nil {
			b.Fatal(err)
		}
	}
}

// E7: loop scaling N_h(N) ∝ N^ξ(h) (Bianconi-Caldarelli-Capocci 2005).
// AS-map exponents: ξ(3)=1.45±0.07, ξ(4)=2.07±0.01, ξ(5)=2.45±0.08.
func BenchmarkE7LoopScaling(b *testing.B) {
	sizes := []int{500, 1000, 2000, 4000}
	once("E7", func() {
		fmt.Printf("\nE7: loop scaling (AS map: ξ(3)=1.45, ξ(4)=2.07, ξ(5)=2.45)\n")
		for _, model := range []string{"pfp", "econ"} {
			var lx, l3, l4, l5 []float64
			fmt.Printf("%-6s %8s %12s %14s %16s\n", model, "N", "N3", "N4", "N5")
			for _, n := range sizes {
				cc := metrics.CountCyclesFrozen(build(b, model, n).Freeze())
				fmt.Printf("%-6s %8d %12d %14d %16d\n", "", n, cc.C3, cc.C4, cc.C5)
				lx = append(lx, float64(n))
				l3 = append(l3, float64(cc.C3))
				l4 = append(l4, float64(cc.C4))
				l5 = append(l5, float64(cc.C5))
			}
			xi := func(ys []float64) float64 {
				f, err := stats.LogLogFit(lx, ys)
				if err != nil {
					return math.NaN()
				}
				return f.Slope
			}
			fmt.Printf("%-6s exponents: ξ(3)=%.2f ξ(4)=%.2f ξ(5)=%.2f\n",
				model, xi(l3), xi(l4), xi(l5))
		}
	})
	s := build(b, "pfp", 2000).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.CountCyclesFrozen(s)
	}
}

// E8: the generator shoot-out (Bu-Towsley style comparison table): every
// registered family scored against the AS-map statistics. Expected
// ordering: degree-driven Internet models (pfp/glp/gba/econ/inet) beat
// BA, which beats the structural and random baselines.
func BenchmarkE8GeneratorComparison(b *testing.B) {
	const n = 2000
	names := core.Names()
	cells := make([]core.Cell, len(names))
	for i, name := range names {
		cells[i] = core.Cell{Model: name, N: n, Seed: 1, Target: refdata.ASMap2001, PathSources: 200}
	}
	results, _, err := core.RunCellsWith(cells, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	once("E8", func() {
		reports := make(map[string]*compare.Report, len(results))
		for i, name := range names {
			reports[name] = results[i].Report
		}
		fmt.Printf("\nE8: generator shoot-out at N=%d (aggregate relative error vs AS map)\n", n)
		for rank, name := range compare.RankModels(reports) {
			fmt.Printf("%2d. %-12s %6.1f%%\n", rank+1, name, 100*reports[name].Score)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunCell(core.Cell{Model: "glp", N: n, Seed: 1, Target: refdata.ASMap2001, PathSources: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: valley-free policy routing inflates AS paths by a few percent on
// average (Gao-Wang): ratio in the 1.0-1.25 band, small fraction of
// policy-unreachable pairs under complete annotations.
func BenchmarkE9PathInflation(b *testing.B) {
	const n = 3000
	g := build(b, "gba", n)
	ann, err := asAnnotate(g)
	if err != nil {
		b.Fatal(err)
	}
	frozen := ann.Freeze()
	once("E9", func() {
		inf, err := frozen.MeasureInflation(rng.New(5), 200)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\nE9: valley-free inflation, gba N=%d (published band %.2f-%.2f)\n",
			n, refdata.PolicyInflation.MeanRatioLo, refdata.PolicyInflation.MeanRatioHi)
		fmt.Printf("shortest %.3f  policy %.3f  ratio %.3f  unreachable %.2f%%  max stretch %d\n",
			inf.AvgShortest, inf.AvgPolicy, inf.Ratio,
			100*float64(inf.Unreachable)/float64(inf.Pairs), inf.MaxStretch)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frozen.MeasureInflation(rng.New(uint64(i)), 50); err != nil {
			b.Fatal(err)
		}
	}
}

// E10: Internet growth 1997-2002 was exponential with α ≳ δ ≳ β
// (users, links, nodes) — the demand/supply consistency condition. The
// econ engine must realize its configured rates.
func BenchmarkE10Growth(b *testing.B) {
	model := econ.Default(3000)
	res, err := model.Run(rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	once("E10", func() {
		alpha, beta, delta, err := econ.GrowthRates(res.History)
		if err != nil {
			b.Fatal(err)
		}
		g := refdata.GrowthRates
		fmt.Printf("\nE10: growth rates per month (measured Internet: α=%.4f δ=%.4f β=%.4f)\n",
			g.Alpha, g.Delta, g.Beta)
		fmt.Printf("econ engine realizes: α=%.4f δ=%.4f β=%.4f (configured %.3f/%.3f)\n",
			alpha, delta, beta, model.Alpha, model.Beta)
		last := res.History[len(res.History)-1]
		fmt.Printf("final month %d: W=%.3g N=%d E=%d ⟨k⟩=%.2f\n",
			last.Month, last.Users, last.Nodes, last.Edges,
			2*float64(last.Edges)/float64(last.Nodes))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := econ.Default(800).Run(rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// E11: rich-club connectivity (Zhou-Mondragón): φ rises toward 1 for
// the top-degree club in AS-like maps, stays low in BA and ER.
func BenchmarkE11RichClub(b *testing.B) {
	const n = 8000
	once("E11", func() {
		fmt.Printf("\nE11: rich-club φ of the smallest club with ≥16 members at N=%d\n", n)
		fmt.Printf("%-8s %8s %8s\n", "model", "club", "φ")
		for _, m := range []string{"pfp", "econ", "glp", "ba", "gnp"} {
			rc := metrics.RichClubFrozen(build(b, m, n).Freeze())
			for i := len(rc) - 1; i >= 0; i-- {
				if rc[i].N >= 16 {
					fmt.Printf("%-8s %8d %8.3f\n", m, rc[i].N, rc[i].Phi)
					break
				}
			}
		}
	})
	s := build(b, "pfp", n).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.RichClubFrozen(s)
	}
}

// E12: ISP economics — revenue follows the customer base, so profit
// inequality exceeds customer inequality and the profitable fraction
// quantifies "can you make a living?". Traffic concentrates on the
// provider core.
func BenchmarkE12Economics(b *testing.B) {
	model := econ.Default(2000)
	res, err := model.Run(rng.New(1971))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := econ.Market(res, econ.DefaultPricing())
	if err != nil {
		b.Fatal(err)
	}
	once("E12", func() {
		n := len(rep.Accounts)
		fmt.Printf("\nE12: the AS market at N=%d\n", n)
		fmt.Printf("profitable: %.1f%%  median margin: %.1f%%  Gini users %.3f  Gini profit %.3f\n",
			100*float64(rep.Profitable)/float64(n), 100*rep.MedianMargin,
			rep.GiniUsers, rep.GiniProfit)
		masses := make([]float64, res.G.N())
		for u := range masses {
			masses[u] = res.Users[u]
		}
		d, err := traffic.NewGravityDemand(masses, 1e6)
		if err != nil {
			b.Fatal(err)
		}
		lr, err := traffic.RouteFrozenDemand(res.G.Freeze(), d, true, 0)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("traffic: max/mean link load %.1f, max utilization %.3g\n",
			lr.MaxLoad/lr.MeanLoad, lr.MaxUtilization)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := econ.Market(res, econ.DefaultPricing()); err != nil {
			b.Fatal(err)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// asAnnotate applies the standard degree-hierarchy relationship
// annotation used by the routing experiments.
func asAnnotate(g *graph.Graph) (*aspolicy.Annotated, error) {
	return aspolicy.AnnotateByDegree(g, 1.3)
}

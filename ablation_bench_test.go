package netmodel

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// data structure behind preferential sampling, the betweenness
// estimator, and the geographic constraint in the econ model.

import (
	"fmt"
	"testing"

	"netmodel/internal/compare"
	"netmodel/internal/econ"
	"netmodel/internal/engine"
	"netmodel/internal/rng"
)

// BenchmarkAblationFenwickSampling measures one preferential-attachment
// draw + update with the Fenwick tree (O(log n)) — the design used by
// every growth generator in this repository.
func BenchmarkAblationFenwickSampling(b *testing.B) {
	const n = 100000
	r := rng.New(1)
	f := rng.NewFenwick(r, n)
	for i := 0; i < n; i++ {
		f.Set(i, float64(1+i%17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := f.Sample()
		f.Add(j, 1)
	}
}

// BenchmarkAblationLinearSampling is the naive alternative: a linear
// roulette scan over the weight array, O(n) per draw. At n = 10⁵ the
// Fenwick tree wins by three orders of magnitude, which is what makes
// full-scale growth simulation tractable.
func BenchmarkAblationLinearSampling(b *testing.B) {
	const n = 100000
	r := rng.New(1)
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = float64(1 + i%17)
		total += w[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := r.Float64() * total
		j := 0
		for ; j < n-1; j++ {
			x -= w[j]
			if x <= 0 {
				break
			}
		}
		w[j]++
		total++
	}
}

// BenchmarkAblationBetweennessExact measures full Brandes betweenness
// on one engine worker, so the row isolates the estimator's cost.
func BenchmarkAblationBetweennessExact(b *testing.B) {
	s := build(b, "pfp", 1000).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration defeats memoization.
		engine.New(s, engine.WithWorkers(1)).Betweenness()
	}
}

// BenchmarkAblationBetweennessSampled measures the 10%-source
// estimator; accuracy is verified in internal/metrics tests (rank
// correlation > 0.95 at these rates).
func BenchmarkAblationBetweennessSampled(b *testing.B) {
	eng := engine.New(build(b, "pfp", 1000).Freeze(), engine.WithWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BetweennessSampled(rng.New(uint64(i)), 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistanceConstraint contrasts the econ model with and
// without geographic link costs — the published effect: distance
// inhibits small-AS long-haul peering, deepening disassortativity and
// hierarchy.
func BenchmarkAblationDistanceConstraint(b *testing.B) {
	res, err := econ.Default(2000).Run(rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	resD, err := econ.DefaultDistance(2000).Run(rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	once("AblationDistance", func() {
		eng := engine.New(res.G.Freeze())
		engD := engine.New(resD.G.Freeze())
		spec := compare.MeasureSpectraFrozen(eng)
		specD := compare.MeasureSpectraFrozen(engD)
		fmt.Printf("\nAblation: econ distance constraint at N=2000\n")
		fmt.Printf("%-14s %14s %14s %12s\n", "variant", "assortativity", "knn slope", "⟨c⟩")
		fmt.Printf("%-14s %+14.3f %14.2f %12.4f\n", "no distance",
			eng.Assortativity(), spec.KnnSlope, eng.AvgClustering())
		fmt.Printf("%-14s %+14.3f %14.2f %12.4f\n", "distance",
			engD.Assortativity(), specD.KnnSlope, engD.AvgClustering())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := econ.DefaultDistance(500).Run(rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReinforcement sweeps the multi-edge reinforcement
// probability R and prints its effect on degree vs bandwidth — the knob
// that controls the k ∝ b^μ split.
func BenchmarkAblationReinforcement(b *testing.B) {
	once("AblationR", func() {
		fmt.Printf("\nAblation: econ reinforcement R at N=1500\n")
		fmt.Printf("%-6s %8s %10s %10s %12s\n", "R", "edges", "bandwidth", "B/M", "max multi")
		for _, R := range []float64{0, 0.4, 0.8, 0.95} {
			m := econ.Default(1500)
			m.R = R
			res, err := m.Run(rng.New(23))
			if err != nil {
				b.Fatal(err)
			}
			maxW := 0
			res.G.Edges(func(u, v, w int) bool {
				if w > maxW {
					maxW = w
				}
				return true
			})
			fmt.Printf("%-6.2f %8d %10d %10.3f %12d\n", R, res.G.M(),
				res.G.TotalStrength(),
				float64(res.G.TotalStrength())/float64(res.G.M()), maxW)
		}
	})
	m := econ.Default(500)
	m.R = 0.8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

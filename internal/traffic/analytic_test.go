package traffic

import (
	"math"
	"testing"

	"netmodel/internal/rng"
)

// TestProcessorSharingMeanFCT checks both engines against a closed-form
// queueing result. One link of capacity 1 between two unit-mass nodes
// carries every flow, and max-min sharing of a single bottleneck is
// processor sharing. With Poisson arrivals at load ρ and unit mean size,
// the M/G/1-PS mean sojourn time is 1/(1−ρ) whatever the size law —
// the fair-sharing regime of Kang, Kelly, Lee and Williams. A short
// epoch (0.1) keeps the quantization of arrivals to epoch starts small,
// and 200 000 epochs give ~6 000–14 000 flows per run.
func TestProcessorSharingMeanFCT(t *testing.T) {
	s := pathGraph(2).Freeze()
	for _, eng := range bothEngines {
		for _, sizes := range []string{"exp", "pareto", "lognormal"} {
			t.Run(eng+"/"+sizes, func(t *testing.T) {
				t.Parallel()
				for _, rho := range []float64{0.3, 0.5, 0.7} {
					tol := 0.10
					if rho > 0.5 {
						tol = 0.15
					}
					for seed := uint64(1); seed <= 3; seed++ {
						spec := WorkloadSpec{Engine: eng, Sizes: sizes, LoadFactor: rho,
							EpochLen: 0.1, Epochs: 200000}
						if sizes == "pareto" {
							spec.TailIndex = 2.5 // finite variance
						}
						rep, err := Simulate(s, UniformMasses(2), spec, rng.New(seed), 1)
						if err != nil {
							t.Fatal(err)
						}
						if rep.Completed < 1000 {
							t.Fatalf("rho %.1f seed %d: only %d flows completed", rho, seed, rep.Completed)
						}
						ratio := rep.MeanFCT * (1 - rho)
						if math.Abs(ratio-1) > tol {
							t.Errorf("rho %.1f seed %d: mean FCT %.4f is %.3f× the PS value %.4f (tolerance %.0f%%)",
								rho, seed, rep.MeanFCT, ratio, 1/(1-rho), 100*tol)
						}
					}
				}
			})
		}
	}
}

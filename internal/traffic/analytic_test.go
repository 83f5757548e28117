package traffic

import (
	"fmt"
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
						rep, err := Simulate(s, uniformMasses(2), spec, rng.New(seed), 1)
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

// TestStabilityBoundary checks both engines against the stability
// region of fair-sharing networks (Feuillet; Bonald and Massoulié):
// with Poisson arrivals the active-flow count stays bounded while every
// link's load is below 1 and grows linearly once a link's load exceeds
// it. Two linear networks: a single link, and a two-link line under
// uniform masses, where a third of the flows cross both links and each
// link carries 4/3 of the load factor per unit capacity, so the load
// factor is scaled by 3/4 to put each link at ρ. Sizes are exponential
// with mean 1 on unit links: the remaining work of each flow is then
// again Exp(1), so the work above ρ = 1 — drifting up at ρ − 1 per unit
// time on each link — is carried by about as many flows. At ρ = 0.8 the
// count never exceeds 150 (a single M/M/1 link holds k or more flows
// with stationary probability 0.8^k); at ρ = 1.2 the final count must
// reach half the drift's (ρ − 1)·T, about five standard deviations
// below its mean. Seeds are fixed.
func TestStabilityBoundary(t *testing.T) {
	const (
		epochLen = 0.1
		epochs   = 50000
		horizon  = epochLen * epochs
	)
	for _, eng := range bothEngines {
		for _, links := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d-link", eng, links), func(t *testing.T) {
				t.Parallel()
				s := pathGraph(links + 1).Freeze()
				// Load factor per link load ρ: the offered rate is
				// LoadFactor × total capacity, spread over the lines' paths.
				perLink := 1.0
				if links == 2 {
					perLink = 3.0 / 4
				}
				for _, rho := range []float64{0.8, 1.2} {
					spec := WorkloadSpec{Engine: eng, Sizes: "exp", LoadFactor: rho * perLink,
						EpochLen: epochLen, Epochs: epochs}
					rep, err := Simulate(s, uniformMasses(links+1), spec, rng.New(uint64(7*links)), 1)
					if err != nil {
						t.Fatal(err)
					}
					peak := 0
					for _, ep := range rep.Epochs {
						peak = max(peak, ep.Active)
					}
					final := rep.Epochs[len(rep.Epochs)-1].Active
					t.Logf("rho %.1f: peak %d, final %d active flows", rho, peak, final)
					if rho < 1 {
						if peak > 150 {
							t.Errorf("rho %.1f: active flows peaked at %d, want a bounded count (≤ 150)", rho, peak)
						}
						continue
					}
					if want := 0.5 * (rho - 1) * horizon; float64(final) < want {
						t.Errorf("rho %.1f: %d active flows after time %.0f, want at least half the drift, %.0f",
							rho, final, horizon, want)
					}
				}
			})
		}
	}
}

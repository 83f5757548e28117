package traffic

import (
	"math"
	"testing"

	"netmodel/internal/rng"
)

func TestWorkloadSpecDefaults(t *testing.T) {
	sp := WorkloadSpec{LoadFactor: 0.5}.withDefaults()
	if sp.Arrivals != "poisson" || sp.Sizes != "pareto" {
		t.Fatalf("defaults: arrivals %q sizes %q", sp.Arrivals, sp.Sizes)
	}
	if sp.TailIndex != defaultTailAlpha || sp.MeanSize != 1 || sp.Epochs != 20 ||
		sp.EpochLen != 1 || sp.CapacityUnit != 1 || sp.OverloadAt != defaultOverload {
		t.Fatalf("defaults not applied: %+v", sp)
	}
	// Lognormal resolves the tail knob to sigma's default instead.
	if sp := (WorkloadSpec{LoadFactor: 1, Sizes: "lognormal"}).withDefaults(); sp.TailIndex != defaultTailSigma {
		t.Fatalf("lognormal tail default = %v", sp.TailIndex)
	}
}

func TestWorkloadSpecValidate(t *testing.T) {
	good := WorkloadSpec{LoadFactor: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, sp := range badWorkloadSpecs {
		if err := sp.Validate(); err == nil {
			t.Fatalf("spec %d (%+v) should fail validation", i, sp)
		}
	}
}

// badWorkloadSpecs are workload specs Validate must reject; the fuzz
// target seeds from them too.
var badWorkloadSpecs = []WorkloadSpec{
	{LoadFactor: 0.5, Arrivals: "burst"},
	{LoadFactor: 0.5, Sizes: "weibull"},
	{LoadFactor: 0},
	{LoadFactor: -1},
	{LoadFactor: 0.5, Sizes: "pareto", TailIndex: 1}, // infinite mean
	{LoadFactor: 0.5, Sizes: "exp", TailIndex: -1},   // negative tail
	{LoadFactor: 0.5, MeanSize: -2},                  // negative size
	{LoadFactor: 0.5, Arrivals: "onoff", MeanOn: -1}, // negative duration
	{LoadFactor: 0.5, EpochLen: -1},                  // negative epoch
	{LoadFactor: 0.5, CapacityUnit: -3},              // negative capacity
	{LoadFactor: 0.5, Epochs: -1},                    // negative horizon
	{LoadFactor: 0.5, Epochs: math.MaxInt32 + 1},     // horizon beyond the int32 epoch counters
	{LoadFactor: math.NaN()},                         // NaN slips past <= comparisons
	{LoadFactor: 0.5, TailIndex: math.NaN()},         // NaN tail
	{LoadFactor: math.Inf(1)},                        // infinite load
	{LoadFactor: 0.5, MeanSize: math.Inf(1)},         // infinite size
	// A sub-epoch repairing outage cycle: ~1e301 renewal cycles per
	// entity over the horizon.
	{LoadFactor: 0.5, Failures: &FailureSpec{Mode: FailRandom, Links: 1, MTBF: 1e-300, MTTR: 1e-300}},
	// A denormal MTBF: 1/MTBF is +Inf, so the renewal clock never
	// advances past the up-periods.
	{LoadFactor: 0.5, Failures: &FailureSpec{Mode: FailRandom, Links: 1, MTBF: 1e-310, MTTR: 1e300}},
}

// sampleMean draws k sizes from the spec's size law and returns their
// mean.
func sampleMean(sp WorkloadSpec, k int, seed uint64) float64 {
	r := rng.New(seed)
	var sum float64
	for i := 0; i < k; i++ {
		sum += sp.sampleSize(r)
	}
	return sum / float64(k)
}

func TestSizeDistMeans(t *testing.T) {
	for _, sp := range []WorkloadSpec{
		{Sizes: "pareto", MeanSize: 4, TailIndex: 2.5},
		{Sizes: "lognormal", MeanSize: 4, TailIndex: 0.8},
		{Sizes: "exp", MeanSize: 4},
	} {
		mean := sampleMean(sp, 200000, 11)
		if math.Abs(mean-4) > 0.4 {
			t.Fatalf("%s sample mean %v, want ~4", sp.Sizes, mean)
		}
	}
}

func TestParetoSizesTailHeaviness(t *testing.T) {
	// A heavier tail (smaller alpha) must put more mass far above the
	// mean at equal means.
	count := func(alpha float64) int {
		r := rng.New(3)
		sp := WorkloadSpec{Sizes: "pareto", MeanSize: 1, TailIndex: alpha}
		big := 0
		for i := 0; i < 100000; i++ {
			if sp.sampleSize(r) > 10 {
				big++
			}
		}
		return big
	}
	if h, l := count(1.2), count(3); h <= l {
		t.Fatalf("alpha 1.2 produced %d sizes > 10, alpha 3 produced %d", h, l)
	}
}

// arrivalsOver drives one origin of the spec's arrival process at the
// given rate through k windows of length dt, on a stream seeded with
// seed.
func arrivalsOver(sp WorkloadSpec, rate float64, seed uint64, k int, dt float64) (total int, counts []int) {
	r := rng.New(seed)
	a := sp.newArrivalState(r, rate)
	counts = make([]int, k)
	for i := range counts {
		counts[i] = a.arrivals(r, dt)
		total += counts[i]
	}
	return total, counts
}

func TestPoissonArrivalsMeanRate(t *testing.T) {
	total, _ := arrivalsOver(WorkloadSpec{Arrivals: "poisson"}, 3, 7, 20000, 1)
	mean := float64(total) / 20000
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("poisson mean rate %v, want ~3", mean)
	}
}

func TestOnOffArrivalsMeanRateAndBurstiness(t *testing.T) {
	sp := WorkloadSpec{Arrivals: "onoff", MeanOn: 1, MeanOff: 4}
	total, counts := arrivalsOver(sp, 3, 7, 20000, 1)
	mean := float64(total) / float64(len(counts))
	if math.Abs(mean-3) > 0.15 {
		t.Fatalf("on-off mean rate %v, want ~3", mean)
	}
	// Markov modulation must overdisperse the counts relative to a
	// Poisson stream of the same mean (whose variance equals its mean).
	var m2 float64
	for _, c := range counts {
		d := float64(c) - mean
		m2 += d * d
	}
	if variance := m2 / float64(len(counts)); variance < 1.5*mean {
		t.Fatalf("on-off variance %v not burstier than Poisson mean %v", variance, mean)
	}
}

func TestArrivalSourcesDeterministic(t *testing.T) {
	for _, sp := range []WorkloadSpec{{Arrivals: "poisson"}, {Arrivals: "onoff", MeanOn: 1, MeanOff: 2}} {
		_, a := arrivalsOver(sp, 2, 42, 100, 0.5)
		_, b := arrivalsOver(sp, 2, 42, 100, 0.5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s window %d: %d vs %d on the same seed", sp.Arrivals, i, a[i], b[i])
			}
		}
	}
}

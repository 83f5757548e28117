package stats

import (
	"math"
	"testing"

	"netmodel/internal/rng"
)

// paretoSample draws n continuous power-law samples with exponent alpha
// and minimum xmin.
func paretoSample(r *rng.Rand, n int, xmin, alpha float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Pareto(xmin, alpha-1)
	}
	return xs
}

func TestFitPowerLawDiscreteRecoversAlpha(t *testing.T) {
	r := rng.New(13)
	// Discretized Pareto: rounding continuous samples yields an
	// approximately discrete power law for x >> 1.
	raw := paretoSample(r, 30000, 1, 2.2)
	xs := make([]float64, len(raw))
	for i, x := range raw {
		xs[i] = math.Round(x)
	}
	fit, err := FitPowerLawDiscrete(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.2) > 0.15 {
		t.Fatalf("discrete alpha fitted as %v, want ~2.2", fit.Alpha)
	}
	if fit.NTail < 100 {
		t.Fatalf("tail too small: %d", fit.NTail)
	}
}

func TestFitPowerLawDiscreteRejectsUniform(t *testing.T) {
	r := rng.New(17)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(1 + r.Intn(50))
	}
	fit, err := FitPowerLawDiscrete(xs)
	if err != nil {
		return // acceptable: no regime found
	}
	// A uniform sample has no power-law tail; the KS distance of the best
	// "fit" should be clearly worse than for a genuine power law.
	if fit.KS < 0.02 {
		t.Fatalf("uniform data fitted with KS %v — fit should be poor", fit.KS)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLawDiscrete([]float64{1, 2}); err == nil {
		t.Fatal("tiny sample should fail")
	}
}

func TestHillRecoversTailIndex(t *testing.T) {
	r := rng.New(19)
	xs := paretoSample(r, 50000, 1, 2.5)
	h, err := Hill(xs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-2.5) > 0.15 {
		t.Fatalf("Hill estimate %v, want ~2.5", h)
	}
}

func TestHillErrors(t *testing.T) {
	if _, err := Hill([]float64{1, 2, 3}, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Hill([]float64{1, 2, 3}, 3); err == nil {
		t.Fatal("k=len should fail")
	}
}

// TestFitPowerLawHistogramMatchesDiscrete: the histogram fit is the
// same scan grouped by distinct value, so on identical data it must
// select the same regime and agree on the exponent and KS distance up
// to floating-point summation order.
func TestFitPowerLawHistogramMatchesDiscrete(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		xs := paretoSample(r, 3000, 1, 2.2)
		maxK := 0
		ints := make([]float64, len(xs))
		for i, x := range xs {
			k := int(math.Round(x))
			if k < 1 {
				k = 1
			}
			if k > 500 {
				k = 500 // clamp the extreme tail so histograms stay small
			}
			ints[i] = float64(k)
			if k > maxK {
				maxK = k
			}
		}
		hist := make([]int, maxK+1)
		for _, x := range ints {
			hist[int(x)]++
		}
		want, err := FitPowerLawDiscrete(ints)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FitPowerLawHistogram(hist)
		if err != nil {
			t.Fatal(err)
		}
		if got.Xmin != want.Xmin || got.NTail != want.NTail {
			t.Fatalf("seed %d: regime (%v,%d) vs (%v,%d)", seed, got.Xmin, got.NTail, want.Xmin, want.NTail)
		}
		if math.Abs(got.Alpha-want.Alpha) > 1e-9 || math.Abs(got.KS-want.KS) > 1e-9 {
			t.Fatalf("seed %d: fit (%v,%v) vs (%v,%v)", seed, got.Alpha, got.KS, want.Alpha, want.KS)
		}
	}
}

// TestFitPowerLawHistogramErrors covers the too-few-samples and
// no-regime error paths.
func TestFitPowerLawHistogramErrors(t *testing.T) {
	if _, err := FitPowerLawHistogram([]int{0, 3}); err == nil {
		t.Fatal("too few samples must error")
	}
	if _, err := FitPowerLawHistogram(nil); err == nil {
		t.Fatal("empty histogram must error")
	}
}

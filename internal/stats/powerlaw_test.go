package stats

import (
	"errors"
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

// unprunedFitPowerLawHistogram is FitPowerLawHistogram without the
// KS scan's early exit: every candidate's scan runs over the whole
// tail. It is the oracle of the pruned scan.
func unprunedFitPowerLawHistogram(hist []int) (PowerLawFit, error) {
	var ks []int
	total := 0
	for k := 1; k < len(hist); k++ {
		if hist[k] > 0 {
			ks = append(ks, k)
			total += hist[k]
		}
	}
	if total < 10 {
		return PowerLawFit{}, errors.New("stats: too few samples for power-law fit")
	}
	sufN := make([]int, len(ks)+1)
	sufL := make([]float64, len(ks)+1)
	for i := len(ks) - 1; i >= 0; i-- {
		cnt := hist[ks[i]]
		sufN[i] = sufN[i+1] + cnt
		sufL[i] = sufL[i+1] + float64(cnt)*math.Log(float64(ks[i]))
	}
	best := PowerLawFit{KS: math.Inf(1)}
	for i, k := range ks {
		nTail := sufN[i]
		if nTail < 10 {
			break
		}
		xmin := float64(k)
		s := sufL[i] - float64(nTail)*math.Log(xmin-0.5)
		if s <= 0 {
			continue
		}
		alpha := 1 + float64(nTail)/s
		if alpha <= 1 || math.IsNaN(alpha) {
			continue
		}
		maxD := 0.0
		before := 0
		for j := i; j < len(ks); j++ {
			cnt := hist[ks[j]]
			model := 1 - math.Pow((float64(ks[j])+0.5)/(xmin-0.5), 1-alpha)
			lo := math.Abs(float64(before+1)/float64(nTail) - model)
			hi := math.Abs(float64(before+cnt)/float64(nTail) - model)
			if lo > maxD {
				maxD = lo
			}
			if hi > maxD {
				maxD = hi
			}
			before += cnt
		}
		if maxD < best.KS {
			best = PowerLawFit{Alpha: alpha, Xmin: xmin, KS: maxD, NTail: nTail}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, errors.New("stats: no valid power-law regime found")
	}
	return best, nil
}

// TestFitPowerLawHistogramMatchesUnpruned: the early exit of the KS
// scan only skips candidates that cannot win, so every field of the
// fit, and the error verdict, must be bit-identical to the full scan
// over random and heavy-tailed histograms.
func TestFitPowerLawHistogramMatchesUnpruned(t *testing.T) {
	r := rng.New(11)
	fits := 0
	for trial := 0; trial < 400; trial++ {
		var hist []int
		if trial%2 == 0 {
			// Uniform random counts over a random support, holes included.
			hist = make([]int, 1+r.Intn(200))
			for k := range hist {
				if r.Float64() < 0.6 {
					hist[k] = r.Intn(50)
				}
			}
		} else {
			// Heavy-tailed: Pareto samples rounded to integer values.
			hist = make([]int, 2001)
			alpha := 1.5 + 2*r.Float64()
			for i := 0; i < 200+r.Intn(5000); i++ {
				hist[min(int(math.Round(r.Pareto(1, alpha-1))), 2000)]++
			}
		}
		got, gerr := FitPowerLawHistogram(hist)
		want, werr := unprunedFitPowerLawHistogram(hist)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("trial %d: error %v, oracle %v", trial, gerr, werr)
		}
		if gerr == nil {
			fits++
		}
		if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
			math.Float64bits(got.Xmin) != math.Float64bits(want.Xmin) ||
			math.Float64bits(got.KS) != math.Float64bits(want.KS) || got.NTail != want.NTail {
			t.Fatalf("trial %d: fit %+v, oracle %+v", trial, got, want)
		}
	}
	t.Logf("%d of 400 histograms fit", fits)
	if fits < 300 {
		t.Fatalf("only %d of 400 histograms fit; the comparison covers too few fits", fits)
	}
}

package stats

import (
	"errors"
	"math"
	"sort"
)

// PowerLawFit is the result of a maximum-likelihood power-law tail fit
// following Clauset-Shalizi-Newman: P(x) ∝ x^-Alpha for x >= Xmin.
type PowerLawFit struct {
	Alpha float64 // tail exponent (γ in the degree-distribution notation)
	Xmin  float64 // start of the power-law regime
	KS    float64 // Kolmogorov-Smirnov distance of the fit over the tail
	NTail int     // number of samples in the tail
}

// FitPowerLawDiscrete fits a discrete power law to integer-valued samples
// (degrees), scanning candidate xmin values and keeping the one whose
// MLE exponent minimizes the KS distance. The discrete MLE uses the
// standard approximation alpha = 1 + n / Σ ln(x_i/(xmin-0.5)), accurate
// for xmin >= 2.
func FitPowerLawDiscrete(xs []float64) (PowerLawFit, error) {
	var pos []float64
	for _, x := range xs {
		if x >= 1 {
			pos = append(pos, math.Round(x))
		}
	}
	if len(pos) < 10 {
		return PowerLawFit{}, errors.New("stats: too few samples for power-law fit")
	}
	sort.Float64s(pos)
	// Candidate xmins: distinct values up to the point where the tail
	// keeps at least 10 samples.
	best := PowerLawFit{KS: math.Inf(1)}
	seen := map[float64]bool{}
	for i, xm := range pos {
		if seen[xm] || xm < 1 {
			continue
		}
		seen[xm] = true
		tail := pos[i:]
		if len(tail) < 10 {
			break
		}
		alpha := discreteMLE(tail, xm)
		if alpha <= 1 || math.IsNaN(alpha) {
			continue
		}
		ks := ksDiscrete(tail, alpha, xm)
		if ks < best.KS {
			best = PowerLawFit{Alpha: alpha, Xmin: xm, KS: ks, NTail: len(tail)}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, errors.New("stats: no valid power-law regime found")
	}
	return best, nil
}

// FitPowerLawHistogram is FitPowerLawDiscrete computed from a value
// histogram (hist[k] = number of samples of value k) instead of raw
// samples: the same xmin scan, MLE exponent and KS selection, but in
// O(D²) over the D distinct values rather than O(n·D) over samples.
// This is the fit the trajectory engine runs every observation epoch,
// where the degree histogram is maintained incrementally and n·D work
// per epoch would dominate the refresh. Within a tied group the
// empirical CDF is monotone, so checking the group's two endpoint gaps
// reproduces the per-sample KS scan exactly; results agree with
// FitPowerLawDiscrete up to floating-point summation order.
func FitPowerLawHistogram(hist []int) (PowerLawFit, error) {
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
	// Suffix sums over distinct values: tail counts and Σ cnt·ln k, so
	// each candidate's MLE is O(1).
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
		// KS over the tail: the empirical CDF is checked at both ends
		// of each tied group, the extremes of the per-sample scan.
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

func discreteMLE(tail []float64, xmin float64) float64 {
	var s float64
	for _, x := range tail {
		s += math.Log(x / (xmin - 0.5))
	}
	if s <= 0 {
		return math.NaN()
	}
	return 1 + float64(len(tail))/s
}

// ksDiscrete computes the KS distance between the empirical tail CDF and
// the fitted discrete power law, approximating the discrete zeta CDF by
// the continuous form with the usual -0.5 offset.
func ksDiscrete(tail []float64, alpha, xmin float64) float64 {
	n := float64(len(tail))
	maxD := 0.0
	for i, x := range tail {
		emp := float64(i+1) / n
		model := 1 - math.Pow((x+0.5)/(xmin-0.5), 1-alpha)
		if d := math.Abs(emp - model); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Hill returns the Hill estimator of the tail index using the k largest
// samples: gamma_hat = 1 + 1/mean(ln(x_(i)/x_(k+1))). The returned value
// is on the same scale as the power-law exponent alpha.
func Hill(xs []float64, k int) (float64, error) {
	if k < 1 || k >= len(xs) {
		return 0, errors.New("stats: Hill k out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	ref := sorted[k]
	if ref <= 0 {
		return 0, errors.New("stats: Hill requires positive order statistics")
	}
	var s float64
	for i := 0; i < k; i++ {
		s += math.Log(sorted[i] / ref)
	}
	if s <= 0 {
		return 0, errors.New("stats: degenerate Hill sample")
	}
	return 1 + float64(k)/s, nil
}

// Package stats implements the statistical toolkit of the Internet
// measurement literature: descriptive statistics, discrete power-law
// fits by maximum likelihood with Kolmogorov-Smirnov goodness, the Hill
// tail-index estimator and least-squares regression (including on
// log-log axes, the classic "slope of the CCDF" exponent estimate).
//
// Everything is built from scratch on the standard library because the
// reproduction target has no graph/statistics ecosystem to lean on.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Var, Std     float64
	Min, Max           float64
	Median, P90, P99   float64
	Skewness, Kurtosis float64
}

// Summarize computes descriptive statistics. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)
	s.Var = m2
	s.Std = math.Sqrt(m2)
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4/(m2*m2) - 3
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0<=q<=1) of a sorted sample using
// linear interpolation. It panics if the sample is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LinFit is an ordinary-least-squares line y = Slope*x + Intercept with
// the coefficient of determination R2.
type LinFit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits a least-squares line through (xs[i], ys[i]). It returns
// an error when fewer than two points or zero x-variance.
func LinearFit(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, errors.New("stats: mismatched sample lengths")
	}
	n := float64(len(xs))
	if n < 2 {
		return LinFit{}, errors.New("stats: need at least two points")
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinFit{}, errors.New("stats: zero variance in x")
	}
	f := LinFit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (f.Slope*xs[i] + f.Intercept)
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// LogLogFit fits a power law y = C * x^Slope by least squares on log-log
// axes, ignoring non-positive points. This is the historical Faloutsos-
// style exponent estimate; prefer FitPowerLaw for tail exponents.
func LogLogFit(xs, ys []float64) (LinFit, error) {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return LinearFit(lx, ly)
}

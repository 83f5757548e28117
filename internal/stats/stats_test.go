package stats

import (
	"math"
	"sort"
	"testing"

	"netmodel/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// summary is the two-pass reference the streaming Moments accumulator
// is checked against.
type summary struct {
	N              int
	Mean, Var, Std float64
	Min, Max       float64
	Median         float64
}

// summarize computes a summary in two passes (the mean, then the
// population variance of the deviations) plus the median of a sorted
// copy. It returns a zero summary for an empty sample.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
	}
	s.Mean = sum / float64(n)
	for _, x := range xs {
		s.Var += (x - s.Mean) * (x - s.Mean)
	}
	s.Var /= float64(n)
	s.Std = math.Sqrt(s.Var)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	return s
}

// quantile returns the q-quantile (0<=q<=1) of a non-empty sorted
// sample by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func TestSummarizeKnown(t *testing.T) {
	s := summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.Std, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if quantile(sorted, 0) != 1 || quantile(sorted, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if !almostEqual(quantile(sorted, 0.5), 3, 1e-12) {
		t.Fatal("median wrong")
	}
	if !almostEqual(quantile(sorted, 0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", quantile(sorted, 0.25))
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit %+v, want slope 2 intercept 1", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rng.New(5)
	var xs, ys []float64
	for i := 0; i < 1000; i++ {
		x := r.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, 3*x-2+r.Normal(0, 0.5))
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 3, 0.05) || !almostEqual(f.Intercept, -2, 0.1) {
		t.Fatalf("noisy fit %+v", f)
	}
	if f.R2 < 0.95 {
		t.Fatalf("R2 = %v too low", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should fail")
	}
	if _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero x-variance should fail")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestLogLogFitRecoversExponent(t *testing.T) {
	var xs, ys []float64
	for x := 1.0; x <= 1000; x *= 1.3 {
		xs = append(xs, x)
		ys = append(ys, 5*math.Pow(x, -2.2))
	}
	f, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, -2.2, 1e-9) {
		t.Fatalf("slope %v, want -2.2", f.Slope)
	}
}

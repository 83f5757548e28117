package stats

import (
	"math"
	"testing"

	"netmodel/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
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
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if Quantile(sorted, 0) != 1 || Quantile(sorted, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if !almostEqual(Quantile(sorted, 0.5), 3, 1e-12) {
		t.Fatal("median wrong")
	}
	if !almostEqual(Quantile(sorted, 0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(sorted, 0.25))
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

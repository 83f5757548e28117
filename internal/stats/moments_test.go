package stats

import (
	"math"
	"testing"
)

func TestMomentsMatchesSummarize(t *testing.T) {
	xs := []float64{3.2, -1.5, 0, 7.75, 2.25, -4, 11, 0.5}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	s := summarize(xs)
	if m.N() != s.N {
		t.Fatalf("N = %d, want %d", m.N(), s.N)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", m.Mean(), s.Mean},
		{"var", m.Var(), s.Var},
		{"std", m.Std(), s.Std},
		{"min", m.Min(), s.Min},
		{"max", m.Max(), s.Max},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.N() != 0 || m.Mean() != 0 || m.Var() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatalf("empty accumulator not zero: %+v", m)
	}
	m.Add(5)
	if m.N() != 1 || m.Mean() != 5 || m.Var() != 0 || m.Std() != 0 || m.Min() != 5 || m.Max() != 5 {
		t.Fatalf("single observation: %+v", m)
	}
}

// TestMomentsOrderIndependentWithinTolerance: the running update must
// agree with the two-pass computation regardless of fold order.
func TestMomentsOrderIndependent(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 0.5}
	var fwd, rev Moments
	for i := range xs {
		fwd.Add(xs[i])
		rev.Add(xs[len(xs)-1-i])
	}
	if fwd.N() != rev.N() || fwd.Min() != rev.Min() || fwd.Max() != rev.Max() {
		t.Fatalf("count/range mismatch: %+v vs %+v", fwd, rev)
	}
	if math.Abs(fwd.Mean()-rev.Mean()) > 1e-12 || math.Abs(fwd.Var()-rev.Var()) > 1e-12 {
		t.Fatalf("moments order-sensitive: mean %v vs %v, var %v vs %v",
			fwd.Mean(), rev.Mean(), fwd.Var(), rev.Var())
	}
}

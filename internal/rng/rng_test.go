package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	var allZero = true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	prop := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(13)
	const n = 10
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(19)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: %v", s)
	}
}

func TestExpMean(t *testing.T) {
	r := New(23)
	const lambda = 2.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(lambda)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("Exp mean %v, want %v", mean, 1/lambda)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(29)
	const xm, alpha = 1.0, 2.0
	const n = 200000
	exceed2 := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto below xm: %v", v)
		}
		if v > 2 {
			exceed2++
		}
	}
	// P(X>2) = (1/2)^2 = 0.25
	frac := float64(exceed2) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("P(X>2) = %v, want 0.25", frac)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(31)
	const mean, sd = 3.0, 2.0
	const n = 300000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mean, sd)
		sum += v
		sum2 += v * v
	}
	m := sum / n
	v := sum2/n - m*m
	if math.Abs(m-mean) > 0.02 {
		t.Fatalf("Normal mean %v, want %v", m, mean)
	}
	if math.Abs(math.Sqrt(v)-sd) > 0.02 {
		t.Fatalf("Normal sd %v, want %v", math.Sqrt(v), sd)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(37)
	for _, mean := range []float64{0.5, 4, 25, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) mean %v", mean, got)
		}
	}
}

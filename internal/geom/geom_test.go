package geom

import (
	"math"
	"testing"
	"testing/quick"

	"netmodel/internal/rng"
)

func TestDistSymmetricNonNegative(t *testing.T) {
	prop := func(a, b, c, d float64) bool {
		p := Point{math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)}
		q := Point{math.Mod(math.Abs(c), 1), math.Mod(math.Abs(d), 1)}
		return p.Dist(q) >= 0 && math.Abs(p.Dist(q)-q.Dist(p)) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistKnownValues(t *testing.T) {
	p := Point{0, 0}
	q := Point{3.0 / 5, 4.0 / 5}
	if d := p.Dist(q); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Dist = %v, want 1", d)
	}
	if d := p.Dist(p); d != 0 {
		t.Fatalf("self-distance = %v", d)
	}
}

func TestUniformInSquare(t *testing.T) {
	pts := Uniform(rng.New(1), 5000)
	if len(pts) != 5000 {
		t.Fatalf("got %d points", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			t.Fatalf("point outside unit square: %+v", p)
		}
		sx += p.X
		sy += p.Y
	}
	if math.Abs(sx/5000-0.5) > 0.02 || math.Abs(sy/5000-0.5) > 0.02 {
		t.Fatal("uniform points not centered")
	}
}

func TestUniformDimensionIsTwo(t *testing.T) {
	pts := Uniform(rng.New(2), 20000)
	d := boxCountDimension(pts)
	if d < 1.8 || d > 2.1 {
		t.Fatalf("uniform box-count dimension %v, want ~2", d)
	}
}

func TestFractalDimension(t *testing.T) {
	pts, err := Fractal(rng.New(3), 20000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.X < 0 || p.X >= 1.0001 || p.Y < 0 || p.Y >= 1.0001 {
			t.Fatalf("fractal point outside unit square: %+v", p)
		}
	}
	d := boxCountDimension(pts)
	// The stochastic construction gives dimension near the target; accept
	// a generous band since box counting on finite samples is noisy.
	if d < 1.2 || d > 1.8 {
		t.Fatalf("fractal box-count dimension %v, want ~1.5", d)
	}
}

func TestFractalLowerDimensionIsSparser(t *testing.T) {
	hi, _ := Fractal(rng.New(4), 20000, 1.9)
	lo, _ := Fractal(rng.New(4), 20000, 1.1)
	if boxCountDimension(lo) >= boxCountDimension(hi) {
		t.Fatalf("dimension ordering violated: d(1.1)=%v >= d(1.9)=%v",
			boxCountDimension(lo), boxCountDimension(hi))
	}
}

func TestFractalErrors(t *testing.T) {
	if _, err := Fractal(rng.New(1), 10, 0); err == nil {
		t.Fatal("df=0 should fail")
	}
	if _, err := Fractal(rng.New(1), 10, 2.5); err == nil {
		t.Fatal("df>2 should fail")
	}
}

func TestFractalDfTwoIsUniform(t *testing.T) {
	pts, err := Fractal(rng.New(6), 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := boxCountDimension(pts)
	if d < 1.8 {
		t.Fatalf("df=2 dimension %v, want ~2", d)
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	pts := Uniform(r, 500)
	g := NewGrid(pts)
	for trial := 0; trial < 50; trial++ {
		p := Point{r.Float64(), r.Float64()}
		d := 0.05 + 0.2*r.Float64()
		got := map[int]bool{}
		for _, i := range g.Within(p, d, -1) {
			got[i] = true
		}
		for i, q := range pts {
			want := p.Dist(q) <= d
			if got[i] != want {
				t.Fatalf("Within mismatch at point %d: got %v want %v", i, got[i], want)
			}
		}
	}
}

func TestGridWithinSkips(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.51, 0.5}}
	g := NewGrid(pts)
	res := g.Within(pts[0], 0.1, 0)
	for _, i := range res {
		if i == 0 {
			t.Fatal("Within returned skipped index")
		}
	}
	if len(res) != 1 || res[0] != 1 {
		t.Fatalf("Within = %v, want [1]", res)
	}
}

// boxCountDimension estimates the fractal (box-counting) dimension of a
// point set by regressing log N(ε) on log 1/ε over a ladder of grid sizes.
// It needs at least a few hundred points for a stable estimate.
func boxCountDimension(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	var logs, counts []float64
	for _, g := range []int{4, 8, 16, 32, 64} {
		occ := make(map[int]struct{})
		for _, p := range pts {
			cx := int(p.X * float64(g))
			cy := int(p.Y * float64(g))
			if cx >= g {
				cx = g - 1
			}
			if cy >= g {
				cy = g - 1
			}
			occ[cy*g+cx] = struct{}{}
		}
		logs = append(logs, math.Log(float64(g)))
		counts = append(counts, math.Log(float64(len(occ))))
	}
	// least squares slope
	n := float64(len(logs))
	var sx, sy, sxx, sxy float64
	for i := range logs {
		sx += logs[i]
		sy += counts[i]
		sxx += logs[i] * logs[i]
		sxy += logs[i] * counts[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

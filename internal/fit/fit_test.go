package fit

import (
	"errors"
	"math"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

func TestMinimize1DQuadratic(t *testing.T) {
	f := func(x float64) (float64, error) { return (x - 1.7) * (x - 1.7), nil }
	res, err := Minimize1D(f, 0, 5, 11, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-1.7) > 0.01 {
		t.Fatalf("minimum at %v, want 1.7", res.X)
	}
	if res.Evals < 13 {
		t.Fatalf("suspiciously few evaluations: %d", res.Evals)
	}
}

func TestMinimize1DSkipsInfeasible(t *testing.T) {
	f := func(x float64) (float64, error) {
		if x < 1 {
			return 0, errors.New("infeasible")
		}
		return x, nil
	}
	res, err := Minimize1D(f, 0, 5, 11, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.X < 1 {
		t.Fatalf("returned infeasible point %v", res.X)
	}
	if math.Abs(res.X-1) > 0.3 {
		t.Fatalf("minimum at %v, want near 1", res.X)
	}
}

func TestMinimize1DErrors(t *testing.T) {
	ok := func(x float64) (float64, error) { return x, nil }
	if _, err := Minimize1D(ok, 2, 1, 5, 5); err == nil {
		t.Fatal("inverted interval should fail")
	}
	if _, err := Minimize1D(ok, 0, 1, 1, 5); err == nil {
		t.Fatal("single grid point should fail")
	}
	bad := func(x float64) (float64, error) { return 0, errors.New("no") }
	if _, err := Minimize1D(bad, 0, 1, 5, 5); err == nil {
		t.Fatal("fully infeasible objective should fail")
	}
}

// TestCalibrateBAExponent is an end-to-end calibration: find the initial
// attractiveness A that makes BA's degree exponent hit a target.
func TestCalibrateBAExponent(t *testing.T) {
	const target = 2.5
	obj := func(a float64) (float64, error) {
		top, err := gen.BA{N: 6000, M: 2, A: a}.Generate(rng.New(11))
		if err != nil {
			return 0, err
		}
		h, err := stats.Hill(metrics.DegreesAsFloatsFrozen(top.G.Freeze()), 400)
		if err != nil {
			return 0, err
		}
		return math.Abs(h - target), nil
	}
	res, err := Minimize1D(obj, -1.8, 1.5, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	// theory: gamma = 3 + A/M -> A = (2.5-3)*2 = -1
	if res.X > 0 {
		t.Fatalf("calibrated A = %v, want negative (theory -1)", res.X)
	}
	if res.Cost > 0.25 {
		t.Fatalf("calibration residual %v too large", res.Cost)
	}
}

// Package fit calibrates generator parameters against reference
// statistics: given a one-dimensional parameter range and an
// objective (usually the compare.Report score against a measured map),
// it finds the best parameterization by coarse grid scan refined with
// golden-section search. Derivative-free search is the right tool here —
// objectives are stochastic simulator outputs, noisy and non-smooth.
package fit

import (
	"errors"
	"math"
)

// Objective maps a parameter value to a cost; lower is better. Errors
// mark infeasible points, which the search skips.
type Objective func(x float64) (float64, error)

// Result of a 1-D calibration.
type Result struct {
	X     float64 // best parameter value
	Cost  float64
	Evals int
}

// Minimize1D searches [lo, hi] with a gridPoints-point coarse scan
// followed by refine golden-section iterations around the best cell.
func Minimize1D(f Objective, lo, hi float64, gridPoints, refine int) (Result, error) {
	if lo >= hi {
		return Result{}, errors.New("fit: empty interval")
	}
	if gridPoints < 2 {
		return Result{}, errors.New("fit: need at least two grid points")
	}
	best := Result{Cost: math.Inf(1)}
	step := (hi - lo) / float64(gridPoints-1)
	feasible := 0
	for i := 0; i < gridPoints; i++ {
		x := lo + float64(i)*step
		c, err := f(x)
		best.Evals++
		if err != nil {
			continue
		}
		feasible++
		if c < best.Cost {
			best.X, best.Cost = x, c
		}
	}
	if feasible == 0 {
		return Result{}, errors.New("fit: no feasible point on the grid")
	}
	// Golden-section refinement on the bracketing cell.
	a := math.Max(lo, best.X-step)
	b := math.Min(hi, best.X+step)
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, err1 := f(x1)
	f2, err2 := f(x2)
	best.Evals += 2
	for i := 0; i < refine; i++ {
		bad1 := err1 != nil
		bad2 := err2 != nil
		if bad1 && bad2 {
			break
		}
		if bad2 || (!bad1 && f1 <= f2) {
			b, x2, f2, err2 = x2, x1, f1, err1
			x1 = b - invPhi*(b-a)
			f1, err1 = f(x1)
		} else {
			a, x1, f1, err1 = x1, x2, f2, err2
			x2 = a + invPhi*(b-a)
			f2, err2 = f(x2)
		}
		best.Evals++
	}
	if err1 == nil && f1 < best.Cost {
		best.X, best.Cost = x1, f1
	}
	if err2 == nil && f2 < best.Cost {
		best.X, best.Cost = x2, f2
	}
	return best, nil
}

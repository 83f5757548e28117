package stats

import "math"

// Moments is a streaming accumulator for the first two moments plus the
// range of a sample: mean, variance, min and max in one pass, O(1)
// memory, no sample retention. It is the cross-seed aggregation kernel
// of the sweep driver — every (model, size) cell folds its per-seed
// metric values through one accumulator per metric — and uses Welford's
// update, so it is numerically stable for the long accumulations that
// large grids produce. The zero value is an empty accumulator.
type Moments struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations folded in so far.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean, or 0 for an empty accumulator.
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance (divided by N), or 0 when
// fewer than two observations have been folded in.
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation, or 0 for an empty accumulator.
func (m *Moments) Max() float64 { return m.max }

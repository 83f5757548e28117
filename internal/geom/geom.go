// Package geom provides the geographic substrate for topology generation:
// 2-D points with Euclidean distance on the unit square, point
// processes (uniform Poisson and box-fractal with tunable fractal
// dimension), and a uniform-grid spatial index.
//
// Internet modeling needs geography because link formation costs grow
// with distance: Waxman-family generators and distance-constrained
// preferential attachment both take per-pair distances as input. Router
// locations are known to be fractally distributed with dimension ≈ 1.5
// (Yook-Jeong-Barabási), which the Fractal point process reproduces.
package geom

import (
	"errors"
	"math"

	"netmodel/internal/rng"
)

// Point is a location on the unit square [0,1)².
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist is the largest possible Euclidean distance on the unit square.
var MaxDist = math.Sqrt2

// Uniform places n points independently and uniformly on the unit square.
func Uniform(r *rng.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: r.Float64(), Y: r.Float64()}
	}
	return pts
}

// Fractal places n points on a box fractal of dimension df in (0,2].
//
// The construction recursively subdivides the unit square into a b×b grid
// (b=3) and retains m ≈ b^df cells chosen at random at each level — a
// single shared random Cantor-like set of dimension log(m)/log(b). Points
// are placed by descending the retained-cell hierarchy to a fixed depth
// and jittering uniformly inside the final cell. df=2 degenerates to the
// uniform process; df≈1.5 reproduces the measured router distribution.
func Fractal(r *rng.Rand, n int, df float64) ([]Point, error) {
	if df <= 0 || df > 2 {
		return nil, errors.New("geom: fractal dimension must be in (0,2]")
	}
	if df == 2 {
		return Uniform(r, n), nil
	}
	const b = 3
	const depth = 5
	// Number of retained cells per level: df = log(m)/log(b) -> m = b^df.
	// m is fractional; realize it stochastically per node so the expected
	// dimension matches df.
	mExact := math.Pow(b, df)
	mLow := int(math.Floor(mExact))
	frac := mExact - float64(mLow)
	drawM := func() int {
		m := mLow
		if r.Float64() < frac {
			m++
		}
		if m < 1 {
			m = 1
		}
		if m > b*b {
			m = b * b
		}
		return m
	}
	// Build the shared retained-cell tree once. Each node stores the grid
	// slots of its retained children; the tree is identical for every
	// sampled point, which is what makes the union fractal rather than
	// space filling.
	type node struct {
		slots    []int
		children []int // indices into the node arena, -1 below max depth
	}
	arena := []node{}
	var build func(level int) int
	build = func(level int) int {
		m := drawM()
		perm := r.Perm(b * b)
		nd := node{slots: perm[:m]}
		if level < depth-1 {
			nd.children = make([]int, m)
			idx := len(arena)
			arena = append(arena, nd)
			for i := 0; i < m; i++ {
				arena[idx].children = append([]int{}, arena[idx].children...)
				arena[idx].children[i] = build(level + 1)
			}
			return idx
		}
		arena = append(arena, nd)
		return len(arena) - 1
	}
	root := build(0)
	pts := make([]Point, n)
	for i := range pts {
		x, y := 0.0, 0.0
		size := 1.0
		cur := root
		for d := 0; d < depth; d++ {
			nd := arena[cur]
			c := r.Intn(len(nd.slots))
			slot := nd.slots[c]
			size /= b
			x += float64(slot%b) * size
			y += float64(slot/b) * size
			if nd.children != nil {
				cur = nd.children[c]
			}
		}
		pts[i] = Point{X: x + r.Float64()*size, Y: y + r.Float64()*size}
	}
	return pts, nil
}

// Grid is a uniform-grid spatial index over points on the unit square,
// supporting range queries used by distance-constrained generators.
type Grid struct {
	cells map[int][]int
	pts   []Point
	g     int
}

// NewGrid indexes pts with roughly sqrt(n) cells per axis.
func NewGrid(pts []Point) *Grid {
	g := int(math.Sqrt(float64(len(pts)))) + 1
	if g < 1 {
		g = 1
	}
	grid := &Grid{cells: make(map[int][]int), pts: pts, g: g}
	for i, p := range pts {
		grid.cells[grid.key(p)] = append(grid.cells[grid.key(p)], i)
	}
	return grid
}

func (gr *Grid) key(p Point) int {
	cx := int(p.X * float64(gr.g))
	cy := int(p.Y * float64(gr.g))
	if cx >= gr.g {
		cx = gr.g - 1
	}
	if cy >= gr.g {
		cy = gr.g - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*gr.g + cx
}

// Within returns the indices of all points at Euclidean distance <= d
// from p, excluding any index in skip.
func (gr *Grid) Within(p Point, d float64, skip int) []int {
	var out []int
	reach := int(d*float64(gr.g)) + 1
	pcx := int(p.X * float64(gr.g))
	pcy := int(p.Y * float64(gr.g))
	for cy := pcy - reach; cy <= pcy+reach; cy++ {
		if cy < 0 || cy >= gr.g {
			continue
		}
		for cx := pcx - reach; cx <= pcx+reach; cx++ {
			if cx < 0 || cx >= gr.g {
				continue
			}
			for _, i := range gr.cells[cy*gr.g+cx] {
				if i == skip {
					continue
				}
				if p.Dist(gr.pts[i]) <= d {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

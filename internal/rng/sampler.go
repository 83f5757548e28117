package rng

import "errors"

// Alias is a Walker alias-method sampler over a fixed discrete
// distribution. Construction is O(n); each draw is O(1). Use it when the
// weights do not change between draws (for dynamic weights, use Fenwick).
//
// The table holds no generator: every draw names its stream (NextWith).
// The table is immutable after construction, so NextWith draws from any
// number of goroutines concurrently as long as each supplies its own
// stream — the sharded-generation kernels freeze one table per round
// and sample it from every shard with seed-derived sub-streams.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAliasTable builds an alias table from the given non-negative
// weights. At least one weight must be positive.
func NewAliasTable(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, errors.New("rng: alias sampler needs at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, errors.New("rng: alias sampler weight is negative")
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("rng: alias sampler weights sum to zero")
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	prob := make([]float64, n)
	alias := make([]int, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small { // numerical leftovers
		prob[i] = 1
	}
	return &Alias{prob: prob, alias: alias}, nil
}

// NextWith returns an index drawn from r with probability proportional
// to its weight. The table is read-only, so concurrent NextWith calls
// with distinct streams are safe.
func (a *Alias) NextWith(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len returns the number of indices in the table.
func (a *Alias) Len() int { return len(a.prob) }

// Fenwick is a binary indexed tree over non-negative weights supporting
// O(log n) weight updates and O(log n) weighted sampling. It is the core
// data structure behind every preferential-attachment generator in this
// repository: node weights (degree, user count, fitness) change as the
// network grows, and each attachment event samples proportionally to the
// current weights.
type Fenwick struct {
	tree   []float64 // 1-based partial sums
	weight []float64 // current weight per index, 0-based
	total  float64
	r      *Rand
	out    []int     // SampleDistinct result buffer
	saved  []float64 // SampleDistinct weights to restore
}

// NewFenwick creates a sampler with capacity for n items, all weights zero.
func NewFenwick(r *Rand, n int) *Fenwick {
	return &Fenwick{
		tree:   make([]float64, n+1),
		weight: make([]float64, n),
		r:      r,
	}
}

// Len returns the current capacity (number of indices).
func (f *Fenwick) Len() int { return len(f.weight) }

// Total returns the sum of all weights.
func (f *Fenwick) Total() float64 { return f.total }

// Weight returns the current weight of index i.
func (f *Fenwick) Weight(i int) float64 { return f.weight[i] }

// Grow extends the capacity to at least n indices, new weights zero.
func (f *Fenwick) Grow(n int) {
	if n <= len(f.weight) {
		return
	}
	old := f.weight
	f.weight = make([]float64, n)
	copy(f.weight, old)
	f.tree = make([]float64, n+1)
	f.total = 0
	for i, w := range f.weight {
		if w != 0 {
			f.addTree(i, w)
			f.total += w
		}
	}
}

func (f *Fenwick) addTree(i int, delta float64) {
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
}

// Set assigns weight w (>= 0) to index i.
func (f *Fenwick) Set(i int, w float64) {
	if w < 0 {
		panic("rng: Fenwick weight must be non-negative")
	}
	delta := w - f.weight[i]
	if delta == 0 {
		return
	}
	f.weight[i] = w
	f.total += delta
	f.addTree(i, delta)
}

// Add adds delta to the weight of index i. The resulting weight must stay
// non-negative.
func (f *Fenwick) Add(i int, delta float64) {
	f.Set(i, f.weight[i]+delta)
}

// Sample draws an index with probability proportional to its weight.
// It returns -1 if the total weight is zero.
func (f *Fenwick) Sample() int { return f.SampleWith(f.r) }

// SampleWith draws using the caller's stream instead of the bound one.
// Sampling only reads the tree, so concurrent SampleWith calls with
// distinct streams are safe provided no goroutine mutates weights
// (Set/Add/Grow) at the same time — the frozen-round discipline of the
// sharded kernels.
func (f *Fenwick) SampleWith(r *Rand) int {
	if f.total <= 0 {
		return -1
	}
	target := r.Float64() * f.total
	// Descend the implicit tree: find the smallest prefix whose running
	// sum exceeds target.
	idx := 0
	half := 1
	for half*2 < len(f.tree) {
		half *= 2
	}
	for ; half > 0; half /= 2 {
		next := idx + half
		if next < len(f.tree) && f.tree[next] <= target {
			target -= f.tree[next]
			idx = next
		}
	}
	if idx >= len(f.weight) {
		idx = len(f.weight) - 1
	}
	// Guard against floating-point drift landing on a zero-weight index:
	// walk forward to the next positive weight.
	for idx < len(f.weight) && f.weight[idx] == 0 {
		idx++
	}
	if idx >= len(f.weight) {
		for idx = len(f.weight) - 1; idx >= 0 && f.weight[idx] == 0; idx-- {
		}
	}
	return idx
}

// SampleDistinct draws k distinct indices proportionally to weight by
// temporarily zeroing drawn weights; the weights are restored, in draw
// order, before returning. It returns fewer than k indices if fewer
// have positive weight. The result aliases a buffer owned by f: it is
// valid until the next SampleDistinct call, which a warm call makes
// allocation-free.
func (f *Fenwick) SampleDistinct(k int) []int {
	out, saved := f.out[:0], f.saved[:0]
	for len(out) < k {
		i := f.Sample()
		if i < 0 {
			break
		}
		out = append(out, i)
		saved = append(saved, f.weight[i])
		f.Set(i, 0)
	}
	for j, i := range out {
		f.Set(i, saved[j])
	}
	f.out, f.saved = out, saved
	return out
}

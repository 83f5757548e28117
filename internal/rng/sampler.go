package rng

import "errors"

// Alias is a Walker alias-method sampler over a fixed discrete
// distribution. Construction is O(n); each draw is O(1). Use it when the
// weights do not change between draws (for dynamic weights, use Fenwick).
//
// The table holds no generator: every draw names its stream (NextWith).
// Between rebuilds the table is read-only, so NextWith draws from any
// number of goroutines concurrently as long as each supplies its own
// stream — the sharded-generation kernels rebuild one table per round
// (Rebuild, into the table's own buffers) and sample it from every
// shard with seed-derived sub-streams.
type Alias struct {
	prob  []float64
	alias []int
	work  []int // build worklists: small indices from the front, large from the back
}

// NewAliasTable builds an alias table from the given non-negative
// weights. At least one weight must be positive.
func NewAliasTable(weights []float64) (*Alias, error) {
	a := new(Alias)
	if err := a.Rebuild(weights); err != nil {
		return nil, err
	}
	return a, nil
}

// Rebuild replaces the table with one over weights, under the rules of
// NewAliasTable, reusing the table's buffers: capacity doubles when it
// runs out, so a table rebuilt over a growing weight vector reallocates
// O(log n) times. The arithmetic is NewAliasTable's, so the draws of a
// rebuilt table equal those of a fresh one. On error the table is left
// unchanged. Rebuild must not run concurrently with NextWith.
func (a *Alias) Rebuild(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return errors.New("rng: alias sampler needs at least one weight")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return errors.New("rng: alias sampler weight is negative")
		}
		total += w
	}
	if total <= 0 {
		return errors.New("rng: alias sampler weights sum to zero")
	}
	if cap(a.prob) < n {
		c := max(n, 2*cap(a.prob))
		a.prob, a.alias, a.work = make([]float64, c), make([]int, c), make([]int, c)
	}
	// prob holds each index's scaled weight until the index leaves the
	// worklists, when that scaled weight is its final probability. The
	// two worklists are stacks at either end of work; an index sits in
	// at most one of them, so they never meet.
	prob, alias, work := a.prob[:n], a.alias[:n], a.work[:n]
	for i, w := range weights {
		prob[i] = w * float64(n) / total
	}
	small, large := 0, n // work[:small] and work[large:]
	for i, p := range prob {
		if p < 1 {
			work[small] = i
			small++
		} else {
			large--
			work[large] = i
		}
	}
	for small > 0 && large < n {
		small--
		s := work[small]
		l := work[large]
		large++
		alias[s] = l
		prob[l] = prob[l] + prob[s] - 1
		if prob[l] < 1 {
			work[small] = l
			small++
		} else {
			large--
			work[large] = l
		}
	}
	// The rest, and numerical leftovers among the small, always draw
	// themselves; their alias is never read.
	for _, i := range work[large:] {
		prob[i], alias[i] = 1, i
	}
	for _, i := range work[:small] {
		prob[i], alias[i] = 1, i
	}
	a.prob, a.alias = prob, alias
	return nil
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

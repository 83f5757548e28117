package rng

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestAliasMatchesWeights(t *testing.T) {
	r := New(101)
	weights := []float64{1, 2, 3, 4}
	a, err := NewAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(weights) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(weights))
	}
	const n = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < n; i++ {
		counts[a.NextWith(r)]++
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total
		got := counts[i] / n
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("index %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasSingleWeight(t *testing.T) {
	a, err := NewAliasTable([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 100; i++ {
		if a.NextWith(r) != 0 {
			t.Fatal("single-weight alias must always return 0")
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAliasTable([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := a.NextWith(r)
		if v == 0 || v == 2 {
			t.Fatalf("drew zero-weight index %d", v)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAliasTable(nil); err == nil {
		t.Fatal("empty weights should fail")
	}
	if _, err := NewAliasTable([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights should fail")
	}
	if _, err := NewAliasTable([]float64{-1, 2}); err == nil {
		t.Fatal("negative weight should fail")
	}
}

func TestFenwickTotalInvariant(t *testing.T) {
	f := NewFenwick(New(7), 50)
	prop := func(idx uint8, w uint16) bool {
		i := int(idx) % 50
		f.Set(i, float64(w))
		sum := 0.0
		for j := 0; j < f.Len(); j++ {
			sum += f.Weight(j)
		}
		return math.Abs(sum-f.Total()) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFenwickSampleProportional(t *testing.T) {
	r := New(11)
	f := NewFenwick(r, 4)
	ws := []float64{1, 2, 3, 4}
	for i, w := range ws {
		f.Set(i, w)
	}
	const n = 400000
	counts := make([]float64, 4)
	for i := 0; i < n; i++ {
		counts[f.Sample()]++
	}
	for i, w := range ws {
		want := w / 10
		got := counts[i] / n
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("index %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestFenwickZeroWeightNeverSampled(t *testing.T) {
	r := New(13)
	f := NewFenwick(r, 5)
	f.Set(1, 3)
	f.Set(3, 7)
	for i := 0; i < 20000; i++ {
		v := f.Sample()
		if v != 1 && v != 3 {
			t.Fatalf("sampled zero-weight index %d", v)
		}
	}
}

func TestFenwickEmptySample(t *testing.T) {
	f := NewFenwick(New(1), 10)
	if got := f.Sample(); got != -1 {
		t.Fatalf("empty sampler returned %d, want -1", got)
	}
}

func TestFenwickDynamicUpdates(t *testing.T) {
	r := New(17)
	f := NewFenwick(r, 3)
	f.Set(0, 10)
	f.Set(1, 10)
	f.Set(2, 10)
	f.Set(0, 0) // remove index 0
	f.Add(2, 20)
	const n = 100000
	counts := make([]float64, 3)
	for i := 0; i < n; i++ {
		counts[f.Sample()]++
	}
	if counts[0] != 0 {
		t.Fatalf("sampled removed index %v times", counts[0])
	}
	// weights now 0,10,30 -> index 2 should be ~75%
	got := counts[2] / n
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("index 2 frequency %v, want 0.75", got)
	}
}

func TestFenwickGrow(t *testing.T) {
	r := New(19)
	f := NewFenwick(r, 2)
	f.Set(0, 1)
	f.Set(1, 2)
	f.Grow(5)
	if f.Len() != 5 {
		t.Fatalf("Len = %d, want 5", f.Len())
	}
	if f.Weight(0) != 1 || f.Weight(1) != 2 {
		t.Fatal("Grow lost existing weights")
	}
	if math.Abs(f.Total()-3) > 1e-9 {
		t.Fatalf("Total = %v, want 3", f.Total())
	}
	f.Set(4, 3)
	counts := make([]int, 5)
	for i := 0; i < 60000; i++ {
		counts[f.Sample()]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatal("sampled zero-weight grown indices")
	}
	if counts[4] == 0 {
		t.Fatal("never sampled grown index with weight")
	}
}

func TestFenwickSampleDistinct(t *testing.T) {
	r := New(23)
	f := NewFenwick(r, 6)
	for i := 0; i < 6; i++ {
		f.Set(i, float64(i+1))
	}
	before := f.Total()
	got := f.SampleDistinct(4)
	if len(got) != 4 {
		t.Fatalf("got %d indices, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate index %d in %v", v, got)
		}
		seen[v] = true
	}
	if math.Abs(f.Total()-before) > 1e-9 {
		t.Fatalf("SampleDistinct did not restore weights: %v vs %v", f.Total(), before)
	}
}

func TestFenwickSampleDistinctExhausts(t *testing.T) {
	r := New(29)
	f := NewFenwick(r, 5)
	f.Set(1, 1)
	f.Set(3, 1)
	got := f.SampleDistinct(4)
	if len(got) != 2 {
		t.Fatalf("got %d indices, want 2 (only 2 positive weights)", len(got))
	}
}

// sampleDistinctAlloc is the allocating reference SampleDistinct: fresh
// result and restore slices per call.
func sampleDistinctAlloc(f *Fenwick, k int) []int {
	out := make([]int, 0, k)
	saved := make([]float64, 0, k)
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
	return out
}

// TestFenwickSampleDistinctBuffered: the buffered SampleDistinct draws
// the same sequence as the allocating reference and leaves the tree's
// floats bit-identical, through a growth-style mix of draws and weight
// updates; a warm call allocates nothing.
func TestFenwickSampleDistinctBuffered(t *testing.T) {
	const n = 500
	a, b := NewFenwick(New(41), n), NewFenwick(New(41), n)
	for i := 0; i < n; i++ {
		w := float64(1 + i%7)
		a.Set(i, w)
		b.Set(i, w)
	}
	for step := 0; step < 3000; step++ {
		k := 1 + step%4
		got, want := a.SampleDistinct(k), sampleDistinctAlloc(b, k)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: draws %v, reference %v", step, got, want)
		}
		for _, i := range got {
			a.Add(i, 0.5)
			b.Add(i, 0.5)
		}
	}
	if a.total != b.total || !slices.Equal(a.tree, b.tree) || !slices.Equal(a.weight, b.weight) {
		t.Fatal("buffered SampleDistinct drifted the tree from the reference")
	}
	if allocs := testing.AllocsPerRun(100, func() { a.SampleDistinct(4) }); allocs != 0 {
		t.Fatalf("warm SampleDistinct allocates %v objects per call", allocs)
	}
}

func TestFenwickNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	NewFenwick(New(1), 2).Set(0, -1)
}

// TestAliasConcurrentNextWith: one frozen table, many shard streams,
// under the race detector.
func TestAliasConcurrentNextWith(t *testing.T) {
	w := make([]float64, 1000)
	base := New(8)
	for i := range w {
		w[i] = base.Float64()
	}
	a, err := NewAliasTable(w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int64, 4)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := base.Split(uint64(s))
			for i := 0; i < 20000; i++ {
				counts[s] += int64(a.NextWith(r))
			}
		}(s)
	}
	wg.Wait()
	// Distinct streams should not produce identical draw sums.
	if counts[0] == counts[1] && counts[1] == counts[2] {
		t.Fatal("shard streams appear identical")
	}
}

// TestFenwickSampleWith: read-only sampling with a caller stream matches
// the bound-stream draw for the same stream state.
func TestFenwickSampleWith(t *testing.T) {
	f := NewFenwick(New(5), 50)
	for i := 0; i < 50; i++ {
		f.Set(i, float64(i%7))
	}
	g := NewFenwick(New(99), 50) // bound stream unused below
	for i := 0; i < 50; i++ {
		g.Set(i, float64(i%7))
	}
	r := New(5)
	for i := 0; i < 300; i++ {
		if f.Sample() != g.SampleWith(r) {
			t.Fatalf("SampleWith diverges from Sample at draw %d", i)
		}
	}
}

// TestAliasRebuildMatchesFresh: one table rebuilt over weight vectors
// that grow, shrink and grow again draws exactly what a fresh table
// over the same weights draws, stream for stream, and a failed rebuild
// leaves the table as it was.
func TestAliasRebuildMatchesFresh(t *testing.T) {
	base := New(21)
	var a Alias
	for round, n := range []int{1, 7, 64, 65, 30, 300, 301, 1000} {
		w := make([]float64, n)
		for i := range w {
			if base.Intn(5) > 0 { // some zero weights
				w[i] = base.Float64() * float64(1+base.Intn(40))
			}
		}
		w[n-1] = 1 // at least one positive weight
		fresh, err := NewAliasTable(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Rebuild(w); err != nil {
			t.Fatal(err)
		}
		if a.Len() != n || !slices.Equal(a.prob, fresh.prob) {
			t.Fatalf("round %d (n=%d): rebuilt probabilities differ from a fresh table", round, n)
		}
		r1, r2 := New(uint64(round)), New(uint64(round))
		for i := 0; i < 5000; i++ {
			if x, y := a.NextWith(r1), fresh.NextWith(r2); x != y {
				t.Fatalf("round %d (n=%d) draw %d: rebuilt %d, fresh %d", round, n, i, x, y)
			}
		}
		if err := a.Rebuild([]float64{0, 0}); err == nil || a.Len() != n {
			t.Fatalf("round %d: failed rebuild err=%v len=%d", round, err, a.Len())
		}
	}
}

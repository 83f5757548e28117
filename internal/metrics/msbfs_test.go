package metrics

import (
	"fmt"
	"slices"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// msbfsReference is the per-source oracle of the MS-BFS kernel: one
// BFSHybrid run per source, folded by AccumulateDistances.
func msbfsReference(s *graph.Snapshot, srcs []int) PathHistogram {
	dist := make([]int32, s.N())
	sc := NewBFSScratch(s.N())
	var h PathHistogram
	for _, src := range srcs {
		BFSHybrid(s, src, dist, sc)
		h.AccumulateDistances(src, dist)
	}
	return h
}

// msbfsRun folds srcs through AccumulateMSBFS over scs into a fresh
// histogram.
func msbfsRun(s *graph.Snapshot, srcs []int, scs []*MSBFSScratch) PathHistogram {
	var h PathHistogram
	h.AccumulateMSBFS(s, srcs, scs)
	return h
}

func requireHistogramEqual(t *testing.T, label string, got, want PathHistogram) {
	t.Helper()
	if !slices.Equal(got.Counts, want.Counts) || got.Sum != want.Sum || got.Total != want.Total {
		t.Fatalf("%s: MS-BFS counts %v sum %d total %d, per-source counts %v sum %d total %d",
			label, got.Counts, got.Sum, got.Total, want.Counts, want.Sum, want.Total)
	}
}

// msbfsCase is one equivalence map plus the sources the test must place
// in some batch: an isolated node and nodes of small components on the
// disconnected maps.
type msbfsCase struct {
	name    string
	s       *graph.Snapshot
	special []int
}

// msbfsCases generates the equivalence maps: connected BA/GLP/PFP, and
// disconnected sparse gnp (k≈1.5) and rgg maps, each given one extra
// isolated node, with a node of each of their three smallest
// multi-node components as special sources.
func msbfsCases(t *testing.T) []msbfsCase {
	t.Helper()
	var cases []msbfsCase
	for _, fam := range []struct {
		name     string
		g        gen.Generator
		disjoint bool
	}{
		{"ba", gen.BA{N: 300, M: 2}, false},
		{"glp", gen.GLP{N: 300, M: 1, P: 0.45, Beta: 0.64}, false},
		{"pfp", gen.DefaultPFP(250), false},
		{"gnp", gen.GNP{N: 400, P: 1.5 / 399}, true},
		{"rgg", gen.RGG{N: 400, Radius: 0.06}, true},
	} {
		top, err := fam.g.Generate(rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if !fam.disjoint {
			cases = append(cases, msbfsCase{name: fam.name, s: top.G.Freeze()})
			continue
		}
		g := top.G.Copy()
		isolated := g.AddNode()
		s := g.Freeze()
		comp := make([]int32, s.N())
		sizes := ComponentsHybrid(s, NewBFSScratch(s.N()), comp, nil)
		special := []int{isolated}
		picked := make(map[int32]bool)
		for len(special) < 4 {
			best := int32(-1)
			for id, size := range sizes {
				if size > 1 && !picked[int32(id)] && (best < 0 || size < sizes[best]) {
					best = int32(id)
				}
			}
			if best < 0 {
				break
			}
			picked[best] = true
			special = append(special, slices.Index(comp, best))
		}
		if len(special) < 4 {
			t.Fatalf("%s: only %d small components", fam.name, len(special)-1)
		}
		cases = append(cases, msbfsCase{name: fam.name, s: s, special: special})
	}
	return cases
}

// TestAccumulateMSBFSMatchesPerSource pins the kernel against the
// per-source oracle at source counts around the 64-lane batch edges (a
// single lane, one short batch, one full batch, a full batch plus one
// lane, two full batches plus one, every node), with the special
// sources of the disconnected maps placed in the last lane, in the
// middle, and all together. The maps exercise both level directions,
// push and pull. Every list runs on one scratch and on a three-worker
// pool; the same scratches serve every call, so stale lanes of a wider
// earlier batch must never leak into a narrower one.
func TestAccumulateMSBFSMatchesPerSource(t *testing.T) {
	one := []*MSBFSScratch{new(MSBFSScratch)}
	pool := []*MSBFSScratch{new(MSBFSScratch), new(MSBFSScratch), new(MSBFSScratch)}
	for _, c := range msbfsCases(t) {
		n := c.s.N()
		r := rng.New(11)
		for _, k := range []int{1, 63, 64, 65, 129, n} {
			base := r.Perm(n)[:k]
			lists := [][]int{base}
			for _, sp := range c.special {
				last := slices.Clone(base)
				last[k-1] = sp
				mid := slices.Clone(base)
				mid[k/2] = sp
				lists = append(lists, last, mid)
			}
			if k >= len(c.special) && len(c.special) > 0 {
				all := slices.Clone(base)
				for i, sp := range c.special {
					all[i*k/len(c.special)] = sp
				}
				lists = append(lists, all)
			}
			for li, srcs := range lists {
				label := fmt.Sprintf("%s k=%d list %d", c.name, k, li)
				want := msbfsReference(c.s, srcs)
				requireHistogramEqual(t, label+" one worker", msbfsRun(c.s, srcs, one), want)
				requireHistogramEqual(t, label+" three workers", msbfsRun(c.s, srcs, pool), want)
			}
		}
	}
}

// FuzzPathHistogram decodes bytes into a small multigraph and a source
// list that may repeat sources, and checks the batched MS-BFS
// histogram against the per-source oracle, then again on the reused
// scratch with the sources reversed (so the batch split differs), and
// on a two-worker pool that adds a fresh scratch to the reused one. The
// first byte sets the node count, the second the source count (up to
// three batches); the remaining bytes name the sources cyclically and,
// in pairs, the arcs. Parallel arcs accumulate multiplicity and
// self-loops are dropped, as graph.AddEdge models them.
func FuzzPathHistogram(f *testing.F) {
	f.Add([]byte{9, 3, 0, 1, 1, 2, 2, 3, 5, 6})
	f.Add([]byte{0, 0})
	f.Add([]byte{39, 129, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 0, 7, 8, 8, 7, 20, 21})
	f.Add([]byte{63, 64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 2, 1, 30, 31, 31, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%64
		k := 1 + int(data[1])%192
		rest := data[2:]
		g := graph.New(n)
		for i := 0; i+1 < len(rest); i += 2 {
			_, _ = g.AddEdge(int(rest[i])%n, int(rest[i+1])%n) // self-loops error and are dropped
		}
		s := g.Freeze()
		srcs := make([]int, k)
		for i := range srcs {
			b := i
			if len(rest) > 0 {
				b += int(rest[i%len(rest)])
			}
			srcs[i] = b % n
		}
		scs := []*MSBFSScratch{new(MSBFSScratch)}
		want := msbfsReference(s, srcs)
		requireHistogramEqual(t, "first run", msbfsRun(s, srcs, scs), want)
		slices.Reverse(srcs)
		requireHistogramEqual(t, "reused scratch", msbfsRun(s, srcs, scs), want)
		scs = append(scs, new(MSBFSScratch))
		requireHistogramEqual(t, "two workers", msbfsRun(s, srcs, scs), want)
	})
}

package engine

import (
	"errors"
	"slices"

	"netmodel/internal/metrics"
	"netmodel/internal/par"
	"netmodel/internal/rng"
)

// Betweenness computes exact Brandes betweenness from every source,
// sharding sources across the pool. Values are normalized by
// (N-1)(N-2), the number of ordered pairs excluding the node itself, so
// they lie in [0,1] (Freeman's convention of the AS-map betweenness
// figures). The result is memoized; callers must not modify the
// returned slice.
func (e *Engine) Betweenness() []float64 {
	return e.Cached("betweenness", func() any {
		return e.betweenness(nil, 0)
	}).([]float64)
}

// BetweennessSampled estimates betweenness from BFS trees rooted at
// `sources` uniformly sampled nodes (drawn as PathSources does),
// rescaling by N/sources. The estimate converges to the exact values as
// sources approaches N, and sources >= N is the exact computation. It
// errors on a non-positive source count or a nil generator. Sampled
// runs are not memoized.
func (e *Engine) BetweennessSampled(r *rng.Rand, sources int) ([]float64, error) {
	if sources <= 0 {
		return nil, errSourceCount
	}
	if r == nil {
		return nil, errNeedRand
	}
	if sources >= e.s.N() {
		return e.Betweenness(), nil
	}
	return e.betweenness(r, sources), nil
}

var (
	errSourceCount = errors.New("metrics: source count must be positive")
	errNeedRand    = errors.New("metrics: sampling requires a generator")
)

// betweenness runs one Brandes pass per source of PathSources(n, r,
// sources), each scaled by n/len(srcs), into per-worker partials. With
// n >= 3 and BetweennessSampled's checks, PathSources cannot fail.
func (e *Engine) betweenness(r *rng.Rand, sources int) []float64 {
	s := e.s
	n := s.N()
	bc := make([]float64, n)
	if n < 3 {
		return bc
	}
	srcs, _ := metrics.PathSources(n, r, sources)
	scale := float64(n) / float64(len(srcs))
	workers := e.workers
	scratch := make([]*metrics.BrandesScratch, workers)
	partial := make([][]float64, workers)
	par.For(len(srcs), workers, func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = metrics.NewBrandesScratch(n)
			partial[w] = make([]float64, n)
		}
		metrics.BrandesFrozen(s, srcs[i], scratch[w], partial[w], scale)
	})
	norm := float64(n-1) * float64(n-2)
	for _, p := range partial {
		if p == nil {
			continue
		}
		for i, v := range p {
			bc[i] += v
		}
	}
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// GiantPathLengths measures shortest-path statistics on the giant
// component from every giant node (sources <= 0 or >= its size) or a
// uniform sample, in place on the engine's snapshot, sharding 64-source
// MS-BFS batches across the pool. Sources are drawn as PathSources over
// the giant's size and mapped through its ascending node list, so the
// statistics equal those of the induced giant subgraph measured by
// PathLengthsFrozen for the same generator state: a BFS from a giant
// node never leaves the giant, and the unreachable nodes outside it add
// nothing to the histogram. The per-worker reductions are integer
// histograms, so the result is bit-identical at every pool width.
// Exact runs are memoized.
func (e *Engine) GiantPathLengths(r *rng.Rand, sources int) (metrics.PathStats, error) {
	nodes := e.giantNodes()
	srcs, err := metrics.PathSources(len(nodes), r, sources)
	if err != nil {
		return metrics.PathStats{}, err
	}
	for i, v := range srcs {
		srcs[i] = nodes[v]
	}
	if len(srcs) < len(nodes) {
		return e.pathHistogram(srcs), nil
	}
	return e.Cached("giant-paths-exact", func() any { return e.pathHistogram(srcs) }).(metrics.PathStats), nil
}

// pathHistogram folds the BFS distances from srcs into path statistics
// with the MS-BFS kernel, which shards its 64-source batches across one
// lane scratch per pool worker and merges the per-worker integer
// histograms. The scratches come from the engine's free list, which
// keeps at most one per worker, so repeated path measurements of one
// engine (the measure and compare stages of a sweep cell) reuse their
// rows.
func (e *Engine) pathHistogram(srcs []int) metrics.PathStats {
	scs := make([]*metrics.MSBFSScratch, e.workers)
	e.mu.Lock()
	for w := range scs {
		if k := len(e.msbfs); k > 0 {
			scs[w], e.msbfs = e.msbfs[k-1], e.msbfs[:k-1]
		} else {
			scs[w] = new(metrics.MSBFSScratch)
		}
	}
	e.mu.Unlock()
	var h metrics.PathHistogram
	h.AccumulateMSBFS(e.s, srcs, scs)
	e.mu.Lock()
	for _, sc := range scs {
		if len(e.msbfs) < e.workers {
			e.msbfs = append(e.msbfs, sc)
		}
	}
	e.mu.Unlock()
	return h.ToStats(len(srcs))
}

// triangles returns the engine-owned triangle counts of the snapshot,
// counted by the degree-oriented kernel sharded across the pool
// (metrics.TrianglesPerNodeWith) and, along a trajectory, refreshed in
// place by Advance. Internal readers must not hold the slice across an
// Advance.
func (e *Engine) triangles() []int {
	return e.Cached("triangles", func() any {
		return metrics.TrianglesPerNodeWith(e.s, e.workers)
	}).([]int)
}

// TrianglesPerNode returns the number of triangles through every node:
// a memoized copy of the engine-owned counts, so a slice a caller holds
// never changes under later refreshes. Do not modify the result.
func (e *Engine) TrianglesPerNode() []int {
	return e.Cached("triangles-copy", func() any {
		return slices.Clone(e.triangles())
	}).([]int)
}

// LocalClustering returns the local clustering coefficient per node,
// derived from the triangle counts. Memoized, a fresh vector per
// snapshot; do not modify the result.
func (e *Engine) LocalClustering() []float64 {
	return e.Cached("local-clustering", func() any {
		return metrics.LocalClusteringFromTriangles(e.s, e.triangles())
	}).([]float64)
}

// AvgClustering returns mean local clustering over nodes of degree >= 2,
// reduced from the triangle counts without a local-clustering vector.
func (e *Engine) AvgClustering() float64 {
	return metrics.AvgClusteringFromTriangles(e.s, e.triangles())
}

// Transitivity returns the global clustering coefficient.
func (e *Engine) Transitivity() float64 {
	return metrics.TransitivityFromTriangles(e.s, e.triangles())
}

// ClusteringSpectrum returns c(k), mean local clustering by degree.
func (e *Engine) ClusteringSpectrum() map[int]float64 {
	return metrics.ClusteringSpectrumFromLocal(e.s, e.LocalClustering())
}

// KCore returns the k-core decomposition. The bucket algorithm is
// inherently sequential but O(M) over flat arrays; the result is
// memoized, with a Coreness slice of its own.
func (e *Engine) KCore() metrics.KCoreResult {
	return e.Cached("kcore", func() any {
		return metrics.KCoreFrozen(e.s)
	}).(metrics.KCoreResult)
}

// coreMap returns the engine-owned k-order of the snapshot
// (metrics.CoreMap), built with one peel on first demand and refreshed
// in place by Advance.
func (e *Engine) coreMap() *metrics.CoreMap {
	return e.Cached("coremap", func() any {
		return metrics.NewCoreMap(e.s)
	}).(*metrics.CoreMap)
}

// RichClub returns the rich-club connectivity curve. Memoized; do not
// modify the result.
func (e *Engine) RichClub() []metrics.RichClubPoint {
	return e.Cached("richclub", func() any {
		return metrics.RichClubFrozen(e.s)
	}).([]metrics.RichClubPoint)
}

// CountCycles counts 3-, 4- and 5-cycles exactly, sharding the
// per-node 2-neighborhood kernels across the pool and assembling them
// with metrics.CyclesFromParts. All reductions are integral, so the
// counts are bit-identical at every pool width. Memoized.
func (e *Engine) CountCycles() metrics.CycleCounts {
	return e.Cached("cycles", func() any {
		s := e.s
		n := s.N()
		if n < 3 {
			return metrics.CycleCounts{}
		}
		tri := e.triangles()
		workers := e.workers
		scratch := make([]*metrics.CycleScratch, workers)
		ordered4 := make([]int64, workers)
		trA5 := make([]int64, workers)
		par.For(n, workers, func(w, i int) {
			if scratch[w] == nil {
				scratch[w] = metrics.NewCycleScratch(n)
			}
			o4, t5 := metrics.CycleNodeFrozen(s, i, scratch[w])
			ordered4[w] += o4
			trA5[w] += t5
		})
		var o4, t5 int64
		for w := 0; w < workers; w++ {
			o4 += ordered4[w]
			t5 += trA5[w]
		}
		return metrics.CyclesFromParts(s, tri, o4, t5)
	}).(metrics.CycleCounts)
}

// Knn returns the average-nearest-neighbor-degree spectrum. Memoized;
// do not modify the result.
func (e *Engine) Knn() map[int]float64 {
	return e.Cached("knn", func() any {
		return metrics.KnnFrozen(e.s)
	}).(map[int]float64)
}

// Assortativity returns Newman's degree-degree correlation r.
func (e *Engine) Assortativity() float64 {
	return e.Cached("assortativity", func() any {
		return metrics.AssortativityFrozen(e.s)
	}).(float64)
}

// DegreesAsFloats returns the degree sequence as floats for the stats
// package. Memoized; do not modify the result.
func (e *Engine) DegreesAsFloats() []float64 {
	return e.Cached("degrees-float", func() any {
		return metrics.DegreesAsFloatsFrozen(e.s)
	}).([]float64)
}

// DegreeHistogram returns hist[k] = number of nodes of degree k.
// Memoized and delta-maintained across Advance; do not modify the
// result.
func (e *Engine) DegreeHistogram() []int {
	return e.Cached("degree-hist", func() any {
		return metrics.DegreeHistogramFrozen(e.s)
	}).([]int)
}

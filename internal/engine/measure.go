package engine

import (
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// giantNodes returns the giant component's nodes in ascending order,
// labeled once per snapshot by metrics.ComponentsHybrid. The giant is
// the first component of maximal size, which on ties is the one whose
// smallest node is smallest. An empty snapshot has no giant (nil).
func (e *Engine) giantNodes() []int {
	return e.Cached("giant", func() any {
		n := e.s.N()
		comp := make([]int32, n)
		sizes := metrics.ComponentsHybrid(e.s, metrics.NewBFSScratch(n), comp, nil)
		if len(sizes) == 0 {
			return []int(nil)
		}
		giant := int32(0)
		for id, size := range sizes {
			if size > sizes[giant] {
				giant = int32(id)
			}
		}
		nodes := make([]int, 0, sizes[giant])
		for v, id := range comp {
			if id == giant {
				nodes = append(nodes, v)
			}
		}
		return nodes
	}).([]int)
}

// Measure computes the full metric vector of the snapshot through the
// parallel engine: the discrete power-law fit of the degree tail,
// clustering and assortativity over the whole map, path statistics on
// the giant component (published AS-map numbers are reported that way)
// and the k-core depth. The giant's path statistics are measured in
// place by GiantPathLengths, with no copy of the component; they equal
// metrics.PathLengthsFrozen over the induced giant subgraph for the
// same generator state.
func (e *Engine) Measure(r *rng.Rand, pathSources int) (metrics.Snapshot, error) {
	s := e.s
	out := metrics.Snapshot{
		N:         s.N(),
		M:         s.M(),
		AvgDegree: s.AvgDegree(),
		MaxDegree: s.MaxDegree(),
	}
	if s.N() == 0 {
		out.GiantFrac = 1
		return out, nil
	}
	if fit := e.degreeFit(); fit != nil {
		out.Gamma = fit.Alpha
		out.GammaKS = fit.KS
	}
	out.AvgClustering = e.AvgClustering()
	out.Transitivity = e.Transitivity()
	out.Assortativity = e.Assortativity()

	giant := e.giantNodes()
	out.GiantFrac = float64(len(giant)) / float64(s.N())
	if len(giant) > 1 {
		ps, err := e.GiantPathLengths(r, pathSources)
		if err != nil {
			return out, err
		}
		out.AvgPathLen = ps.Avg
		out.Diameter = ps.Diameter
	}
	out.MaxCore = e.KCore().MaxCore
	return out, nil
}

// degreeFit returns the discrete power-law fit of the degree sequence,
// or nil when the sequence admits none. The fit is a pure function of
// the memoized degrees, so it is memoized too: the measure and compare
// stages of a sweep cell fit once.
func (e *Engine) degreeFit() *stats.PowerLawFit {
	return e.Cached("degree-fit", func() any {
		fit, err := stats.FitPowerLawDiscrete(e.DegreesAsFloats())
		if err != nil {
			return (*stats.PowerLawFit)(nil)
		}
		return &fit
	}).(*stats.PowerLawFit)
}

// MeasureGrowth computes the trajectory observation vector of the
// current snapshot: the size fields, the degree-tail fit from the
// degree histogram, clustering and k-core depth. Every input — degree
// histogram, triangle counts, k-order — is memoized and
// delta-maintained across Advance, and clustering and core depth are
// scalar reductions of the engine-owned counts and k-order, so
// measuring an epoch of a growth trajectory costs time proportional to
// the epoch's delta plus O(N) scans and builds no per-node vector.
func (e *Engine) MeasureGrowth() metrics.GrowthStats {
	s := e.s
	out := metrics.GrowthStats{
		N:         s.N(),
		M:         s.M(),
		Strength:  s.TotalStrength(),
		AvgDegree: s.AvgDegree(),
		MaxDegree: s.MaxDegree(),
	}
	if s.N() == 0 {
		return out
	}
	if fit, err := stats.FitPowerLawHistogram(e.DegreeHistogram()); err == nil {
		out.Gamma = fit.Alpha
		out.GammaKS = fit.KS
	}
	out.AvgClustering = e.AvgClustering()
	out.Transitivity = e.Transitivity()
	out.MaxCore = e.coreMap().MaxCore()
	return out
}

package engine

import (
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
	"netmodel/internal/stats"
)

// giantPart bundles the memoized giant-component sub-snapshot with its
// own engine, so path statistics measured on the giant share worker
// configuration and memoization with the parent.
type giantPart struct {
	eng     *Engine
	mapping []int
}

// Giant returns an engine over the giant component's sub-snapshot and
// the new-to-old node mapping, computed once per snapshot.
func (e *Engine) Giant() (*Engine, []int) {
	gp := e.Cached("giant", func() any {
		sub, mapping := e.s.GiantComponent()
		return &giantPart{eng: New(sub, WithWorkers(e.workers)), mapping: mapping}
	}).(*giantPart)
	return gp.eng, gp.mapping
}

// Measure computes the full metric vector of the snapshot through the
// parallel engine: the discrete power-law fit of the degree tail,
// clustering and assortativity over the whole map, path statistics on
// the giant component (published AS-map numbers are reported that way)
// and the k-core depth. Path sources are sampled exactly as
// metrics.PathLengthsFrozen samples them for a given generator state.
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
	if fit, err := stats.FitPowerLawDiscrete(e.DegreesAsFloats()); err == nil {
		out.Gamma = fit.Alpha
		out.GammaKS = fit.KS
	}
	out.AvgClustering = e.AvgClustering()
	out.Transitivity = e.Transitivity()
	out.Assortativity = e.Assortativity()

	giant, _ := e.Giant()
	out.GiantFrac = float64(giant.Snapshot().N()) / float64(s.N())
	if giant.Snapshot().N() > 1 {
		ps, err := giant.PathLengths(r, pathSources)
		if err != nil {
			return out, err
		}
		out.AvgPathLen = ps.Avg
		out.Diameter = ps.Diameter
	}
	out.MaxCore = e.KCore().MaxCore
	return out, nil
}

// MeasureGrowth computes the trajectory observation vector of the
// current snapshot: the size fields, the degree-tail fit from the
// degree histogram, clustering and k-core depth.
// Every input — degree histogram, triangle counts, k-core — is
// memoized and delta-maintained across Advance, so measuring each
// epoch of a growth trajectory costs time proportional to the epoch's
// delta plus O(N) derivations, not a fresh pass over the map.
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
	out.MaxCore = e.KCore().MaxCore
	return out
}

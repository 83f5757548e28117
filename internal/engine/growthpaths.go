package engine

import (
	"netmodel/internal/metrics"
)

// This file wires the incremental distance engine (metrics.DistMap)
// into the versioned cache: the map lives under the "distmap" key, is
// carried across Advance by an in-place Refresh keyed to the epoch
// delta, and the distance metrics of trajectory mode derive from it —
// so MeasureGrowth-style observation no longer refuses path metrics,
// it repairs them.

// GrowthDistMap returns the snapshot's incremental distance map,
// building it on first demand and repairing it across Advance. pivots
// selects the source set of that first build: nil means exact mode (one
// BFS row per node, bit-identical path metrics), a non-nil slice fixes
// the pivot set of sampled mode (metrics.PivotSources draws one). The
// pivot set is bound when the map is first built; later calls ignore
// the argument, and callers must not modify the map or the slice.
func (e *Engine) GrowthDistMap(pivots []int32) *metrics.DistMap {
	return e.Cached("distmap", func() any {
		return metrics.NewDistMap(e.s, pivots, e.workers)
	}).(*metrics.DistMap)
}

// GrowthPathStats is the trajectory-mode path-length observation:
// derived from the maintained histogram of the distance map, O(diam)
// per epoch once the map is repaired. Exact mode reproduces
// PathLengthsFrozen over all sources bit for bit — note the whole-graph
// convention, not Measure's giant-component one.
func (e *Engine) GrowthPathStats(pivots []int32) metrics.PathStats {
	dm := e.GrowthDistMap(pivots)
	return e.Cached("growth-paths", func() any {
		return metrics.RefreshPathLengths(dm)
	}).(metrics.PathStats)
}

// GrowthCloseness is the trajectory-mode closeness vector, an O(n)
// reduction of the distance map's reach and distance-sum columns; exact
// mode is bit-identical to ClosenessFrozen.
func (e *Engine) GrowthCloseness(pivots []int32) []float64 {
	dm := e.GrowthDistMap(pivots)
	return e.Cached("growth-closeness", func() any {
		return metrics.RefreshCloseness(dm)
	}).([]float64)
}

// MeasureGrowthPaths is MeasureGrowth plus the distance family: the
// same delta-maintained structural fields, extended with average path
// length, diameter and mean closeness from the incremental distance
// map. pivots selects the map's source set on its first build (nil for
// exact mode), as in GrowthDistMap.
func (e *Engine) MeasureGrowthPaths(pivots []int32) metrics.GrowthStats {
	out := e.MeasureGrowth()
	if out.N == 0 {
		return out
	}
	dm := e.GrowthDistMap(pivots)
	ps := e.GrowthPathStats(pivots)
	out.PathSources = dm.SourceCount()
	out.AvgPathLen = ps.Avg
	out.Diameter = ps.Diameter
	clo := e.GrowthCloseness(pivots)
	sum := 0.0
	for _, c := range clo {
		sum += c
	}
	out.MeanCloseness = sum / float64(len(clo))
	return out
}

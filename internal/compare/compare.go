// Package compare scores synthetic topologies against reference
// statistics — the validation step of every generator paper: generate a
// map, reduce it to the canonical metric vector, and report per-metric
// and aggregate distances to the measured Internet.
package compare

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"netmodel/internal/engine"
	"netmodel/internal/metrics"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

// MetricScore is one row of a comparison report.
type MetricScore struct {
	Name      string
	Measured  float64
	Reference float64
	// RelError is |measured − reference| normalized by the reference
	// scale (or by 1 for quantities that are already relative).
	RelError float64
}

// Report is a full topology-versus-target comparison.
type Report struct {
	Target string
	Rows   []MetricScore
	// Score is the mean relative error over all rows — lower is better,
	// 0 is a perfect statistical match.
	Score float64
}

// Options tunes the expensive parts of the comparison.
type Options struct {
	// PathSources caps BFS roots for path statistics; 0 means exact.
	PathSources int
	// Rand is required when PathSources > 0.
	Rand *rng.Rand
}

// AgainstFrozen measures an already-frozen topology through its engine
// and scores it against the target. Callers that run several analyses
// over one snapshot should use this entry point so memoized metrics are
// shared.
func AgainstFrozen(e *engine.Engine, tgt refdata.Target, opt Options) (*Report, error) {
	if e.Snapshot().N() == 0 {
		return nil, errors.New("compare: empty topology")
	}
	snap, err := e.Measure(opt.Rand, opt.PathSources)
	if err != nil {
		return nil, err
	}
	return Score(snap, tgt), nil
}

// Score reduces a measured metric vector to a per-metric and aggregate
// comparison against the target. It is a pure function of the vector,
// shared by every measurement path.
func Score(snap metrics.Snapshot, tgt refdata.Target) *Report {
	rep := &Report{Target: tgt.Name}
	add := func(name string, measured, reference, scale float64) {
		if scale == 0 {
			scale = 1
		}
		rep.Rows = append(rep.Rows, MetricScore{
			Name: name, Measured: measured, Reference: reference,
			RelError: math.Abs(measured-reference) / math.Abs(scale),
		})
	}
	add("avg degree", snap.AvgDegree, tgt.AvgDegree, tgt.AvgDegree)
	add("degree exponent", snap.Gamma, tgt.Gamma, tgt.Gamma)
	add("max degree / N", float64(snap.MaxDegree)/float64(snap.N), tgt.MaxDegreeFrac, tgt.MaxDegreeFrac)
	add("avg clustering", snap.AvgClustering, tgt.AvgClustering, tgt.AvgClustering)
	add("assortativity", snap.Assortativity, tgt.Assortativity, 1)
	add("avg path length", snap.AvgPathLen, tgt.AvgPathLen, tgt.AvgPathLen)
	add("diameter", float64(snap.Diameter), float64(tgt.Diameter), float64(tgt.Diameter))
	add("max coreness", float64(snap.MaxCore), float64(tgt.MaxCore), float64(tgt.MaxCore))
	var sum float64
	for _, r := range rep.Rows {
		sum += r.RelError
	}
	rep.Score = sum / float64(len(rep.Rows))
	return rep
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comparison against %s\n", r.Target)
	fmt.Fprintf(&b, "%-18s %12s %12s %10s\n", "metric", "measured", "reference", "rel.err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.4g %12.4g %9.1f%%\n",
			row.Name, row.Measured, row.Reference, 100*row.RelError)
	}
	fmt.Fprintf(&b, "%-18s %35.1f%%\n", "aggregate score", 100*r.Score)
	return b.String()
}

// Spectra compares binned spectra (knn(k), c(k)) between two graphs by
// log-log slope, a scale-free way to contrast correlation structure.
type Spectra struct {
	KnnSlope float64
	CkSlope  float64
}

// spectrumSlope fits a log-log least-squares slope to a degree-binned
// spectrum over degrees >= 2, NaN when degenerate.
func spectrumSlope(m map[int]float64) float64 {
	var xs, ys []float64
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		if k >= 2 && m[k] > 0 {
			xs = append(xs, math.Log(float64(k)))
			ys = append(ys, math.Log(m[k]))
		}
	}
	if len(xs) < 3 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// MeasureSpectraFrozen fits log-log slopes to the knn and clustering
// spectra of the engine's snapshot over degrees >= 2, reusing its
// memoized triangle counts and degree spectra. Degenerate spectra yield
// NaN slopes.
func MeasureSpectraFrozen(e *engine.Engine) Spectra {
	return Spectra{
		KnnSlope: spectrumSlope(e.Knn()),
		CkSlope:  spectrumSlope(e.ClusteringSpectrum()),
	}
}

// RankModels orders named reports by ascending score (best match
// first), returning the names. The order is fully deterministic; see
// RankScores.
func RankModels(reports map[string]*Report) []string {
	scores := make(map[string]float64, len(reports))
	for n, r := range reports {
		scores[n] = r.Score
	}
	return RankScores(scores)
}

// RankScores orders names by ascending score (best match first). The
// order is fully deterministic: NaN scores sort after every finite
// score, and equal scores — including two NaNs, which compare unequal
// under IEEE semantics and would otherwise leave the order up to the
// sort's whims — fall back to the name. Sweep summaries rank per size
// tier on cross-seed mean scores through this function, so rankings
// never flap across runs or worker counts.
func RankScores(scores map[string]float64) []string {
	names := make([]string, 0, len(scores))
	for n := range scores {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := scores[names[i]], scores[names[j]]
		ni, nj := math.IsNaN(si), math.IsNaN(sj)
		switch {
		case ni != nj:
			return nj // the finite score wins
		case !ni && si != sj:
			return si < sj
		}
		return names[i] < names[j]
	})
	return names
}

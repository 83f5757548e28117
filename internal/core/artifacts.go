package core

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"netmodel/internal/artifact"
	"netmodel/internal/compare"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/traffic"
)

// The pipeline's cacheable stage outputs, in dependency order. A
// snapshot entry holds the generated topology and its frozen snapshot;
// an engine entry holds the measured metrics and comparison report of
// that snapshot (usable only alongside its snapshot entry); a routing
// entry holds warm shortest-path-tree state over the snapshot, checked
// out exclusively because Routing mutates under simulation.
const (
	StageSnapshot = "snapshot"
	StageEngine   = "engine"
	StageRouting  = "routing"
)

// NewArtifactCache returns a cache sized by budget (bytes; < 0 means
// unbounded) with the pipeline's three stages registered in dependency
// order, or nil — the inert, cache-disabled configuration — when the
// budget is zero. Passing the result to RunCellsWith (or sweep.RunWith)
// never changes any result byte: cached artifacts are pure functions of
// their keys, so the cache only moves work, not answers.
func NewArtifactCache(budget int64) *artifact.Cache {
	return artifact.New(budget, StageSnapshot, StageEngine, StageRouting)
}

// TopologyKey canonically serializes every cell field that determines
// the topology stages — everything except Workload, which keys the
// per-spec fan-out within a topology group instead. Two cells with
// equal keys generate, freeze, measure and compare identically
// (RunCell is a pure function of the Cell value), so their stage
// outputs are interchangeable.
func (c Cell) TopologyKey() string {
	var b strings.Builder
	b.WriteString(c.Model)
	b.WriteString("|n=")
	b.WriteString(strconv.Itoa(c.N))
	b.WriteString("|seed=")
	b.WriteString(strconv.FormatUint(c.Seed, 10))
	b.WriteString("|tgt=")
	b.WriteString(c.Target.Name)
	b.WriteString("|ps=")
	b.WriteString(strconv.Itoa(c.PathSources))
	b.WriteString("|w=")
	b.WriteString(strconv.Itoa(c.Workers))
	b.WriteString("|me=")
	b.WriteString(strconv.Itoa(c.MeasureEvery))
	if c.TrajectoryPaths {
		b.WriteString("|tp")
	}
	if len(c.Params) > 0 {
		keys := make([]string, 0, len(c.Params))
		for k := range c.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString("|p:")
			b.WriteString(k)
			b.WriteString("=")
			b.WriteString(strconv.FormatFloat(c.Params[k], 'g', -1, 64))
		}
	}
	return b.String()
}

// workloadKey canonically serializes a workload spec ("" for nil) so
// exact-duplicate cells within a topology group can be detected. The
// JSON encoding of the struct is deterministic: field order is the
// declaration order.
func workloadKey(sp *traffic.WorkloadSpec) string {
	if sp == nil {
		return ""
	}
	b, err := json.Marshal(sp)
	if err != nil {
		// WorkloadSpec is a plain data struct; Marshal cannot fail.
		panic("core: marshaling workload spec: " + err.Error())
	}
	return string(b)
}

// routingKey extends a topology key with the snapshot version and the
// tree budget. Versions are process-unique, so a routing entry can only
// ever be keyed back to the exact snapshot object it was built over —
// the invariant traffic.WithRouting enforces — and it is reachable only
// when the snapshot entry itself was a hit.
func routingKey(topoKey string, snap *graph.Snapshot) string {
	return topoKey + "|v=" + strconv.FormatUint(snap.Version(), 10) +
		"|rtb=" + strconv.Itoa(traffic.RoutingTreeBudget(snap.N()))
}

// topoArtifact is the cached output of the generation stage: the
// mutable topology (kept for PipelineResult.Topology), its frozen
// snapshot, and the growth trajectory when the cell observed one. All
// three are immutable once the cell completes, so the entry is shared
// (artifact.Cache.Get) across concurrent runs.
type topoArtifact struct {
	top        *gen.Topology
	snap       *graph.Snapshot
	trajectory []TrajectoryPoint
}

func (a *topoArtifact) memBytes() int64 {
	b := a.snap.MemBytes() + a.top.G.MemEstimate()
	b += int64(len(a.top.Pos)) * 16
	b += int64(len(a.trajectory)) * trajectoryPointBytes
	return b
}

// trajectoryPointBytes approximates one TrajectoryPoint: the struct is
// a flat bundle of scalars (metrics.GrowthStats plus counters).
const trajectoryPointBytes = 256

// engineArtifact is the cached output of the measurement stage: the
// measured metric vector and its comparison report. The engine that
// produced them is not kept — nothing reads it after measurement, and
// dropping it lets its memo (including the giant-component
// sub-snapshot) be collected. The entry is only usable together with
// its sibling snapshot entry — it does not carry the topology or
// trajectory — and like it is immutable and shared.
type engineArtifact struct {
	metrics metrics.Snapshot
	report  *compare.Report
}

// memBytes estimates the entry: a flat metric vector plus one report
// row per compared metric.
func (a *engineArtifact) memBytes() int64 {
	return engineArtifactBytes + int64(len(a.report.Rows))*reportRowBytes
}

// engineArtifactBytes approximates the metric vector, the report header
// and the entry's bookkeeping; reportRowBytes one compare.MetricScore
// with its name.
const (
	engineArtifactBytes = 256
	reportRowBytes      = 64
)

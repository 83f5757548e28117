package main

import (
	"math"
	"sort"
)

// metricDef names a metric as BENCHMARK.json does. bound is the share of
// the baseline median by which an end-to-end metric may get worse.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics of an untraced run, each a median over the
// run's repetitions (ok_frac is a share of them). The three times are
// normalized to the host speed of probeRefS (see hostProbe). The bounds
// sit above the spread of those medians across seeds on a shared 2-core
// host.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_m", "millions", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
	{"ok_frac", "frac", "higher", 0.01},
}

// perLayer are read from the traced replay, except par.busy_cores,
// runtime.* and bench.trace_overhead_frac, which come from the untraced
// repetitions. A layer's time is in seconds when every workload runs the
// layer, and a share of the traced wall time otherwise, so that a
// workload which never runs a layer reads 0 rather than a time.
var perLayer = []metricDef{
	{name: "gen.generate.self_s", unit: "s", better: "lower"},
	{name: "gen.generate.alloc_mb", unit: "MB", better: "lower"},
	{name: "gen.edges_per_s", unit: "1/s", better: "higher"},
	{name: "gen.generate.ba.self_frac", unit: "frac", better: "lower"},
	{name: "gen.generate.glp.self_frac", unit: "frac", better: "lower"},
	{name: "gen.generate.pfp.self_frac", unit: "frac", better: "lower"},
	{name: "gen.generate.econ.self_frac", unit: "frac", better: "lower"},
	{name: "graph.freeze.self_s", unit: "s", better: "lower"},
	{name: "graph.freeze.alloc_mb", unit: "MB", better: "lower"},
	{name: "graph.refreeze.self_frac", unit: "frac", better: "lower"},
	{name: "graph.refreeze.alloc_mb", unit: "MB", better: "lower"},
	{name: "graph.refreeze.delta_edges", unit: "count", better: "lower"},
	{name: "engine.measure.self_frac", unit: "frac", better: "lower"},
	{name: "engine.measure.alloc_mb", unit: "MB", better: "lower"},
	{name: "engine.advance.self_frac", unit: "frac", better: "lower"},
	{name: "engine.advance.alloc_mb", unit: "MB", better: "lower"},
	{name: "engine.growth_paths.self_frac", unit: "frac", better: "lower"},
	{name: "engine.growth_paths.alloc_mb", unit: "MB", better: "lower"},
	{name: "compare.score.self_frac", unit: "frac", better: "lower"},
	{name: "compare.score.alloc_mb", unit: "MB", better: "lower"},
	{name: "traffic.simulate.self_frac", unit: "frac", better: "lower"},
	{name: "traffic.simulate.alloc_mb", unit: "MB", better: "lower"},
	{name: "traffic.origin_epochs", unit: "count", better: "lower"},
	{name: "traffic.tree_budget", unit: "count", better: "higher"},
	{name: "traffic.routing_mb", unit: "MB", better: "lower"},
	{name: "traffic.flows_arrived", unit: "count", better: "higher"},
	{name: "traffic.flow_epochs", unit: "count", better: "lower"},
	{name: "traffic.flows_per_s", unit: "1/s", better: "higher"},
	{name: "traffic.completed_frac", unit: "frac", better: "higher"},
	{name: "traffic.simulate.none.self_frac", unit: "frac", better: "lower"},
	{name: "traffic.simulate.random.self_frac", unit: "frac", better: "lower"},
	{name: "traffic.simulate.degree.self_frac", unit: "frac", better: "lower"},
	{name: "traffic.failure_extra_frac", unit: "frac", better: "lower"},
	{name: "traffic.rerouted", unit: "count", better: "higher"},
	{name: "traffic.killed", unit: "count", better: "lower"},
	{name: "traffic.retried", unit: "count", better: "lower"},
	{name: "traffic.reroute_ok_frac", unit: "frac", better: "higher"},
	{name: "graphio.write.self_s", unit: "s", better: "lower"},
	{name: "graphio.bytes", unit: "bytes", better: "lower"},
	{name: "core.groups", unit: "count", better: "lower"},
	{name: "core.cells", unit: "count", better: "higher"},
	{name: "par.busy_cores", unit: "cores", better: "higher"},
	{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "bench.traced_wall_s", unit: "s", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "bench.unattributed_frac", unit: "frac", better: "lower"},
}

// replayLayers derives the per-layer metrics of one traced replay from
// its spans (spans[0] is the root) and the counts read off its results.
// It also returns the self seconds by span name (layerTotals).
func replayLayers(spans []span, st replayStats, outBytes int64) (map[string]float64, map[string]float64) {
	self := selfTimes(spans)
	selfS, allocB := layerTotals(spans, self)
	wall := float64(spans[0].EndNS-spans[0].StartNS) / 1e9
	mb := func(name string) float64 { return float64(allocB[name]) / 1e6 }
	frac := func(name string) float64 { return selfS[name] / wall }
	m := map[string]float64{
		"gen.generate.self_s":           selfS["gen.generate"],
		"gen.generate.alloc_mb":         mb("gen.generate"),
		"gen.edges_per_s":               ratio(float64(st.edges), selfS["gen.generate"]),
		"graph.freeze.self_s":           selfS["graph.freeze"],
		"graph.freeze.alloc_mb":         mb("graph.freeze"),
		"graph.refreeze.self_frac":      frac("graph.refreeze"),
		"graph.refreeze.alloc_mb":       mb("graph.refreeze"),
		"graph.refreeze.delta_edges":    float64(st.deltaEdges),
		"engine.measure.self_frac":      frac("engine.measure"),
		"engine.measure.alloc_mb":       mb("engine.measure"),
		"engine.advance.self_frac":      frac("engine.advance"),
		"engine.advance.alloc_mb":       mb("engine.advance"),
		"engine.growth_paths.self_frac": frac("engine.growth_paths"),
		"engine.growth_paths.alloc_mb":  mb("engine.growth_paths"),
		"compare.score.self_frac":       frac("compare.score"),
		"compare.score.alloc_mb":        mb("compare.score"),
		"traffic.simulate.self_frac":    frac("traffic.simulate"),
		"traffic.simulate.alloc_mb":     mb("traffic.simulate"),
		"traffic.origin_epochs":         float64(st.originEpochs),
		"traffic.tree_budget":           float64(st.treeBudget),
		"traffic.routing_mb":            float64(st.routingBytes) / 1e6,
		"traffic.flows_arrived":         float64(st.arrived),
		"traffic.flow_epochs":           float64(st.flowEpochs),
		"traffic.flows_per_s":           ratio(float64(st.arrived), selfS["traffic.simulate"]),
		"traffic.completed_frac":        ratio(float64(st.completed), float64(st.arrived)),
		"traffic.rerouted":              float64(st.rerouted),
		"traffic.killed":                float64(st.killed),
		"traffic.retried":               float64(st.retried),
		"traffic.reroute_ok_frac":       ratio(float64(st.rerouted), float64(st.rerouted+st.killed)),
		"graphio.write.self_s":          selfS["graphio.write"],
		"graphio.bytes":                 float64(outBytes),
		"core.groups":                   float64(st.groups),
		"core.cells":                    float64(st.cells),
		"bench.traced_wall_s":           wall,
		"bench.unattributed_frac":       frac(spans[0].Name),
	}
	for _, model := range []string{"ba", "glp", "pfp", "econ"} {
		m["gen.generate."+model+".self_frac"] = frac("gen.generate." + model)
	}
	for _, mode := range []string{"none", "random", "degree"} {
		m["traffic.simulate."+mode+".self_frac"] = frac("traffic.simulate." + mode)
	}
	// Failure scenarios' simulate time beyond that of as many undisturbed
	// (mode none) simulations of the same topology.
	var noneS, failS float64
	var noneN, failN int
	for i, sp := range spans {
		switch {
		case sp.Name != "traffic.simulate" || sp.Label == "":
		case sp.Label == "none":
			noneS += float64(self[i]) / 1e9
			noneN++
		default:
			failS += float64(self[i]) / 1e9
			failN++
		}
	}
	extra := 0.0
	if noneN > 0 {
		extra = (failS - float64(failN)*noneS/float64(noneN)) / wall
	}
	m["traffic.failure_extra_frac"] = extra
	return m, selfS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, or 0 when xs is empty (every run
// failed), which keeps a result encodable.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// quartiles returns the first and third quartiles with the method of
// Python's statistics.quantiles(data, n=4) (the default, "exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

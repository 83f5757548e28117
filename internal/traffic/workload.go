package traffic

import (
	"errors"
	"fmt"
	"math"

	"netmodel/internal/rng"
)

// This file is the workload layer of the traffic package: instead of a
// single-shot matrix routed once, demand is a population of flows that
// arrive over time on gravity-weighted origin-destination pairs, carry
// heavy-tailed sizes, and share link bandwidth while they live — the
// flow-level abstraction of the congestion-control and flow-level
// stability literature (Garg-Young, Feuillet). The arrival processes
// and size laws are plain values a spec string selects by switch; every
// random draw comes from a stream split off the workload seed per
// source node, so a simulation is a pure function of (snapshot, masses,
// spec, seed) — bit-identical at every worker count.

// arrivalState is one origin's evolving arrival state. A Poisson origin
// (onOff false) emits Poisson counts with mean rate·dt per window. An
// on-off origin is the Markov-modulated burst process: it alternates
// between exponential on-periods (mean meanOn) and off-periods (mean
// meanOff), emitting Poisson arrivals only while on, at an intensity
// (rate) scaled by (meanOn+meanOff)/meanOn so the long-run mean rate
// matches the requested one. The origin's split stream is passed to
// every call, not held, so the states of all origins sit in one flat
// slice next to the streams.
type arrivalState struct {
	onOff, on       bool
	rate            float64 // Poisson intensity (while on, for on-off)
	left            float64 // on-off: time left in the current state
	meanOn, meanOff float64
}

// newArrivalState returns the arrival state of one origin with the
// given long-run mean arrival rate (flows per unit time) under the
// spec's process, drawing an on-off origin's initial state from the
// stationary distribution on r.
func (sp *WorkloadSpec) newArrivalState(r *rng.Rand, rate float64) arrivalState {
	if sp.Arrivals != "onoff" {
		return arrivalState{rate: rate}
	}
	a := arrivalState{onOff: true, rate: rate * (sp.MeanOn + sp.MeanOff) / sp.MeanOn,
		meanOn: sp.MeanOn, meanOff: sp.MeanOff}
	a.on = r.Float64() < sp.MeanOn/(sp.MeanOn+sp.MeanOff)
	a.left = a.period(r)
	return a
}

// period draws the length of a fresh on-off period in the current
// state.
func (a *arrivalState) period(r *rng.Rand) float64 {
	if a.on {
		return r.Exp(1 / a.meanOn)
	}
	return r.Exp(1 / a.meanOff)
}

// arrivals advances the state by dt time units on the origin's stream r
// and returns how many flows arrived in that window.
func (a *arrivalState) arrivals(r *rng.Rand, dt float64) int {
	if !a.onOff {
		return r.Poisson(a.rate * dt)
	}
	var onTime float64
	for dt > 0 {
		step := min(dt, a.left)
		if a.on {
			onTime += step
		}
		dt -= step
		a.left -= step
		if a.left <= 0 {
			a.on = !a.on
			a.left = a.period(r)
		}
	}
	// A window spent wholly off draws nothing: Poisson(0) is 0 without
	// a draw.
	return r.Poisson(a.rate * onTime)
}

// sampleSize draws one flow size > 0 (in capacity·time units: a size-1
// flow saturates a unit-capacity link for one time unit) from the
// spec's size law on r. Pareto is the canonical heavy-tailed law, with
// tail index TailIndex > 1 and the minimum size derived from the mean;
// smaller tail indexes sharpen the mice-and-elephants mix. Lognormal
// takes TailIndex as its log-space sigma, the location derived so the
// arithmetic mean is MeanSize. Exponential is the light-tailed
// reference.
func (sp *WorkloadSpec) sampleSize(r *rng.Rand) float64 {
	switch sp.Sizes {
	case "lognormal":
		mu := math.Log(sp.MeanSize) - sp.TailIndex*sp.TailIndex/2
		return math.Exp(r.Normal(mu, sp.TailIndex))
	case "exp":
		return r.Exp(1 / sp.MeanSize)
	default:
		xm := sp.MeanSize * (sp.TailIndex - 1) / sp.TailIndex
		return r.Pareto(xm, sp.TailIndex)
	}
}

// WorkloadSpec is the flag- and JSON-friendly description of a flow
// workload: plain numbers and names, so sweep grids can serialize it
// and vary LoadFactor and TailIndex as sweep axes. The zero value of
// every optional field means its documented default.
type WorkloadSpec struct {
	// Engine selects the simulation engine: "epoch" (default) re-solves
	// the max-min allocation from scratch every epoch — the pinned
	// reference implementation — while "event" runs the event-calendar
	// engine, which pre-draws arrivals, predicts departures on a heap
	// and re-solves only the bottleneck components whose flow membership
	// changed, solving independent components in parallel. Both engines
	// simulate the same epoch-quantized dynamics from the same random
	// streams; "event" reaches the same completion times up to
	// floating-point association order and is the one that scales.
	Engine string `json:"engine,omitempty"`
	// Arrivals names the arrival process: "poisson" (default) or
	// "onoff".
	Arrivals string `json:"arrivals,omitempty"`
	// Sizes names the flow-size law: "pareto" (default), "lognormal" or
	// "exp".
	Sizes string `json:"sizes,omitempty"`
	// LoadFactor scales the aggregate offered bit-rate to LoadFactor ×
	// total link capacity. Since each flow consumes capacity on every
	// hop of its path, links begin to saturate near 1/(mean hops); the
	// overload metrics report where that transition lands. Required.
	LoadFactor float64 `json:"load_factor"`
	// TailIndex shapes the size tail: the Pareto tail exponent alpha
	// (> 1; default 1.5) or the lognormal sigma (default 1). Ignored by
	// "exp".
	TailIndex float64 `json:"tail_index,omitempty"`
	// MeanSize is the mean flow size in capacity·time units (default 1).
	MeanSize float64 `json:"mean_size,omitempty"`
	// MeanOn and MeanOff are the on-off state durations (defaults 1 and
	// 4). Ignored by "poisson".
	MeanOn  float64 `json:"mean_on,omitempty"`
	MeanOff float64 `json:"mean_off,omitempty"`
	// Epochs is the simulated horizon in epochs (default 20).
	Epochs int `json:"epochs,omitempty"`
	// EpochLen is the epoch duration dt (default 1): arrivals batch at
	// epoch starts and max-min rates hold within an epoch.
	EpochLen float64 `json:"epoch_len,omitempty"`
	// CapacityUnit is the capacity of a multiplicity-1 link (default 1);
	// a link's capacity is its edge multiplicity times this.
	CapacityUnit float64 `json:"capacity_unit,omitempty"`
	// OverloadAt is the utilization at or above which a link-epoch
	// counts as overloaded (default 0.999 — saturated under max-min
	// sharing).
	OverloadAt float64 `json:"overload_at,omitempty"`
	// Failures optionally injects link/node outages into the horizon
	// (see FailureSpec). nil — or mode "none" — is the pinned no-failure
	// path: the simulation is bit-identical to one without the field.
	Failures *FailureSpec `json:"failures,omitempty"`
}

// The simulation engines selectable through WorkloadSpec.Engine.
const (
	// EngineEpoch is the discrete-epoch reference: a full max-min
	// water-filling pass over every active flow, every epoch.
	EngineEpoch = "epoch"
	// EngineEvent is the event-calendar engine: pre-drawn arrivals, a
	// predicted-departure heap, and incremental per-component rate
	// recomputation parallelized across independent bottleneck groups.
	EngineEvent = "event"
)

// workloadDefaults are the resolved fallbacks of WorkloadSpec.
const (
	defaultTailAlpha = 1.5
	defaultTailSigma = 1.0
	defaultMeanSize  = 1.0
	defaultMeanOn    = 1.0
	defaultMeanOff   = 4.0
	defaultEpochs    = 20
	defaultEpochLen  = 1.0
	defaultCapUnit   = 1.0
	defaultOverload  = 0.999
)

// withDefaults resolves every zero-valued optional field to its
// documented default, so the spec echoed in reports is fully explicit.
func (sp WorkloadSpec) withDefaults() WorkloadSpec {
	if sp.Engine == "" {
		sp.Engine = EngineEpoch
	}
	if sp.Arrivals == "" {
		sp.Arrivals = "poisson"
	}
	if sp.Sizes == "" {
		sp.Sizes = "pareto"
	}
	if sp.TailIndex == 0 {
		if sp.Sizes == "lognormal" {
			sp.TailIndex = defaultTailSigma
		} else {
			sp.TailIndex = defaultTailAlpha
		}
	}
	if sp.MeanSize == 0 {
		sp.MeanSize = defaultMeanSize
	}
	if sp.MeanOn == 0 {
		sp.MeanOn = defaultMeanOn
	}
	if sp.MeanOff == 0 {
		sp.MeanOff = defaultMeanOff
	}
	if sp.Epochs == 0 {
		sp.Epochs = defaultEpochs
	}
	if sp.EpochLen == 0 {
		sp.EpochLen = defaultEpochLen
	}
	if sp.CapacityUnit == 0 {
		sp.CapacityUnit = defaultCapUnit
	}
	if sp.OverloadAt == 0 {
		sp.OverloadAt = defaultOverload
	}
	if sp.Failures != nil {
		f := sp.Failures.withDefaults()
		sp.Failures = &f
	}
	return sp
}

// Validate checks a spec after default resolution and reports the first
// violation.
func (sp WorkloadSpec) Validate() error {
	sp = sp.withDefaults()
	for _, v := range []float64{sp.LoadFactor, sp.TailIndex, sp.MeanSize,
		sp.MeanOn, sp.MeanOff, sp.EpochLen, sp.CapacityUnit, sp.OverloadAt} {
		// Comparisons below are false for NaN, so reject non-finite
		// knobs explicitly — "-load nan" must fail here, not simulate.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("traffic: workload spec values must be finite")
		}
	}
	switch sp.Engine {
	case EngineEpoch, EngineEvent:
	default:
		return fmt.Errorf("traffic: unknown engine %q (have %s, %s)", sp.Engine, EngineEpoch, EngineEvent)
	}
	switch sp.Arrivals {
	case "poisson", "onoff":
	default:
		return fmt.Errorf("traffic: unknown arrival process %q (have poisson, onoff)", sp.Arrivals)
	}
	switch sp.Sizes {
	case "pareto", "lognormal", "exp":
	default:
		return fmt.Errorf("traffic: unknown size distribution %q (have pareto, lognormal, exp)", sp.Sizes)
	}
	if sp.LoadFactor <= 0 {
		return errors.New("traffic: workload load factor must be positive")
	}
	if sp.Sizes == "pareto" && sp.TailIndex <= 1 {
		return errors.New("traffic: pareto tail index must exceed 1 for a finite mean size")
	}
	if sp.TailIndex < 0 {
		return errors.New("traffic: tail index must not be negative")
	}
	if sp.MeanSize <= 0 || sp.MeanOn <= 0 || sp.MeanOff <= 0 ||
		sp.EpochLen <= 0 || sp.CapacityUnit <= 0 {
		return errors.New("traffic: workload sizes, durations, epoch length and capacity unit must be positive")
	}
	if sp.Epochs < 0 {
		return errors.New("traffic: workload epochs must not be negative")
	}
	if sp.Epochs > math.MaxInt32 {
		// The event engine counts epochs in int32 and both engines size
		// per-epoch rows by the horizon up front.
		return fmt.Errorf("traffic: workload epochs %d above the %d limit", sp.Epochs, math.MaxInt32)
	}
	if sp.Failures != nil {
		if err := sp.Failures.Validate(); err != nil {
			return err
		}
		if err := sp.Failures.checkRenewal(sp.Epochs, sp.EpochLen); err != nil {
			return err
		}
	}
	return nil
}

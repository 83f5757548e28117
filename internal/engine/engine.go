// Package engine is the parallel metrics engine of netmodel: it takes
// an immutable graph.Snapshot (CSR arrays, safe for concurrent reads)
// and shards per-source traversal work — BFS, Brandes betweenness,
// triangle and cycle counting — across a pool of GOMAXPROCS workers.
// Results of the parameterless whole-graph metrics are memoized per
// snapshot, so a pipeline that needs clustering for a report and again
// for a spectrum pays for it once.
//
// The engine is the whole-graph metric surface; internal/metrics holds
// the per-source and per-node kernels it shards and the reducers that
// assemble their outputs. Integer-valued reductions (path histograms,
// triangle and cycle counts, coreness, rich-club) are bit-identical at
// every pool width, and floating-point accumulations (betweenness
// dependencies) agree to ~1e-12 relative error, differing only in
// summation order; at one worker they follow the sequential order. The
// tests in this package pin the engine against brute-force and
// test-local sequential oracles across generator families and seeds.
//
// Along a growth trajectory (Advance) three states are engine-owned and
// refreshed in place from each epoch's delta: the triangle counts, the
// k-order (metrics.CoreMap) and the distance map (metrics.DistMap).
// The trajectory observation reads scalar reductions of them — average
// clustering, transitivity, k-core depth, mean closeness — and builds
// no per-node vector. Results handed to callers are fresh per snapshot
// and never change afterwards: TrianglesPerNode is a copy of the owned
// counts, LocalClustering a vector of its own, KCore's Coreness a copy
// of the k-order's. GrowthDistMap is the exception: it returns the live
// map, which the next Advance repairs.
package engine

import (
	"errors"
	"strconv"
	"sync"

	"netmodel/internal/graph"
	"netmodel/internal/metrics"
	"netmodel/internal/par"
)

var (
	errNilSnapshot = errors.New("engine: Advance needs a snapshot")
	errDeltaBase   = errors.New("engine: delta does not extend the engine's current snapshot")
)

// Engine runs parallel analyses over one frozen snapshot. Along a
// growth trajectory the engine is version-aware: Advance rebases it
// onto a refreshed snapshot, memo keys carry the snapshot version so a
// stale entry can never be served, and metrics with incremental
// kernels are maintained from the previous epoch's values instead of
// recomputed.
type Engine struct {
	s       *graph.Snapshot
	workers int

	mu      sync.Mutex
	memo    map[string]*memoEntry
	inherit map[string]func() any // incremental computations for the current snapshot, by bare key
	// msbfs is the free list of path-statistics lane scratches, at most
	// one per worker.
	msbfs []*metrics.MSBFSScratch
	// triScratch is the triangle refresh's lookup table, used by one
	// epoch's refresh at a time.
	triScratch metrics.TriangleScratch
}

type memoEntry struct {
	once sync.Once
	val  any
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool size; n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// New returns an engine over the snapshot. The default worker count is
// GOMAXPROCS.
func New(s *graph.Snapshot, opts ...Option) *Engine {
	e := &Engine{s: s, workers: par.Workers(0), memo: make(map[string]*memoEntry)}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Snapshot returns the frozen topology the engine analyzes.
func (e *Engine) Snapshot() *graph.Snapshot { return e.s }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Cached exposes the engine's per-snapshot memoization to sibling
// analysis layers (policy metrics, traffic studies) so that everything
// computed over one frozen topology shares a single cache. Keys are
// namespaced by convention ("aspolicy:cone", "traffic:routing" — the
// workload simulator's shortest-path trees, reused across repeated
// simulations of one snapshot); the engine's own metrics use bare keys. Every entry is stored under the current
// snapshot's version, so after an Advance an old entry can never be
// served for the refreshed topology. Concurrent callers of the same
// key block on a single computation; callers must not modify returned
// values.
func (e *Engine) Cached(key string, compute func() any) any {
	e.mu.Lock()
	vkey := strconv.FormatUint(e.s.Version(), 10) + ":" + key
	ent, ok := e.memo[vkey]
	if !ok {
		ent = &memoEntry{}
		e.memo[vkey] = ent
		if inc, ok := e.inherit[key]; ok {
			// First demand for a metric with an incremental kernel on
			// this snapshot: run the kernel instead of the full compute.
			// One-shot — drop the closure so it stops pinning the
			// previous snapshot and its metric vectors.
			compute = inc
			delete(e.inherit, key)
		}
	}
	e.mu.Unlock()
	ent.once.Do(func() { ent.val = compute() })
	return ent.val
}

// peek returns the memoized value of a bare key under the current
// snapshot version, if it has been computed.
func (e *Engine) peek(key string) (any, bool) {
	e.mu.Lock()
	ent, ok := e.memo[strconv.FormatUint(e.s.Version(), 10)+":"+key]
	e.mu.Unlock()
	if !ok || ent.val == nil {
		return nil, false
	}
	return ent.val, true
}

// Advance rebases the engine onto next, the refreshed successor of the
// current snapshot produced by Graph.Refreeze. When d is the delta
// between the two snapshots, metrics with incremental kernels are
// carried forward from the previous epoch and maintained in time
// proportional to the delta on their next demand; everything else is
// dropped and recomputed lazily.
//
// Refreshed in place, so the previous epoch's value is consumed: the
// triangle counts (metrics.RefreshTriangles), the k-order
// (metrics.CoreMap, built with one peel on first demand, then refreshed
// by the order-based pass, which visits only the nodes whose remaining
// degree rises) and the distance map behind the trajectory path
// metrics (metrics.DistMap). Fresh per epoch: the degree histogram
// (metrics.RefreshDegreeHistogram copies the previous one), the KCore
// result (a copy of the k-order's corenesses once a KCore was memoized
// before the Advance; a cold KCore stays a plain peel), and every copy
// or vector derived from the owned states. A nil d (Refreeze fell back
// to a full freeze) rebases without inheritance. Advance must not run
// concurrently with metric queries; the trajectory drivers alternate
// strictly between advancing and measuring.
func (e *Engine) Advance(next *graph.Snapshot, d *graph.Delta) error {
	if next == nil {
		return errNilSnapshot
	}
	prev := e.s
	inherit := make(map[string]func() any)
	if d != nil {
		if d.BaseVersion() != prev.Version() {
			return errDeltaBase
		}
		if tri, ok := e.peek("triangles"); ok {
			// The counts refresh in place; TrianglesPerNode hands out
			// copies.
			prevTri := tri.([]int)
			inherit["triangles"] = func() any {
				return metrics.RefreshTriangles(prev, next, d, prevTri, &e.triScratch)
			}
		}
		if cmv, ok := e.peek("coremap"); ok {
			cm := cmv.(*metrics.CoreMap)
			inherit["coremap"] = func() any {
				cm.Refresh(next, d)
				return cm
			}
		}
		if _, ok := e.peek("kcore"); ok {
			// The first epoch after a cold KCore builds the k-order from
			// next with one peel; later epochs refresh it. Each epoch's
			// result is a fresh copy, so one a caller holds never changes.
			inherit["kcore"] = func() any {
				return e.coreMap().Result()
			}
		}
		if hist, ok := e.peek("degree-hist"); ok {
			prevHist := hist.([]int)
			inherit["degree-hist"] = func() any {
				return metrics.RefreshDegreeHistogram(prev, next, d, prevHist)
			}
		}
		if dmv, ok := e.peek("distmap"); ok {
			// The distance map repairs in place — it consumes the previous
			// epoch's rows rather than copying them, so, as for the
			// triangle counts and the k-order, the old memo value must
			// never be served again. Advance drops the old memo wholesale
			// below, which is exactly that.
			prevDM := dmv.(*metrics.DistMap)
			inherit["distmap"] = func() any {
				prevDM.Refresh(next, d, e.workers)
				return prevDM
			}
		}
	}
	e.mu.Lock()
	e.s = next
	e.inherit = inherit
	// Entries of earlier versions can never be hit again (versions are
	// unique and monotone); drop them so a 100-epoch trajectory does not
	// hold 100 epochs of metric vectors alive.
	e.memo = make(map[string]*memoEntry)
	e.mu.Unlock()
	return nil
}

// Package gen implements the published Internet topology generator
// families: flat random models (Erdős–Rényi, Watts–Strogatz, random
// geometric), the distance-driven Waxman model, degree-driven growth
// models (Barabási–Albert and its initial-attractiveness extension, GLP,
// PFP), optimization-driven FKP/HOT trees, degree-targeted Inet-style
// synthesis, BRITE-style hybrid growth and GT-ITM-style transit-stub
// hierarchies.
//
// Every generator is a value type holding its parameters, produces a
// Topology from an explicit random source, and is fully deterministic
// given a seed. Parameter validation happens at generation time so
// zero-value misconfigurations fail loudly rather than silently
// producing degenerate maps.
package gen

import (
	"errors"
	"fmt"
	"math"

	"netmodel/internal/geom"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// Topology is the output of a generator: the graph plus, for geographic
// models, the node embedding (nil otherwise).
type Topology struct {
	G   *graph.Graph
	Pos []geom.Point
}

// Generator produces synthetic topologies.
type Generator interface {
	// Name identifies the model family (stable, lowercase).
	Name() string
	// Generate builds a topology from the random source.
	Generate(r *rng.Rand) (*Topology, error)
}

// ShardedGenerator is implemented by families with a parallel growth
// kernel (see growth.go). The contract:
//
//   - workers <= 1 runs the sequential reference implementation, so the
//     output is bit-identical to Generate for the same seed;
//   - workers >= 2 runs the sharded kernel, whose output is a pure
//     function of the seed: identical across repeated runs and across
//     every worker count, though generally different from the
//     sequential edge list (the equivalence property tests pin its
//     degree statistics to the reference).
type ShardedGenerator interface {
	Generator
	// GenerateSharded builds the topology across a pool of the given
	// width. workers <= 1 — including 0 — runs the sequential
	// reference; callers that want "all cores" resolve GOMAXPROCS
	// themselves (as GenerateWith's users do) before calling.
	GenerateSharded(r *rng.Rand, workers int) (*Topology, error)
}

// GenerateWith runs g's sharded kernel when it has one and more than
// one worker is requested, and the sequential path otherwise. It is the
// single dispatch point the tools and pipelines plumb -workers through.
func GenerateWith(g Generator, r *rng.Rand, workers int) (*Topology, error) {
	if sg, ok := g.(ShardedGenerator); ok && workers > 1 {
		return sg.GenerateSharded(r, workers)
	}
	return g.Generate(r)
}

// errPositive formats a standard validation error.
func errPositive(model, field string) error {
	return fmt.Errorf("gen/%s: %s must be positive", model, field)
}

// maxN bounds the node count of every generator: frozen snapshots
// store node ids as int32. Generators check it before their first
// size-proportional allocation, so an oversized request fails with an
// error instead of exhausting memory.
const maxN = math.MaxInt32

// validateN rejects non-positive node counts and counts above maxN.
func validateN(model string, n int) error {
	if n <= 0 {
		return errPositive(model, "N")
	}
	if n > maxN {
		return fmt.Errorf("gen/%s: N=%d above the %d-node limit", model, n, maxN)
	}
	return nil
}

// ErrTooDense is returned when a model's edge demand exceeds what a
// simple graph on its node count can host.
var ErrTooDense = errors.New("gen: requested density exceeds simple-graph capacity")

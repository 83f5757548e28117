package netmodel

import (
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/rng"
)

// The engine benchmarks pit the metrics engine at its default pool
// width (GOMAXPROCS workers) against the same engine pinned to one
// worker on a 10k-node heavy-tailed topology:
//
//	go test -run '^$' -bench 'Betweenness|Measure' -benchmem .
//
// The Sequential rows run the same engine with one worker, one source
// at a time, so the ratio is the multi-core speedup of sharding sources
// across workers.
const benchN = 10000

// benchSources keeps one sampled-betweenness iteration subsecond at
// n=10k while exercising exactly the sharded per-source path.
const benchSources = 64

func BenchmarkBetweennessSequential(b *testing.B) {
	eng := engine.New(build(b, "gba", benchN).Freeze(), engine.WithWorkers(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BetweennessSampled(rng.New(uint64(i)), benchSources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBetweennessEngine(b *testing.B) {
	g := build(b, "gba", benchN)
	eng := engine.New(g.Freeze())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.BetweennessSampled(rng.New(uint64(i)), benchSources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	g := build(b, "gba", benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Freeze()
	}
}

func BenchmarkMeasureSequential(b *testing.B) {
	s := build(b, "gba", benchN).Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(s, engine.WithWorkers(1)).Measure(rng.New(uint64(i)), 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureEngine(b *testing.B) {
	g := build(b, "gba", benchN)
	s := g.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(s).Measure(rng.New(uint64(i)), 200); err != nil {
			b.Fatal(err)
		}
	}
}

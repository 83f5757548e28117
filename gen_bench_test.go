package netmodel

import (
	"runtime"
	"testing"

	"netmodel/internal/econ"
	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// The generator benchmarks pit the sharded growth kernels against their
// sequential references — the acceptance surface of the sharded-
// generation work:
//
//	go test -bench Gen -benchmem
//
// The sharded path wins twice: frozen-round alias sampling replaces
// per-attachment Fenwick updates (a single-core win), and candidate
// planning plus graph construction shard across the pool (a multi-core
// win). The 10k cases are the CI smoke; the 100k cases measure the
// scale the acceptance criterion names (run them with -benchtime raised
// on real hardware). workers=8 rows also report the pool actually
// available, since speedup is bounded by physical cores.
const genBenchN = 10000

// genBenchWorkers is the sharded pool width under benchmark; capped by
// cores at runtime, reported per run.
const genBenchWorkers = 8

func genFamilies(n int) []gen.ShardedGenerator {
	return []gen.ShardedGenerator{
		gen.BA{N: n, M: 2},
		gen.GLP{N: n, M: 1, P: 0.45, Beta: 0.64},
		gen.DefaultPFP(n),
	}
}

func benchGenerate(b *testing.B, m gen.ShardedGenerator, workers int) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := m.GenerateSharded(rng.New(uint64(i+1)), workers)
		if err != nil {
			b.Fatal(err)
		}
		if top.G.N() == 0 {
			b.Fatal("empty topology")
		}
	}
}

func BenchmarkGenBA10kSequential(b *testing.B) { benchGenerate(b, genFamilies(genBenchN)[0], 1) }
func BenchmarkGenBA10kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(genBenchN)[0], genBenchWorkers)
}
func BenchmarkGenGLP10kSequential(b *testing.B) { benchGenerate(b, genFamilies(genBenchN)[1], 1) }
func BenchmarkGenGLP10kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(genBenchN)[1], genBenchWorkers)
}
func BenchmarkGenPFP10kSequential(b *testing.B) { benchGenerate(b, genFamilies(genBenchN)[2], 1) }
func BenchmarkGenPFP10kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(genBenchN)[2], genBenchWorkers)
}

// The 100k-node rows are the acceptance-criterion scale: sharded
// BA/GLP/PFP at 8 workers versus the sequential reference.
func BenchmarkGenBA100kSequential(b *testing.B) { benchGenerate(b, genFamilies(100000)[0], 1) }
func BenchmarkGenBA100kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(100000)[0], genBenchWorkers)
}
func BenchmarkGenGLP100kSequential(b *testing.B) { benchGenerate(b, genFamilies(100000)[1], 1) }
func BenchmarkGenGLP100kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(100000)[1], genBenchWorkers)
}
func BenchmarkGenPFP100kSequential(b *testing.B) { benchGenerate(b, genFamilies(100000)[2], 1) }
func BenchmarkGenPFP100kSharded(b *testing.B) {
	benchGenerate(b, genFamilies(100000)[2], genBenchWorkers)
}

// BenchmarkGenEconSharded measures the sharded market rounds against
// the sequential engine at the published calibration.
func BenchmarkGenEconSequential(b *testing.B) { benchEcon(b, 1) }
func BenchmarkGenEconSharded(b *testing.B)    { benchEcon(b, genBenchWorkers) }

func benchEcon(b *testing.B, workers int) {
	b.Helper()
	m := econ.Default(2000)
	m.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(rng.New(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

package netmodel

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"netmodel/internal/benchutil"
	"netmodel/internal/graphio"
	"netmodel/internal/sweep"
)

// The sweep benchmarks measure the cell-fan-out speedup: the same
// (ba, glp, pfp) × seeds grid executed with cells in sequence
// (workers=1) versus cells spread across the pool — the many-maps
// workload toposweep serves. Cells are embarrassingly parallel and
// seed-split streams make the fold order-free, so the speedup should
// track the core count until memory bandwidth bites:
//
//	go test -run TestBenchJSON/sweep . -bench-out DIR   # BENCH_sweep.json rows
//	go test -bench SweepCells .                         # standard benchmark rows

// sweepBenchGrid is the benchmark workload: the acceptance-criterion
// model trio at one size, PathSources capped so the cell cost is
// dominated by generation + whole-graph metrics.
func sweepBenchGrid(n, seeds int) sweep.Grid {
	sd := make([]uint64, seeds)
	for i := range sd {
		sd[i] = uint64(i + 1)
	}
	return sweep.Grid{
		Models:      []string{"ba", "glp", "pfp"},
		Sizes:       []int{n},
		Seeds:       sd,
		PathSources: 100,
	}
}

func runSweepBench(tb testing.TB, g sweep.Grid, workers int) *sweep.Summary {
	tb.Helper()
	s, err := sweep.Run(g, workers)
	if err != nil {
		tb.Fatal(err)
	}
	if len(s.Cells) != len(g.Models)*len(g.Sizes)*len(g.Seeds) {
		tb.Fatalf("sweep ran %d cells", len(s.Cells))
	}
	return s
}

// encodeSweep is the byte identity sweep summaries are compared on.
func encodeSweep(tb testing.TB, s *sweep.Summary) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteSweepJSON(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func benchSweepCells(b *testing.B, workers int) {
	g := sweepBenchGrid(1000, 2)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSweepBench(b, g, workers)
	}
}

func BenchmarkSweepCellsSequential(b *testing.B) { benchSweepCells(b, 1) }
func BenchmarkSweepCellsParallel(b *testing.B)   { benchSweepCells(b, genBenchWorkers) }

// sweepScenario times the grid at both pool widths and checks the two
// summaries are byte-identical — the sweep determinism contract at
// benchmark scale.
func sweepScenario(t *testing.T, sz benchSize) []benchutil.Row {
	var rows []benchutil.Row
	for _, n := range sz.Ns {
		g := sweepBenchGrid(n, sz.Seeds)
		var seq, par *sweep.Summary
		seqTime, seqAllocs, seqBytes := benchutil.Timed(func() { seq = runSweepBench(t, g, 1) })
		parTime, parAllocs, parBytes := benchutil.Timed(func() { par = runSweepBench(t, g, genBenchWorkers) })
		if !bytes.Equal(encodeSweep(t, seq), encodeSweep(t, par)) {
			t.Fatalf("workers=%d summary diverged from sequential", genBenchWorkers)
		}
		speedup := float64(seqTime) / float64(parTime)
		row := benchutil.Row{Models: fmt.Sprintf("%v", g.Models), N: n, Seeds: sz.Seeds, Cells: len(seq.Cells)}
		parRow := row.As("sweep-parallel-cells", genBenchWorkers, parTime).WithAllocs(float64(parAllocs), float64(parBytes))
		parRow.Speedup = speedup
		rows = append(rows, row.As("sweep-sequential-cells", 1, seqTime).WithAllocs(float64(seqAllocs), float64(seqBytes)), parRow)
		t.Logf("n=%d seeds=%d cells=%d: sequential %v, %d workers %v, speedup %.2fx",
			n, sz.Seeds, len(seq.Cells), seqTime, genBenchWorkers, parTime, speedup)
	}
	return rows
}

package netmodel

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netmodel/internal/artifact"
	"netmodel/internal/benchutil"
	"netmodel/internal/core"
	"netmodel/internal/sweep"
	"netmodel/internal/traffic"
)

// The cache scenario measures the artifact-reuse speedup: one topology
// fanned out to eight workload variants, swept cold (cache disabled,
// the pre-cache baseline) and then warm (every stage served from a
// primed cache). The cold sweep pays generation + whole-graph metrics
// once per invocation; the warm sweep pays only the workload stage, so
// the ratio is the amortization a repeated sweep — the toposerve-style
// usage — actually sees. Its rows land in BENCH_sweep.json next to the
// sweep scaling rows:
//
//	go test -run TestBenchJSON/cache . -bench-out DIR

// cacheBenchGrid fans one BA topology out to a 4 load × 2 tail workload
// grid. MeanSize scales with n so the flow population stays small and
// the workload stage stays cheap relative to the topology stage — the
// regime the cache is for (many variants, one expensive map).
func cacheBenchGrid(n int) sweep.Grid {
	return sweep.Grid{
		Models:      []string{"ba"},
		Sizes:       []int{n},
		Seeds:       []uint64{1},
		PathSources: 100,
		Workload: &sweep.WorkloadAxes{
			Spec:        traffic.WorkloadSpec{Epochs: 3, MeanSize: 4 * float64(n)},
			LoadFactors: []float64{0.3, 0.6, 0.9, 1.2},
			TailIndexes: []float64{1.3, 2.5},
		},
	}
}

// cacheScenario times the workload grid three ways — cold with the
// cache disabled, a priming pass that fills a fresh unbounded cache,
// and a warm pass served from it — and asserts all three summaries are
// byte-identical and every cache stage hit (the artifact-cache
// contract at benchmark scale).
func cacheScenario(t *testing.T, sz benchSize) []benchutil.Row {
	var rows []benchutil.Row
	for _, n := range sz.Ns {
		g := cacheBenchGrid(n)
		run := func(ac *artifact.Cache) (*sweep.Summary, time.Duration, uint64, uint64) {
			var s *sweep.Summary
			var err error
			elapsed, allocs, bytes := benchutil.Timed(func() {
				s, err = sweep.RunWith(g, sweep.Options{Workers: 1, Cache: ac})
			})
			if err != nil {
				t.Fatal(err)
			}
			return s, elapsed, allocs, bytes
		}
		cold, coldTime, coldAllocs, coldBytes := run(nil)
		ac := core.NewArtifactCache(-1)
		primed, _, _, _ := run(ac)
		want := encodeSweep(t, cold)
		if !bytes.Equal(want, encodeSweep(t, primed)) {
			t.Fatalf("n=%d: priming pass diverged from cache-disabled baseline", n)
		}
		// The warm pass is short enough that a stray GC or scheduler
		// hiccup can halve the measured ratio, so time it best-of-3 —
		// every repetition replays identical work from identical streams
		// and must keep reproducing the baseline bytes.
		var warm *sweep.Summary
		var warmTime time.Duration
		var warmAllocs, warmBytes uint64
		for rep := 0; rep < 3; rep++ {
			s, elapsed, al, by := run(ac)
			if rep == 0 || elapsed < warmTime {
				warm, warmTime, warmAllocs, warmBytes = s, elapsed, al, by
			}
			if !bytes.Equal(want, encodeSweep(t, s)) {
				t.Fatalf("n=%d: warm pass %d diverged from cache-disabled baseline", n, rep)
			}
		}
		for _, stage := range ac.Stats().Stages {
			if stage.Hits == 0 {
				t.Fatalf("n=%d: stage %s never hit across the warm pass", n, stage.Stage)
			}
		}
		speedup := float64(coldTime) / float64(warmTime)
		row := benchutil.Row{Models: fmt.Sprintf("%v", g.Models), N: n, Seeds: len(g.Seeds), Cells: len(cold.Cells)}
		warmRow := row.As("sweep-cache-warm", 1, warmTime).WithAllocs(float64(warmAllocs), float64(warmBytes))
		warmRow.Cells, warmRow.Speedup = len(warm.Cells), speedup
		rows = append(rows, row.As("sweep-cache-cold", 1, coldTime).WithAllocs(float64(coldAllocs), float64(coldBytes)), warmRow)
		t.Logf("n=%d cells=%d: cold %v, warm %v, speedup %.2fx", n, len(cold.Cells), coldTime, warmTime, speedup)
	}
	return rows
}

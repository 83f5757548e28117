package netmodel

import (
	"testing"

	"netmodel/internal/benchutil"
)

// benchSize is one scale of a BENCH scenario: the map sizes it runs
// (one row set each) and the knobs its rows record.
type benchSize struct {
	Ns                   []int
	Seeds, Flows, Epochs int
}

// benchScenarios is the scenario table behind the root BENCH_*.json
// files. Each scenario runs at its smoke size under go test -short and
// at its acceptance size otherwise, asserts its equivalence contract
// and returns its rows; scenarios sharing a file are written together,
// so a -run filter naming one scenario rewrites its file with only
// that scenario's rows.
// The kernel rows (BENCH_kernels.json) live in internal/traffic, whose
// engine seams they need:
//
//	make bench-json    # acceptance scale, every file into the repo root
//	go test -short -run TestBenchJSON . ./internal/traffic/ -bench-out DIR
var benchScenarios = []struct {
	name, file        string
	smoke, acceptance benchSize
	run               func(*testing.T, benchSize) []benchutil.Row
}{
	{"sweep", "BENCH_sweep.json",
		benchSize{Ns: []int{800}, Seeds: 2}, benchSize{Ns: []int{2000}, Seeds: 4}, sweepScenario},
	{"cache", "BENCH_sweep.json",
		benchSize{Ns: []int{2000}}, benchSize{Ns: []int{10000, 100000}}, cacheScenario},
	{"traffic", "BENCH_traffic.json",
		benchSize{Ns: []int{2000}, Flows: 100, Epochs: 5},
		benchSize{Ns: []int{10000, 100000}, Flows: 4000, Epochs: 10}, trafficScenario},
	{"trajectory", "BENCH_trajectory.json",
		benchSize{Ns: []int{10000}, Epochs: 20}, benchSize{Ns: []int{100000}, Epochs: 100}, trajectoryScenario},
	{"failures", "BENCH_failures.json",
		benchSize{Ns: []int{10000}, Epochs: 10}, benchSize{Ns: []int{100000}, Epochs: 40}, failuresScenario},
}

// TestBenchJSON runs the scenario table and writes one BENCH file per
// scenario group into the -bench-out directory; skipped without it.
func TestBenchJSON(t *testing.T) {
	dir := benchutil.OutDir(t)
	var files []string
	rows := map[string][]benchutil.Row{}
	for _, sc := range benchScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run(t, benchutil.Scale(sc.smoke, sc.acceptance))
			if _, ok := rows[sc.file]; !ok {
				files = append(files, sc.file)
			}
			rows[sc.file] = append(rows[sc.file], got...)
		})
	}
	if t.Failed() {
		return
	}
	for _, file := range files {
		if err := benchutil.WriteRows(dir, file, rows[file]); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows[file]), file)
	}
}

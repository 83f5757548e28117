package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the bench's own child process,
// so the protocol tests below spawn real children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testSeed = 2

func runOutput(t *testing.T, w *workload) (out, replayable []byte) {
	t.Helper()
	j, err := w.prepare(testSeed, w.smoke)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	write, err := j.run(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if write == nil {
		return buf.Bytes(), buf.Bytes()
	}
	var cells bytes.Buffer
	if err := write(&cells); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cells.Bytes()
}

// Each in-process workload writes exactly what its CLI prints (standard
// output, then standard error).
func TestOutputsMatchCLIs(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"netmodel/cmd/toposweep", "netmodel/cmd/topogen", "netmodel/cmd/topoload")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			argv := w.cli(testSeed, w.smoke)
			cmd := exec.Command(filepath.Join(dir, argv[0]), argv[1:]...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", strings.Join(argv, " "), err, stderr.Bytes())
			}
			want := append(stdout.Bytes(), stderr.Bytes()...)
			got, _ := runOutput(t, w)
			if !bytes.Equal(got, want) {
				t.Fatalf("in-process output (%d bytes) differs from %s (%d bytes)", len(got), argv[0], len(want))
			}
		})
	}
}

// The traced replay reproduces the untraced run's per-cell results (the
// edge list and trajectory for growth-paths), and yields every per-layer
// metric.
func TestReplayReproducesRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, want := runOutput(t, w)
			j, err := w.prepare(testSeed, w.smoke)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder("test")
			root := rec.begin("bench.replay", "")
			var got bytes.Buffer
			st, err := j.replay(rec, &got)
			rec.end(root)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("replay output (%d bytes) differs from the untraced run (%d bytes)", got.Len(), len(want))
			}
			layers, _ := replayLayers(rec.spans, st, int64(got.Len()))
			r := workloadResult{Traced: &sample{childResult: childResult{Layers: layers}}}
			var names []string
			for name := range r.layers() {
				names = append(names, name)
			}
			var defs []string
			for _, m := range perLayer {
				defs = append(defs, m.name)
			}
			sort.Strings(names)
			sort.Strings(defs)
			if !reflect.DeepEqual(names, defs) {
				t.Fatalf("layer metrics %v\nwant the perLayer names %v", names, defs)
			}
		})
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent, so overlapping children from a parallel pool count once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100, AllocBytes: 1000},
		{ID: 1, Parent: 0, Name: "work", Label: "a", StartNS: 10, EndNS: 40, AllocBytes: 300},
		{ID: 2, Parent: 0, Name: "work", Label: "b", StartNS: 30, EndNS: 60, AllocBytes: 200},
		{ID: 3, Parent: 1, Name: "leaf", StartNS: 35, EndNS: 45, AllocBytes: 100},
		{ID: 4, Parent: 0, Name: "late", StartNS: 90, EndNS: 120},
	}
	// root: 100 - [10,60] - [90,100]; work a: 30 - [35,40] (the leaf
	// runs past it); leaf, work b and late have no children.
	if got, want := selfTimes(spans), []int64{40, 25, 30, 10, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	selfS, allocB := layerTotals(spans, selfTimes(spans))
	if got, want := selfS["work"], 55e-9; math.Abs(got-want) > 1e-18 {
		t.Errorf("work self = %v s, want %v", got, want)
	}
	if got, want := selfS["work.b"], 30e-9; math.Abs(got-want) > 1e-18 {
		t.Errorf("work.b self = %v s, want %v", got, want)
	}
	if got, want := allocB["root"], int64(500); got != want {
		t.Errorf("root self alloc = %d, want %d", got, want)
	}
	if got, want := allocB["work.a"], int64(200); got != want {
		t.Errorf("work.a self alloc = %d, want %d", got, want)
	}
}

// quartiles matches Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{1.5, 2.5, 2, 8}, 1.625, 6.625},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	set := func(walls ...float64) *workloadResult {
		r := &workloadResult{}
		for _, w := range walls {
			r.Runs = append(r.Runs, sample{ProbeS: probeRefS, childResult: childResult{WallS: w}, OK: true})
		}
		return r
	}
	wall := endToEnd[0]
	base := set(10, 10.1, 10.2, 9.9, 10)
	for _, c := range []struct {
		b       *workloadResult
		verdict string
	}{
		{set(10.3, 10.4, 10.2, 10.3, 10.4), "within"},
		{set(13.1, 13, 13.1, 13.2, 13.1), "worse"},
		{set(7.1, 7.2, 7.1, 7, 7.1), "better"},
		{set(8, 12, 10, 14, 6), "unresolved"},
	} {
		if _, v := judge(wall, base, c.b); v != c.verdict {
			t.Errorf("judge(%v) = %s, want %s", c.b.samples("wall_s"), v, c.verdict)
		}
	}
	// A run that met a host at half the reference speed counts half its
	// wall time.
	slow := set(20)
	slow.Runs[0].ProbeS = 2 * probeRefS
	if got := slow.value("wall_s"); got != 10 {
		t.Errorf("wall_s at half speed = %v, want 10", got)
	}
	okFrac := endToEnd[len(endToEnd)-1]
	failing := set(10, 10)
	failing.Runs[1].OK = false
	if _, v := judge(okFrac, base, failing); v != "worse" {
		t.Errorf("a failed run: ok_frac verdict %s, want worse", v)
	}
}

// The protocol line carries exactly the end-to-end metrics, or with
// -trace 1 exactly the per-layer ones, from real child processes.
func TestProtocolLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		args := normalizeArgs([]string{"--workload", "load-dense", "--seed", "5", "--seconds", "1",
			"--trace", trace, "-smoke", "-outdir", t.TempDir()})
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, out.Bytes())
		}
		var line struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]metricValue
		}
		if err := json.Unmarshal(lastLine(out.Bytes()), &line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < minReps*(1+probesPerRep) || len(line.Metrics) != len(defs) {
			t.Fatalf("trace %s: %s", trace, out.Bytes())
		}
		for _, m := range defs {
			if v, ok := line.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.name, v, m.unit)
			}
		}
	}
}

// BENCHMARK.json describes the same workloads and metrics as the code,
// and golden.json has a digest for every workload.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
		if gf.SHA256[w.name] == "" {
			t.Errorf("golden.json has no digest for %s", w.name)
		}
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the code has %d", len(c.json), len(c.code))
		}
		for i, m := range c.code {
			if want := (metric{m.name, m.unit, m.better, m.bound}); c.json[i] != want {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, c.json[i], want)
			}
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--trace", "1", "-seed", "3", "-trace", "x", "-trace", "0"})
	want := []string{"-trace=1", "-seed", "3", "-trace", "x", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeArgs = %v, want %v", got, want)
	}
}

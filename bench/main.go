// Command bench measures netmodel's user-facing run shapes end to end:
// four workloads, each the library calls one CLI invocation makes, run
// in fresh child processes and checked against golden output digests.
// An optional traced replay of each workload breaks its time and heap
// allocations down by layer. See README.md for the workloads, metrics and
// bounds.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-seed S] [-reps 5] [-trace]      # a full set
//	bash bench/run.sh -compare a.json b.json            # two sets' medians
//	bash bench/run.sh -workload W -seed S -seconds T -trace 0|1
//
// The last form measures one workload for T seconds and prints one JSON
// line: the end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(normalizeArgs(os.Args[1:]), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeArgs joins "-trace 0" and "-trace 1" (either dash form) into
// one argument: the benchmark protocol passes the value separately,
// which a boolean flag would not consume.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if a := args[i]; (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed; the inputs are a pure function of it")
	reps := fs.Int("reps", 5, "repetitions per workload in a full set")
	seconds := fs.Int("seconds", 0, "measure -workload for this many seconds (at least 3 repetitions) and print one JSON line")
	only := fs.String("workload", "", "run only this workload")
	trace := fs.Bool("trace", false, "add one traced replay per workload and report per-layer metrics")
	smoke := fs.Bool("smoke", false, "use the small sizes the tests run")
	outdir := fs.String("outdir", filepath.Join("bench", "out"), "directory for result and trace files")
	cmp := fs.Bool("compare", false, "compare two result files given as arguments")
	child := fs.String("child", "", "internal: run as a measured child in this role (setup, run, replay)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err == nil && worse > 0 {
			err = fmt.Errorf("%d metric(s) worse than their bound", worse)
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	ws := workloads
	if *only != "" {
		w, err := lookupWorkload(*only)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if *child != "" {
		if len(ws) != 1 {
			return errors.New("-child needs -workload")
		}
		return childMain(*child, ws[0], *seed, *smoke, *outdir, stdout)
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	p := plan{workloads: ws, seed: *seed, smoke: *smoke, trace: *trace, reps: *reps, outdir: *outdir}
	if *seconds > 0 {
		if len(ws) != 1 {
			return errors.New("-seconds needs -workload")
		}
		p.reps, p.budget = minReps, time.Duration(*seconds)*time.Second
		res, err := p.execute(bin, stderr)
		if err != nil {
			return err
		}
		return printLine(stdout, res[0], *trace)
	}
	if *reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	started := time.Now().UTC()
	res, err := p.execute(bin, stderr)
	if err != nil {
		return err
	}
	rf := resultFile{Env: envInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: childProcs, GoVersion: runtime.Version(), CPUModel: cpuModel(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Seed: *seed, Reps: *reps, Smoke: *smoke, Trace: *trace,
		Started: started.Format(time.RFC3339),
	}, Workloads: res}
	printSet(stdout, &rf)
	path := filepath.Join(*outdir, "result-"+started.Format("20060102-150405")+".json")
	if err := writeJSON(path, &rf); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nresult file:", path)
	failed := 0
	for _, r := range res {
		_, f := r.counts()
		failed += f
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLine prints one workload's result as the single JSON line of the
// benchmark protocol, and fails when any child failed.
func printLine(w io.Writer, r *workloadResult, trace bool) error {
	attempted, failed := r.counts()
	metrics := make(map[string]metricValue)
	if trace {
		layers := r.layers()
		for _, m := range perLayer {
			metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{r.value(m.name), m.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, attempted)
	}
	return nil
}

// printSet prints every end-to-end metric of every workload as median,
// min and max over its samples, then the traced replays' per-layer
// metrics and self time by span.
func printSet(w io.Writer, rf *resultFile) {
	e := rf.Env
	fmt.Fprintf(w, "seed %d, %d reps, children at GOMAXPROCS=%d; nproc %d, %s, %s\n",
		e.Seed, e.Reps, e.GOMAXPROCS, e.Nproc, e.GoVersion, e.CPUModel)
	for _, r := range rf.Workloads {
		fmt.Fprintf(w, "\n%s: %s\n", r.Name, r.CLI)
		fmt.Fprintf(w, "  %-12s %-9s %10s %10s %10s %4s\n", "metric", "unit", "median", "min", "max", "n")
		row := func(name, unit string, value float64, xs []float64) {
			lo, hi := minMax(xs)
			fmt.Fprintf(w, "  %-12s %-9s %10.4g %10.4g %10.4g %4d\n", name, unit, value, lo, hi, len(xs))
		}
		for _, m := range endToEnd {
			row(m.name, m.unit, r.value(m.name), r.samples(m.name))
		}
		// The unnormalized wall time and the probe it was scaled by.
		var wall, probe []float64
		for _, s := range r.Runs {
			if s.OK {
				wall, probe = append(wall, s.WallS), append(probe, s.ProbeS)
			}
		}
		row("raw wall_s", "s", median(wall), wall)
		row("probe_s", "s", median(probe), probe)
	}
	if !e.Trace {
		return
	}
	fmt.Fprintf(w, "\nper-layer metrics\n%-34s %-6s", "metric", "unit")
	layers := make([]map[string]float64, len(rf.Workloads))
	for i, r := range rf.Workloads {
		layers[i] = r.layers()
		fmt.Fprintf(w, " %13s", r.Name)
	}
	fmt.Fprintln(w)
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-34s %-6s", m.name, m.unit)
		for i := range rf.Workloads {
			fmt.Fprintf(w, " %13.4g", layers[i][m.name])
		}
		fmt.Fprintln(w)
	}
	for _, r := range rf.Workloads {
		if r.Traced == nil || r.Traced.SelfS == nil {
			continue
		}
		wall := r.Traced.Layers["bench.traced_wall_s"]
		fmt.Fprintf(w, "\n%s: self time by span (traced wall %.3f s)\n", r.Name, wall)
		names := make([]string, 0, len(r.Traced.SelfS))
		for name := range r.Traced.SelfS {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		for _, name := range names {
			s := r.Traced.SelfS[name]
			fmt.Fprintf(w, "  %-32s %9.3f s %6.1f%%\n", name, s, 100*ratio(s, wall))
		}
	}
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// childProcs is GOMAXPROCS of every measured child: the core count the
	// workloads were sized on, and the widest pool any of them uses.
	childProcs = 2
	// minReps is the fewest repetitions a timed run (-seconds) makes.
	minReps = 3
	// probesPerRep is how many extra children only set up before each
	// repetition, so that setup_s is a median over many samples taken
	// across the whole run.
	probesPerRep = 3
)

// golden.json holds the sha256 of each workload's output at its full size
// and the golden seed, captured from the real CLIs.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

// childResult is the last line a measured child prints.
type childResult struct {
	// WallS and CPUS are as measured; the wall_s and cpu_s metrics scale
	// them to the reference host speed.
	WallS     float64 `json:"raw_wall_s,omitempty"`
	CPUS      float64 `json:"raw_cpu_s,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	AllocMB   float64 `json:"alloc_mb,omitempty"`
	AllocsM   float64 `json:"allocs_m,omitempty"`
	GCCPUS    float64 `json:"gc_cpu_s,omitempty"`
	GCCycles  float64 `json:"gc_cycles,omitempty"`
	// OutputSHA digests the CLI-equivalent output; ReplaySHA digests the
	// part of it the traced replay reproduces.
	OutputSHA string `json:"output_sha256,omitempty"`
	ReplaySHA string `json:"replay_sha256,omitempty"`
	// Layers and SelfS come from a traced replay: its per-layer metrics,
	// and self seconds by span name (and name.label).
	Layers map[string]float64 `json:"layers,omitempty"`
	SelfS  map[string]float64 `json:"self_s,omitempty"`
}

// sample is one child run as its parent saw it.
type sample struct {
	SetupS float64 `json:"raw_setup_s"`
	// ProbeS is the mean of the host probe's times just before and just
	// after a run or replay child. The setup probes of a repetition take
	// its run's.
	ProbeS float64 `json:"probe_s,omitempty"`
	childResult
	OK  bool   `json:"ok"`
	Err string `json:"error,omitempty"`
}

// atRefSpeed scales a time the child measured to the host speed of
// probeRefS.
func (s *sample) atRefSpeed(seconds float64) float64 {
	return seconds * ratio(probeRefS, s.ProbeS)
}

// digest hashes a workload's output and counts its bytes.
type digest struct {
	h hash.Hash
	n int64
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// childMain is a measured child: prepare the inputs, tell the parent it
// is ready, then set up only, run the timed region, or replay traced.
func childMain(role string, w *workload, seed uint64, smoke bool, outdir string, stdout io.Writer) error {
	j, err := w.prepare(seed, w.scale(smoke))
	if err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, "ready\n"); err != nil {
		return err
	}
	var res childResult
	switch role {
	case "setup":
		return nil
	case "run":
		res, err = timedRun(j)
	case "replay":
		res, err = tracedReplay(j, w.name, seed, outdir)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

func timedRun(j job) (childResult, error) {
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var ms0, ms1 runtime.MemStats
	rtmetrics.Read(gc)
	gcCPU0, gcN0 := gc[0].Value.Float64(), gc[1].Value.Uint64()
	runtime.ReadMemStats(&ms0)
	cpu0, _, err := rusage()
	if err != nil {
		return childResult{}, err
	}
	t0 := time.Now()

	out := newDigest()
	replayable, err := j.run(out)

	wall := time.Since(t0)
	cpu1, rss, rerr := rusage()
	runtime.ReadMemStats(&ms1)
	rtmetrics.Read(gc)
	if err != nil {
		return childResult{}, err
	}
	if rerr != nil {
		return childResult{}, rerr
	}
	res := childResult{
		WallS:     wall.Seconds(),
		CPUS:      cpu1 - cpu0,
		PeakRSSMB: rss,
		AllocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		AllocsM:   float64(ms1.Mallocs-ms0.Mallocs) / 1e6,
		GCCPUS:    gc[0].Value.Float64() - gcCPU0,
		GCCycles:  float64(gc[1].Value.Uint64() - gcN0),
		OutputSHA: out.sum(),
	}
	res.ReplaySHA = res.OutputSHA
	if replayable != nil {
		d := newDigest()
		if err := replayable(d); err != nil {
			return childResult{}, err
		}
		res.ReplaySHA = d.sum()
	}
	return res, nil
}

// rusage returns the process's user+system CPU seconds and its peak
// resident set in MB (Linux reports ru_maxrss in KiB).
func rusage() (cpuS, peakRSSMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6, nil
}

func tracedReplay(j job, name string, seed uint64, outdir string) (childResult, error) {
	rec := newRecorder(fmt.Sprintf("%s/seed=%d", name, seed))
	root := rec.begin("bench.replay", "")
	out := newDigest()
	st, err := j.replay(rec, out)
	rec.end(root)
	if err != nil {
		return childResult{}, err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return childResult{}, err
	}
	if err := writeSpans(filepath.Join(outdir, "trace-"+name+".jsonl"), rec.spans); err != nil {
		return childResult{}, err
	}
	layers, selfS := replayLayers(rec.spans, st, out.n)
	return childResult{ReplaySHA: out.sum(), Layers: layers, SelfS: selfS}, nil
}

// spawn runs one child to completion, one at a time, and returns what
// it reported. setup_s runs from just before the child starts to its
// ready line.
func spawn(bin, role string, w *workload, seed uint64, smoke bool, outdir string) sample {
	args := []string{"-child", role, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-outdir", outdir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return sample{Err: err.Error()}
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return sample{Err: err.Error()}
	}
	br := bufio.NewReader(pipe)
	ready, rerr := br.ReadString('\n')
	s := sample{SetupS: time.Since(start).Seconds()}
	rest, _ := io.ReadAll(br)
	werr := cmd.Wait()
	switch {
	case werr != nil:
		s.Err = fmt.Sprintf("%s child: %v", role, werr)
	case rerr != nil || ready != "ready\n":
		s.Err = fmt.Sprintf("%s child sent no ready line", role)
	case role != "setup":
		if err := json.Unmarshal(lastLine(rest), &s.childResult); err != nil {
			s.Err = fmt.Sprintf("%s child result: %v", role, err)
		}
	}
	return s
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// plan is a set of runs: repetitions round-robin over the workloads,
// each after its setup probes, then one traced replay per workload.
type plan struct {
	workloads    []*workload
	seed         uint64
	smoke, trace bool
	reps         int           // repetitions per workload, at least
	budget       time.Duration // keep adding rounds until this much time has passed
	outdir       string
}

// workloadResult holds every sample one workload produced in a set.
type workloadResult struct {
	Name   string   `json:"name"`
	CLI    string   `json:"cli"`
	Probes []sample `json:"setup_probes"`
	Runs   []sample `json:"runs"`
	Traced *sample  `json:"traced,omitempty"`
}

func (p plan) execute(bin string, progress io.Writer) ([]*workloadResult, error) {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	res := make([]*workloadResult, len(p.workloads))
	for i, w := range p.workloads {
		res[i] = &workloadResult{Name: w.name, CLI: strings.Join(w.cli(p.seed, w.scale(p.smoke)), " ")}
	}
	hp := newHostProbe()
	probed := func(role string, w *workload) sample {
		before := hp.time()
		s := spawn(bin, role, w, p.seed, p.smoke, p.outdir)
		s.ProbeS = (before + hp.time()) / 2
		return s
	}
	// Round-robin, so noise on a shared host spreads over every workload
	// rather than hitting one workload's repetitions.
	start := time.Now()
	for rep := 1; rep <= p.reps || time.Since(start) < p.budget; rep++ {
		for i, w := range p.workloads {
			setups := make([]sample, probesPerRep)
			for k := range setups {
				setups[k] = spawn(bin, "setup", w, p.seed, p.smoke, p.outdir)
			}
			s := probed("run", w)
			for k := range setups {
				setups[k].ProbeS = s.ProbeS
			}
			res[i].Probes = append(res[i].Probes, setups...)
			res[i].Runs = append(res[i].Runs, s)
			fmt.Fprintf(progress, "%-13s rep %2d  wall %7.3f s  probe %.4f s  %s\n", w.name, rep, s.WallS, s.ProbeS, s.Err)
		}
	}
	if p.trace {
		for i, w := range p.workloads {
			s := probed("replay", w)
			res[i].Traced = &s
			fmt.Fprintf(progress, "%-13s traced replay  %s\n", w.name, s.Err)
		}
	}
	for _, r := range res {
		want := ""
		if p.seed == gf.Seed && !p.smoke {
			if want = gf.SHA256[r.Name]; want == "" {
				return nil, fmt.Errorf("golden.json has no digest for %s", r.Name)
			}
		}
		r.check(want)
	}
	return res, nil
}

// check marks each sample ok or failed. A run must match want (the golden
// digest) or, when want is empty, the first run that finished; the traced
// replay must reproduce that run's per-cell results.
func (r *workloadResult) check(want string) {
	for i := range r.Probes {
		r.Probes[i].OK = r.Probes[i].Err == ""
	}
	ref, replayRef := want, ""
	mismatch := "output differs from golden.json"
	if want == "" {
		mismatch = "output differs from the first run"
	}
	for i := range r.Runs {
		s := &r.Runs[i]
		if s.Err != "" {
			continue
		}
		if ref == "" {
			ref = s.OutputSHA
		}
		if replayRef == "" && s.OutputSHA == ref {
			replayRef = s.ReplaySHA
		}
		if s.OK = s.OutputSHA == ref && s.ReplaySHA == replayRef; !s.OK {
			s.Err = mismatch
		}
	}
	if t := r.Traced; t != nil && t.Err == "" {
		if t.OK = replayRef != "" && t.ReplaySHA == replayRef; !t.OK {
			t.Err = "replay output differs from the untraced runs"
		}
	}
}

// samples returns one value per run of an end-to-end metric: successful
// runs only, except ok_frac (1 or 0 for every run); setup_s includes the
// setup probes.
func (r *workloadResult) samples(metric string) []float64 {
	var xs []float64
	if metric == "setup_s" {
		for _, s := range r.Probes {
			if s.OK {
				xs = append(xs, s.atRefSpeed(s.SetupS))
			}
		}
	}
	for _, s := range r.Runs {
		if metric == "ok_frac" {
			xs = append(xs, float64(boolInt(s.OK)))
			continue
		}
		if !s.OK {
			continue
		}
		switch metric {
		case "wall_s":
			xs = append(xs, s.atRefSpeed(s.WallS))
		case "cpu_s":
			xs = append(xs, s.atRefSpeed(s.CPUS))
		case "peak_rss_mb":
			xs = append(xs, s.PeakRSSMB)
		case "alloc_mb":
			xs = append(xs, s.AllocMB)
		case "allocs_m":
			xs = append(xs, s.AllocsM)
		case "setup_s":
			xs = append(xs, s.atRefSpeed(s.SetupS))
		}
	}
	return xs
}

// value is the reported value of an end-to-end metric: the median of its
// samples, or for ok_frac their mean.
func (r *workloadResult) value(metric string) float64 {
	xs := r.samples(metric)
	if metric == "ok_frac" {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	return median(xs)
}

// layers returns the per-layer metrics: the traced replay's, plus those
// taken from the untraced runs.
func (r *workloadResult) layers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	if r.Traced != nil {
		for k, v := range r.Traced.Layers {
			m[k] = v
		}
	}
	var busy, gcCPU, gcN []float64
	for _, s := range r.Runs {
		if s.OK {
			busy = append(busy, ratio(s.CPUS, s.WallS))
			gcCPU = append(gcCPU, s.GCCPUS)
			gcN = append(gcN, s.GCCycles)
		}
	}
	m["par.busy_cores"] = median(busy)
	m["runtime.gc_cpu_s"] = median(gcCPU)
	m["runtime.gc_cycles"] = median(gcN)
	traced := 0.0
	if r.Traced != nil {
		traced = r.Traced.atRefSpeed(m["bench.traced_wall_s"])
	}
	m["bench.trace_overhead_frac"] = ratio(traced, r.value("wall_s")) - 1
	return m
}

// counts returns how many children ran and how many of them failed.
func (r *workloadResult) counts() (attempted, failed int) {
	all := append(append([]sample(nil), r.Probes...), r.Runs...)
	if r.Traced != nil {
		all = append(all, *r.Traced)
	}
	for _, s := range all {
		attempted++
		if !s.OK {
			failed++
		}
	}
	return attempted, failed
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

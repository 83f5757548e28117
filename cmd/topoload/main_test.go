package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadDefaultsRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "ba", "-n", "200", "-seeds", "1,2",
		"-load", "0.4,1.2", "-tail", "1.3", "-epochs", "5", "-path-sources", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "1 models × 1 sizes × 2 workloads × 2 seeds = 4 cells") {
		t.Fatalf("missing grid banner:\n%s", s)
	}
	if !strings.Contains(s, "cross-seed workload aggregates") {
		t.Fatalf("missing workload aggregates:\n%s", s)
	}
}

func TestLoadCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "ba", "-n", "200", "-seeds", "1,2",
		"-load", "0.5", "-epochs", "4", "-path-sources", "20", "-format", "csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "model,n,seed,load_factor,tail_index,failure,arrived,") {
		t.Fatalf("missing CSV header:\n%s", s)
	}
	for _, label := range []string{"mean", "std", "min", "max"} {
		if !strings.Contains(s, "ba,200,"+label+",") {
			t.Fatalf("missing %s aggregate row:\n%s", label, s)
		}
	}
}

func TestLoadJSONOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.json")
	var out bytes.Buffer
	err := run([]string{"-model", "ba", "-n", "200", "-seeds", "3", "-load", "0.5",
		"-epochs", "4", "-path-sources", "20", "-format", "json", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"workload"`, `"util_ccdf"`, `"load_factors"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("JSON missing %s:\n%.400s", key, data)
		}
	}
	if out.Len() != 0 {
		t.Fatal("-o must redirect output away from stdout")
	}
}

func TestLoadRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad load":     {"-load", "x"},
		"no load":      {"-load", ""},
		"bad tail":     {"-tail", "y"},
		"bad seeds":    {"-seeds", "-2"},
		"bad arrivals": {"-arrivals", "burst", "-n", "100", "-epochs", "2"},
		"bad engine":   {"-engine", "quantum", "-n", "100", "-epochs", "2"},
		"bad format":   {"-n", "100", "-epochs", "2", "-format", "yaml"},
		"bad model":    {"-model", "nope", "-n", "100", "-epochs", "2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

// TestLoadWorkerInvariance pins the acceptance criterion: the summary
// of a load factor × tail index grid is byte-identical for every cell
// pool width.
func TestLoadWorkerInvariance(t *testing.T) {
	args := []string{"-model", "ba", "-n", "250", "-seeds", "1,2,3",
		"-load", "0.3,1.5", "-tail", "1.3,2.5", "-epochs", "6",
		"-path-sources", "20", "-format", "csv"}
	var base string
	for _, workers := range []string{"1", "2", "4", "8"} {
		var out bytes.Buffer
		if err := run(append([]string{"-workers", workers}, args...), &out); err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = out.String()
		} else if out.String() != base {
			t.Fatalf("-workers %s output diverged from -workers 1", workers)
		}
	}
	if base == "" || !strings.Contains(base, "wl_mean_fct") {
		t.Fatalf("workload CSV missing scalar columns:\n%.300s", base)
	}
}

// TestLoadEngineInvariance pins the event engine end to end: the same
// grid run with -engine event is byte-identical at every cell pool
// width, and its per-cell counts match the epoch engine. (cell-workers
// is not an invariance axis: >= 2 switches to the sharded generation
// kernels, which produce different maps by design.)
func TestLoadEngineInvariance(t *testing.T) {
	args := []string{"-model", "ba", "-n", "250", "-seeds", "1,2",
		"-load", "0.4,1.2", "-epochs", "6", "-path-sources", "20", "-format", "csv"}
	var epochOut, base string
	{
		var out bytes.Buffer
		if err := run(append([]string{"-engine", "epoch"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		epochOut = out.String()
	}
	for _, w := range []string{"1", "2", "4"} {
		var out bytes.Buffer
		if err := run(append([]string{"-engine", "event", "-workers", w}, args...), &out); err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = out.String()
		} else if out.String() != base {
			t.Fatalf("-engine event -workers %s output diverged", w)
		}
	}
	// Engines draw identical flows: the integer columns (arrived,
	// undelivered, completed, residual counts) agree row by row.
	epRows, evRows := strings.Split(epochOut, "\n"), strings.Split(base, "\n")
	if len(epRows) != len(evRows) {
		t.Fatalf("row counts diverged: %d vs %d", len(epRows), len(evRows))
	}
	for i := range epRows {
		epF, evF := strings.Split(epRows[i], ","), strings.Split(evRows[i], ",")
		if len(epF) < 7 || len(evF) < 7 {
			continue
		}
		// Columns 6..9 are arrived, completed, undelivered, residual_flows.
		for c := 6; c <= 9 && c < len(epF); c++ {
			if epF[c] != evF[c] {
				t.Fatalf("row %d column %d diverged between engines:\nepoch: %s\nevent: %s",
					i, c, epRows[i], evRows[i])
			}
		}
	}
}

// TestLoadFailureAxis runs the -failures axis end to end: scenario
// labels appear as cell coordinates, survivability columns fill in for
// the outage scenarios, and the whole grid stays byte-identical across
// worker counts.
func TestLoadFailureAxis(t *testing.T) {
	args := []string{"-model", "ba", "-n", "200", "-seeds", "1,2", "-load", "0.6",
		"-epochs", "8", "-path-sources", "20", "-format", "csv",
		"-failures", "none,random,degree", "-fail-links", "3", "-mtbf", "5", "-mttr", "2",
		"-fail-at", "3", "-repair-at", "6", "-fail-retries", "1"}
	var base string
	for _, w := range []string{"1", "2", "4"} {
		var out bytes.Buffer
		if err := run(append([]string{"-workers", w}, args...), &out); err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = out.String()
		} else if out.String() != base {
			t.Fatalf("-workers %s failure sweep diverged", w)
		}
	}
	// Labels with commas come back CSV-quoted.
	for _, label := range []string{",none,", `,"random:l3,n0,mtbf5,mttr2",`, `,"degree:l3,n0@3",`} {
		if !strings.Contains(base, label) {
			t.Fatalf("missing failure scenario %q:\n%.400s", label, base)
		}
	}
}

// TestLoadRejectsBadFailureFlags pins the -failures validation
// surface: unknown scenarios and negative sub-flags fail as one-line
// flag errors before any simulation runs.
func TestLoadRejectsBadFailureFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown mode":    {"-failures", "meteor"},
		"scheduled flag":  {"-failures", "scheduled"},
		"negative links":  {"-failures", "random", "-fail-links", "-1"},
		"negative mtbf":   {"-failures", "random", "-mtbf", "-5"},
		"zero fail-at":    {"-failures", "degree", "-fail-at", "0"},
		"negative load":   {"-load", "-0.5"},
		"negative tail":   {"-tail", "-1.3"},
		"negative epochs": {"-epochs", "-4"},
		"zero n":          {"-n", "0"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-model", "ba", "-n", "150", "-epochs", "3"}, args...), &out)
		if err == nil {
			t.Fatalf("%s: want error", name)
		}
		if msg := err.Error(); strings.ContainsRune(msg, '\n') {
			t.Fatalf("%s: error not one-line: %q", name, msg)
		}
	}
}

// TestRejectsPositionalArgument: topoload runs generated models and
// reads no map file, so a command line naming one fails with an error
// naming the word instead of running a model and ignoring the file.
func TestRejectsPositionalArgument(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-measure-every", "1000", "-paths", "map.txt"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "map.txt"`) {
		t.Fatalf("err = %v, want an unexpected-argument error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected command line still wrote output:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSweepFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-models", "ba,glp", "-sizes", "200", "-seeds", "1,2",
		"-path-sources", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "2 models × 1 sizes × 2 seeds = 4 cells") {
		t.Fatalf("missing grid banner:\n%s", s)
	}
	if !strings.Contains(s, "cross-seed score at n=200") || !strings.Contains(s, " 1. ") {
		t.Fatalf("missing ranking:\n%s", s)
	}
}

func TestSweepGridFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	spec := `{"models": ["ba"], "sizes": [200], "seeds": [1, 2],
		"params": {"ba": {"m": 1}}, "path_sources": 20}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-grid", path, "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "model,n,seed,score,") {
		t.Fatalf("missing CSV header:\n%s", s)
	}
	for _, label := range []string{"mean", "std", "min", "max"} {
		if !strings.Contains(s, "ba,200,"+label+",") {
			t.Fatalf("missing %s aggregate row:\n%s", label, s)
		}
	}
}

func TestSweepJSONOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	var out bytes.Buffer
	err := run([]string{"-models", "ba", "-sizes", "200", "-seeds", "3",
		"-path-sources", "20", "-format", "json", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"rankings"`) {
		t.Fatalf("JSON missing rankings:\n%s", data)
	}
	if out.Len() != 0 {
		t.Fatal("-o must redirect output away from stdout")
	}
}

// TestSweepWorkerInvariance: the CLI's output bytes must not depend on
// the pool width.
func TestSweepWorkerInvariance(t *testing.T) {
	args := []string{"-models", "ba,glp", "-sizes", "250", "-seeds", "1,2,3",
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
			t.Fatalf("-workers %s changed the output", workers)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("empty grid should fail")
	}
	if err := run([]string{"-models", "ba", "-sizes", "x", "-seeds", "1"}, &out); err == nil {
		t.Fatal("bad -sizes should fail")
	}
	if err := run([]string{"-models", "ba", "-sizes", "100", "-seeds", "-1"}, &out); err == nil {
		t.Fatal("bad -seeds should fail")
	}
	if err := run([]string{"-grid", "/no/such/grid.json"}, &out); err == nil {
		t.Fatal("missing grid file should fail")
	}
	if err := run([]string{"-grid", "x.json", "-models", "ba"}, &out); err == nil {
		t.Fatal("-grid plus axis flags should fail")
	}
	// Every sweep-shaping flag is rejected alongside -grid, not ignored.
	for _, extra := range [][]string{
		{"-target", "asplus"}, {"-path-sources", "10"},
		{"-cell-workers", "2"}, {"-measure-every", "100"},
	} {
		err := run(append([]string{"-grid", "x.json"}, extra...), &out)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Fatalf("-grid plus %s should fail naming the flag, got %v", extra[0], err)
		}
	}
	if err := run([]string{"-models", "ba", "-sizes", "100", "-seeds", "1",
		"-format", "nope"}, &out); err == nil {
		t.Fatal("unknown format should fail")
	}
}

// TestRejectsPositionalArgument: a stray word after the grid flags
// fails with an error naming it instead of being ignored.
func TestRejectsPositionalArgument(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-models", "ba", "-sizes", "200", "extra"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "extra"`) {
		t.Fatalf("err = %v, want an unexpected-argument error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected command line still wrote output:\n%s", out.String())
	}
}

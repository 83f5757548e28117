package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareModel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "300", "-path-sources", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "aggregate score") {
		t.Fatalf("missing report:\n%s", out.String())
	}
}

func TestCompareFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-file", path, "-target", "asplus", "-path-sources", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "AS+ extended map") {
		t.Fatalf("wrong target:\n%s", out.String())
	}
}

func TestCompareAllRanks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-all", "-n", "200", "-path-sources", "40"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "model ranking") || !strings.Contains(s, " 1. ") {
		t.Fatalf("missing ranking:\n%s", s)
	}
	// every registered model must appear
	for _, name := range []string{"glp", "waxman", "transitstub", "econ-dist"} {
		if !strings.Contains(s, name) {
			t.Fatalf("ranking missing %s:\n%s", name, s)
		}
	}
}

// TestCompareWorkersPlumbed: -workers must flow into the pipeline (and
// with workers=1 reproduce the sequential default exactly).
func TestCompareWorkersPlumbed(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "300", "-path-sources", "50"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "ba", "-n", "300", "-path-sources", "50",
		"-workers", "1"}, &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatal("-workers 1 must match the default run")
	}
	par.Reset()
	if err := run([]string{"-model", "ba", "-n", "300", "-path-sources", "50",
		"-workers", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(par.String(), "aggregate score") {
		t.Fatalf("sharded run missing report:\n%s", par.String())
	}
}

func TestCompareErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no mode should fail")
	}
	if err := run([]string{"-model", "ba", "-target", "x"}, &out); err == nil {
		t.Fatal("unknown target should fail")
	}
	if err := run([]string{"-file", "/no/such/file"}, &out); err == nil {
		t.Fatal("missing file should fail")
	}
	// An unknown model fails inside the run plan: one line naming it.
	err := run([]string{"-model", "nope", "-n", "100"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown model "nope"`) ||
		strings.Contains(err.Error(), "\n") {
		t.Fatalf("want a one-line error naming the model, got %v", err)
	}
}

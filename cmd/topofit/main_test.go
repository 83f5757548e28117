package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFitSmallRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-knob", "ba-attract", "-n", "400", "-grid", "3",
		"-refine", "2", "-path-sources", "50"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "best ba-attract") {
		t.Fatalf("missing result line:\n%s", s)
	}
	if !strings.Contains(s, "eval  1:") {
		t.Fatalf("missing evaluation trace:\n%s", s)
	}
}

// TestFitWorkersPlumbed: -workers must reach the sharded kernels
// without changing what the search reports.
func TestFitWorkersPlumbed(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-knob", "glp-beta", "-n", "400", "-grid", "3",
		"-refine", "2", "-path-sources", "50", "-workers", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "best glp-beta") {
		t.Fatalf("missing result line:\n%s", out.String())
	}
}

func TestFitUnknownKnob(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-knob", "nope"}, &out); err == nil {
		t.Fatal("unknown knob should fail")
	}
}

// TestRejectsPositionalArgument: a stray word after the knob flags
// fails with an error naming it instead of being ignored.
func TestRejectsPositionalArgument(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-knob", "ba-attract", "-n", "400", "extra"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "extra"`) {
		t.Fatalf("err = %v, want an unexpected-argument error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected command line still wrote output:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"glp", "waxman", "econ"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGenerateEdgeListToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "100", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "# netmodel edge list: nodes=100") {
		t.Fatalf("unexpected header: %q", out.String()[:40])
	}
}

func TestGenerateJSONToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	var out bytes.Buffer
	if err := run([]string{"-model", "gnp", "-n", "50", "-format", "json", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"nodes":50`) {
		t.Fatalf("bad json: %s", data)
	}
}

func TestGenerateDOT(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "ws", "-n", "30", "-format", "dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "graph \"ws\"") {
		t.Fatal("missing DOT header")
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "nope", "-n", "10"}, &out); err == nil {
		t.Fatal("unknown model should fail")
	}
	if err := run([]string{"-model", "ba", "-n", "10", "-format", "xml"}, &out); err == nil {
		t.Fatal("unknown format should fail")
	}
}

// TestWorkersFlag: the sharded path is reproducible at a fixed worker
// count, worker-count invariant at >= 2, and the default stays on the
// sequential reference.
func TestWorkersFlag(t *testing.T) {
	gen := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-model", "ba", "-n", "300", "-seed", "9"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq := gen()
	if got := gen("-workers", "1"); got != seq {
		t.Fatal("-workers=1 must match the default sequential output")
	}
	w4a, w4b := gen("-workers", "4"), gen("-workers", "4")
	if w4a != w4b {
		t.Fatal("-workers=4 not reproducible across runs")
	}
	if w2 := gen("-workers", "2"); w2 != w4a {
		t.Fatal("sharded output differs between worker counts")
	}
	// The econ adapter threads -workers through the market rounds.
	var out bytes.Buffer
	if err := run([]string{"-model", "econ", "-n", "200", "-seed", "3", "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "# netmodel edge list") {
		t.Fatal("econ sharded generation produced no edge list")
	}
}

// TestMeasureEvery: trajectory mode writes one growth row per epoch to
// -trajectory-out and must not perturb the generated map.
func TestMeasureEvery(t *testing.T) {
	var plain bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "400", "-seed", "4"}, &plain); err != nil {
		t.Fatal(err)
	}
	trajPath := filepath.Join(t.TempDir(), "traj.txt")
	var out bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "400", "-seed", "4",
		"-measure-every", "100", "-trajectory-out", trajPath}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Fatal("-measure-every changed the generated map")
	}
	data, err := os.ReadFile(trajPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + epochs at 100, 200, 300, 400.
	if len(lines) != 5 {
		t.Fatalf("trajectory table has %d lines:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[0], "gamma") || !strings.Contains(lines[0], "freeze") {
		t.Fatalf("missing header: %q", lines[0])
	}
	for _, row := range lines[2:] {
		if !strings.Contains(row, "delta") {
			t.Fatalf("epoch row not measured via delta refresh: %q", row)
		}
	}
	// Sharded trajectory runs work too and agree with the plain
	// sharded map.
	var shPlain, shTraj bytes.Buffer
	if err := run([]string{"-model", "glp", "-n", "300", "-seed", "4", "-workers", "4"}, &shPlain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "glp", "-n", "300", "-seed", "4", "-workers", "4",
		"-measure-every", "75", "-trajectory-out", filepath.Join(t.TempDir(), "t2.txt")}, &shTraj); err != nil {
		t.Fatal(err)
	}
	if shPlain.String() != shTraj.String() {
		t.Fatal("sharded -measure-every changed the generated map")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	if err := run([]string{"-model", "ba", "-n", "200", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no edge list emitted")
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s: empty profile", path)
		}
	}
}

// TestPathsEnvelope: exact -paths on a map whose n² distance rows
// exceed the envelope fails with one line naming -path-sources before
// anything is generated (a 50k exact run would need 9.4 GiB), while a
// sampled -paths run still goes through the same check and generates,
// and one that would fall back to exact rows at its first epoch is
// refused there.
func TestPathsEnvelope(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "ba", "-n", "50000", "-seed", "9", "-measure-every", "1000", "-paths", "-workers", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-path-sources") || strings.Contains(err.Error(), "\n") || out.Len() != 0 {
		t.Fatalf("oversized exact -paths: err %v, %d bytes of output", err, out.Len())
	}
	if err := run([]string{"-model", "ba", "-n", "2000", "-seed", "9", "-measure-every", "1000", "-paths",
		"-path-sources", "16", "-trajectory-out", filepath.Join(t.TempDir(), "t.txt")}, &out); err != nil {
		t.Fatal(err)
	}
	// 64 pivots do not sample a 50-node first epoch, so this run would
	// stay exact up to 200000 nodes: refused at the first epoch.
	out.Reset()
	err = run([]string{"-model", "glp", "-n", "200000", "-measure-every", "50", "-paths", "-path-sources", "64"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-path-sources") || strings.Contains(err.Error(), "\n") || out.Len() != 0 {
		t.Fatalf("exact fallback over 200000 nodes: err %v, %d bytes of output", err, out.Len())
	}
}

// TestRejectsPositionalArgument: a stray word between the flags fails
// with an error naming it instead of ending flag parsing silently.
func TestRejectsPositionalArgument(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "ba", "-n", "100", "extra", "-seed", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "extra"`) {
		t.Fatalf("err = %v, want an unexpected-argument error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected command line still wrote output:\n%s", out.String())
	}
}

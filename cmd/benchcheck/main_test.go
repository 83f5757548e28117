package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchDir lays out a floor file and one benchmark file in a
// temp dir and returns their paths.
func writeBenchDir(t *testing.T, floors, bench string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	fp := filepath.Join(dir, "floors.json")
	if err := os.WriteFile(fp, []byte(floors), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, fp
}

const benchRows = `[
  {"name": "fast-path", "n": 100000, "cores": 1, "speedup": 12.5},
  {"name": "fast-path", "n": 10000, "cores": 1, "speedup": 2.0},
  {"name": "parallel-path", "n": 100000, "cores": 1, "speedup": 1.01}
]`

func TestFloorHolds(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "fast-path", "min_n": 50000, "min_speedup": 10}
	]}`, benchRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err != nil {
		t.Fatalf("floor should hold: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok   BENCH_x.json fast-path") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}
	// min_n must exclude the 10k smoke row, whose 2.0 is below floor.
	if strings.Count(out.String(), "fast-path") != 1 {
		t.Fatalf("smoke row not excluded by min_n:\n%s", out.String())
	}
}

func TestFloorViolated(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "fast-path", "min_speedup": 3, "note": "why it matters"}
	]}`, benchRows)
	var out bytes.Buffer
	err := run([]string{"-floors", fp, "-dir", dir}, &out)
	if err == nil {
		t.Fatalf("10k row at 2.0 must violate the unscoped floor of 3:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BENCH_x.json fast-path (n=10000") ||
		!strings.Contains(out.String(), "why it matters") {
		t.Fatalf("missing FAIL line with note:\n%s", out.String())
	}
}

func TestMinCoresSkips(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "parallel-path", "min_cores": 4, "min_speedup": 1.5}
	]}`, benchRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err != nil {
		t.Fatalf("1-core row must be skipped by min_cores=4: %v", err)
	}
	if !strings.Contains(out.String(), "skip BENCH_x.json parallel-path") {
		t.Fatalf("missing skip line:\n%s", out.String())
	}
	// ...unless -require-all turns the skip into a failure.
	out.Reset()
	if err := run([]string{"-floors", fp, "-dir", dir, "-require-all"}, &out); err == nil {
		t.Fatalf("-require-all must fail on a skipped floor:\n%s", out.String())
	}
}

func TestPerFloorRequire(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "fast-path", "min_n": 500000, "min_speedup": 10, "require": true}
	]}`, benchRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatalf("required floor with no eligible row must fail:\n%s", out.String())
	}
	// -lenient downgrades the required-but-missing floor to a skip —
	// the mode CI uses against freshly emitted smoke-scale files.
	out.Reset()
	if err := run([]string{"-floors", fp, "-dir", dir, "-lenient"}, &out); err != nil {
		t.Fatalf("-lenient must skip the missing required floor: %v\n%s", err, out.String())
	}
}

func TestMissingSpeedupFails(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "no-speedup", "min_speedup": 1}
	]}`, `[{"name": "no-speedup", "n": 1000, "cores": 1}]`)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatal("a row without a speedup field must fail its floor")
	}
}

const allocRows = `[
  {"name": "steady", "n": 100000, "cores": 1, "speedup": 1.0, "allocs_per_op": 0, "bytes_per_op": 0},
  {"name": "leaky", "n": 100000, "cores": 1, "speedup": 1.0, "allocs_per_op": 3.5, "bytes_per_op": 4096},
  {"name": "unmeasured", "n": 100000, "cores": 1, "speedup": 5.0}
]`

func TestAllocCeilingHolds(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "steady", "max_allocs_per_op": 0, "max_bytes_per_op": 0}
	]}`, allocRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err != nil {
		t.Fatalf("zero-alloc ceiling should hold on an explicit-zero row: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok   BENCH_x.json steady") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}
}

func TestAllocCeilingViolated(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "leaky", "max_allocs_per_op": 0, "note": "steady state must not allocate"}
	]}`, allocRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatalf("3.5 allocs/op must violate a ceiling of 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs_per_op 3.5 > ceiling 0") ||
		!strings.Contains(out.String(), "steady state must not allocate") {
		t.Fatalf("missing FAIL detail:\n%s", out.String())
	}
}

func TestBytesCeilingViolated(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "leaky", "max_bytes_per_op": 1024}
	]}`, allocRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatalf("4096 B/op must violate a ceiling of 1024:\n%s", out.String())
	}
}

func TestCeilingAgainstUnmeasuredRowFails(t *testing.T) {
	// An emitter that stops recording allocs_per_op must not pass the
	// ceiling vacuously.
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "unmeasured", "max_allocs_per_op": 0}
	]}`, allocRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatalf("a row without allocs_per_op must fail an alloc ceiling:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "records no allocs_per_op") {
		t.Fatalf("missing vacuity FAIL detail:\n%s", out.String())
	}
}

func TestCombinedFloorAndCeiling(t *testing.T) {
	// A floor may gate speedup and allocations at once; either side
	// alone failing fails the row.
	dir, fp := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "steady", "min_speedup": 0.5, "max_allocs_per_op": 0}
	]}`, allocRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err != nil {
		t.Fatalf("combined constraint should hold: %v\n%s", err, out.String())
	}
	out.Reset()
	dir2, fp2 := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "steady", "min_speedup": 2, "max_allocs_per_op": 0}
	]}`, allocRows)
	if err := run([]string{"-floors", fp2, "-dir", dir2}, &out); err == nil {
		t.Fatalf("speedup side of a combined constraint must still gate:\n%s", out.String())
	}
}

func TestBadInputs(t *testing.T) {
	dir, fp := writeBenchDir(t, `{"floors": []}`, benchRows)
	var out bytes.Buffer
	if err := run([]string{"-floors", fp, "-dir", dir}, &out); err == nil {
		t.Fatal("empty floor list must fail")
	}
	dir2, fp2 := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_missing.json", "name": "x", "min_speedup": 1}
	]}`, benchRows)
	if err := run([]string{"-floors", fp2, "-dir", dir2}, &out); err == nil {
		t.Fatal("missing benchmark file must fail")
	}
	dir3, fp3 := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "", "min_speedup": 1}
	]}`, benchRows)
	if err := run([]string{"-floors", fp3, "-dir", dir3}, &out); err == nil {
		t.Fatal("floor without a name must fail")
	}
	dir4, fp4 := writeBenchDir(t, `{"floors": [
		{"file": "BENCH_x.json", "name": "fast-path"}
	]}`, benchRows)
	if err := run([]string{"-floors", fp4, "-dir", dir4}, &out); err == nil {
		t.Fatal("floor with neither a min_speedup nor a ceiling must fail")
	}
}

// TestRepoFloorsAgainstCommittedFiles gates the real committed
// BENCH_*.json files with the real committed floors — the same check
// `make bench-check` runs, so a regression in either file or floors
// fails the ordinary test suite too.
func TestRepoFloorsAgainstCommittedFiles(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "bench_floors.json")); err != nil {
		t.Skipf("bench_floors.json not found: %v", err)
	}
	var out bytes.Buffer
	err := run([]string{"-floors", filepath.Join(root, "bench_floors.json"), "-dir", root}, &out)
	if err != nil {
		t.Fatalf("committed floors vs committed BENCH files: %v\n%s", err, out.String())
	}
}

// TestRejectsPositionalArgument: a directory given without -dir fails
// with an error naming it instead of checking the current directory.
func TestRejectsPositionalArgument(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-lenient", "results"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "results"`) {
		t.Fatalf("err = %v, want an unexpected-argument error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("rejected command line still wrote output:\n%s", out.String())
	}
}

package cliutil

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	if got := SplitList(" a, b ,,c ,"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("SplitList = %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Fatalf("SplitList(\"\") = %v, want nil", got)
	}
}

func TestParseLists(t *testing.T) {
	ints, err := ParseInts("1, 2,30")
	if err != nil || !reflect.DeepEqual(ints, []int{1, 2, 30}) {
		t.Fatalf("ParseInts = %v, %v", ints, err)
	}
	if _, err := ParseInts("1,x"); err == nil {
		t.Fatal("ParseInts should reject junk")
	}
	seeds, err := ParseSeeds("1,18446744073709551615")
	if err != nil || seeds[1] != 18446744073709551615 {
		t.Fatalf("ParseSeeds = %v, %v", seeds, err)
	}
	if _, err := ParseSeeds("-1"); err == nil {
		t.Fatal("ParseSeeds should reject negatives")
	}
	floats, err := ParseFloats("0.5, 1.25")
	if err != nil || !reflect.DeepEqual(floats, []float64{0.5, 1.25}) {
		t.Fatalf("ParseFloats = %v, %v", floats, err)
	}
	if _, err := ParseFloats("0.5,nope"); err == nil {
		t.Fatal("ParseFloats should reject junk")
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Fatalf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := ResolveWorkers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(-5) = %d, want GOMAXPROCS", got)
	}
}

func TestVisitedWorkers(t *testing.T) {
	newSet := func(args ...string) (*flag.FlagSet, *int) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		w := fs.Int("workers", 1, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs, w
	}
	fs, w := newSet()
	if got := VisitedWorkers(fs, "workers", *w); got != 0 {
		t.Fatalf("unset -workers resolved to %d, want 0", got)
	}
	fs, w = newSet("-workers", "4")
	if got := VisitedWorkers(fs, "workers", *w); got != 4 {
		t.Fatalf("-workers 4 resolved to %d", got)
	}
	fs, w = newSet("-workers", "0")
	if got := VisitedWorkers(fs, "workers", *w); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("-workers 0 resolved to %d, want GOMAXPROCS", got)
	}
}

func TestOutput(t *testing.T) {
	var buf bytes.Buffer
	w, closeFn, err := Output("", &buf)
	if err != nil || w != &buf {
		t.Fatalf("Output(\"\") = %v, %v", w, err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.txt")
	w, closeFn, err = Output(path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("file contents %q, %v", data, err)
	}
	if buf.Len() != 0 {
		t.Fatal("file output leaked to stdout")
	}
	if _, _, err := Output(filepath.Join(path, "nested", "x"), &buf); err == nil {
		t.Fatal("uncreatable path should error")
	}
}

func TestWriteOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var buf bytes.Buffer
	err := WriteOutput(path, &buf, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "payload" {
		t.Fatalf("file contents %q, %v", data, err)
	}
	// Emit errors surface and win over close errors.
	sentinel := errors.New("emit failed")
	if err := WriteOutput(filepath.Join(t.TempDir(), "e.txt"), &buf, func(io.Writer) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("emit error lost: %v", err)
	}
	if err := WriteOutput(filepath.Join(path, "nested", "x"), &buf, func(io.Writer) error {
		t.Fatal("emit must not run when the output cannot be created")
		return nil
	}); err == nil {
		t.Fatal("uncreatable path should error")
	}
	if err := WriteOutput("", &buf, func(w io.Writer) error {
		_, err := w.Write([]byte("to stdout"))
		return err
	}); err != nil || buf.String() != "to stdout" {
		t.Fatalf("stdout path: %q, %v", buf.String(), err)
	}
}

// TestValidators pins the flag-validation helpers: each rejection is a
// one-line error naming the flag, and every valid value passes.
func TestValidators(t *testing.T) {
	valid := []error{
		PositiveInt("-n", 1),
		NonNegativeInt("-epochs", 0),
		NonNegativeFloat("-mtbf", 0),
		NonNegativeFloat("-mttr", 2.5),
		PositiveFloats("-load", []float64{0.3, 1.5}),
		PositiveFloats("-load", nil),
		OneOf("-engine", "epoch", "epoch", "event"),
		FirstError(nil, nil),
	}
	for i, err := range valid {
		if err != nil {
			t.Fatalf("valid case %d rejected: %v", i, err)
		}
	}
	nan := math.NaN()
	invalid := map[string]error{
		"zero positive int":  PositiveInt("-n", 0),
		"negative int":       NonNegativeInt("-epochs", -1),
		"negative float":     NonNegativeFloat("-mtbf", -0.5),
		"nan float":          NonNegativeFloat("-mtbf", nan),
		"inf float":          NonNegativeFloat("-mttr", math.Inf(1)),
		"zero float entry":   PositiveFloats("-load", []float64{0.5, 0}),
		"nan float entry":    PositiveFloats("-tail", []float64{nan}),
		"unknown enum value": OneOf("-engine", "quantum", "epoch", "event"),
	}
	for name, err := range invalid {
		if err == nil {
			t.Fatalf("%s: want error", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "-") || strings.ContainsRune(msg, '\n') {
			t.Fatalf("%s: want one-line error naming the flag, got %q", name, msg)
		}
	}
	first := FirstError(nil, PositiveInt("-a", 0), PositiveInt("-b", 0))
	if first == nil || !strings.Contains(first.Error(), "-a") {
		t.Fatalf("FirstError should surface the first violation, got %v", first)
	}
}

// TestParseByteSize pins the byte-size grammar: plain integers are
// bytes, K/M/G/T suffixes scale by powers of 1024, -1 is unbounded, and
// every value that would wrap negative (read as unbounded downstream)
// or truncate to 0 (read as off) is an error.
func TestParseByteSize(t *testing.T) {
	valid := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"-1", -1},
		{" 65536 ", 65536},
		{"64K", 64 << 10},
		{"64kb", 64 << 10},
		{"64KiB", 64 << 10},
		{"1.5G", 3 << 29},
		{"0.5K", 512},
		{"2t", 2 << 40},
		{"0K", 0},
		{"9223372036854775807", math.MaxInt64},
		{"8388607T", 8388607 << 40},
	}
	for _, c := range valid {
		got, err := ParseByteSize("-cache-budget", c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	invalid := []string{
		"", "abc", "-2", "-1K", "NaNK", "InfG", "1e3", "0.5",
		"9223372036854775808", "-9223372036854775809", "8388608T", "8388608.5T", "1e30K",
		"0.0001K",
	}
	for _, in := range invalid {
		got, err := ParseByteSize("-cache-budget", in)
		if err == nil {
			t.Fatalf("ParseByteSize(%q) = %d, want error", in, got)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "-cache-budget: ") {
			t.Fatalf("ParseByteSize(%q): error %q does not name the flag", in, msg)
		}
	}
}

func TestProfiler(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the CPU profiler something to sample and the heap profiler
	// something to record before the profiles are flushed.
	sink := make([]byte, 1<<16)
	for i := range sink {
		sink[i] = byte(i)
	}
	runtime.KeepAlive(sink)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
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
	// Stop is idempotent: the deferred second call must not rewrite or
	// truncate the already-flushed profiles.
	if err := os.Truncate(mem, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if info, _ := os.Stat(mem); info.Size() != 1 {
		t.Fatalf("second Stop rewrote the memory profile (size %d)", info.Size())
	}
}

func TestProfilerNoFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := ProfileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerBadPath(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := ProfileFlags(fs)
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "x.pprof")
	if err := fs.Parse([]string{"-cpuprofile", missing}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		p.Stop()
		t.Fatal("Start should fail for an uncreatable -cpuprofile path")
	}
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	p2 := ProfileFlags(fs2)
	if err := fs2.Parse([]string{"-memprofile", missing}); err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Stop(); err == nil {
		t.Fatal("Stop should surface an uncreatable -memprofile path")
	}
}

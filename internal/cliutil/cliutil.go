// Package cliutil holds the flag-handling conventions shared by the
// netmodel command-line tools: comma-separated axis lists, flag-value
// validation with clear one-line errors, the two -workers resolution
// policies, -o output redirection, and the -cpuprofile / -memprofile
// pair. Extracting them keeps the seven CLIs (topogen, topostat,
// topocmp, topofit, toposweep, topoload, benchcheck) answering the
// same flags the same way.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// SplitList splits a comma-separated flag value into trimmed non-empty
// items.
func SplitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// ParseInts parses a comma-separated list of integers.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, item := range SplitList(s) {
		v, err := strconv.Atoi(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSeeds parses a comma-separated list of uint64 seeds.
func ParseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, item := range SplitList(s) {
		v, err := strconv.ParseUint(item, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated list of floats.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, item := range SplitList(s) {
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// The validators below are the shared flag-checking vocabulary of the
// CLIs: each returns a clear one-line error naming the flag, so a typo
// like "-load -1" or "-engine evnt" fails at the flag layer with an
// actionable message instead of deep inside a subsystem.

// PositiveInt rejects values that are not strictly positive.
func PositiveInt(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %d", name, v)
	}
	return nil
}

// NonNegativeInt rejects negative values.
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must not be negative, got %d", name, v)
	}
	return nil
}

// NonNegativeFloat rejects negative, NaN and infinite values.
func NonNegativeFloat(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be a non-negative finite number, got %v", name, v)
	}
	return nil
}

// PositiveFloats rejects any list entry that is not strictly positive
// and finite — the shape of the swept -load and -tail axes.
func PositiveFloats(name string, vs []float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%s entries must be positive finite numbers, got %v", name, v)
		}
	}
	return nil
}

// ParseByteSize parses a byte-size flag value: a plain integer counts
// bytes, an integer or decimal with a K/M/G/T suffix (case-insensitive,
// optional trailing "B" or "iB") scales by powers of 1024, and "-1"
// means unbounded. "0" disables whatever the size budgets. The name is
// echoed in errors so the caller can pass the flag name directly.
func ParseByteSize(name, s string) (int64, error) {
	v := strings.TrimSpace(s)
	if v == "" {
		return 0, fmt.Errorf("%s: empty size", name)
	}
	if v == "-1" {
		return -1, nil
	}
	num, shift := v, 0
	upper := strings.ToUpper(v)
	upper = strings.TrimSuffix(upper, "IB")
	upper = strings.TrimSuffix(upper, "B")
	if n := len(upper); n > 0 {
		switch upper[n-1] {
		case 'K':
			shift = 10
		case 'M':
			shift = 20
		case 'G':
			shift = 30
		case 'T':
			shift = 40
		}
		if shift > 0 {
			num = upper[:n-1]
		} else {
			num = upper
		}
	}
	invalid := fmt.Errorf("%s: invalid size %q (want e.g. 65536, 64K, 1.5G, or -1 for unbounded)", name, s)
	overflow := fmt.Errorf("%s: size %q overflows", name, s)
	if shift == 0 {
		// Plain byte counts are integers: a fraction would truncate,
		// and a truncated "0.5" would silently turn the budget off.
		b, err := strconv.ParseInt(num, 10, 64)
		switch {
		case err == nil && b >= 0:
			return b, nil
		case errors.Is(err, strconv.ErrRange) && b > 0: // clamped to MaxInt64
			return 0, overflow
		}
		return 0, invalid
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, invalid
	}
	// 2^63 is the first float64 past MaxInt64 (which rounds up to it),
	// so the bound is >=; a scaled value below one byte would truncate
	// to 0, which means "off", not "tiny".
	b := f * float64(int64(1)<<shift)
	if b >= 1<<63 {
		return 0, overflow
	}
	if f > 0 && b < 1 {
		return 0, invalid
	}
	return int64(b), nil
}

// OneOf rejects values outside the allowed set, echoing the choices.
func OneOf(name, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown value %q (have %s)", name, v, strings.Join(allowed, ", "))
}

// NoArgs rejects positional arguments left after fs parsed the command
// line. Flag parsing stops at the first non-flag word, so a tool that
// takes only flags would otherwise drop that word, and every flag after
// it, without a word.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}
	return nil
}

// FirstError returns the first non-nil error, so a CLI can stack its
// flag validations in one readable call.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ResolveWorkers is the topogen policy: an explicit value stands, and
// anything <= 0 means every core.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// VisitedWorkers is the topocmp/topofit policy: -workers left unset
// keeps the historical default of 0 (sequential reference generation
// with an all-core metrics engine), while an explicit value sizes both
// pools, with <= 0 resolved to every core so generation shards too.
func VisitedWorkers(fs *flag.FlagSet, name string, value int) int {
	pool := 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			pool = ResolveWorkers(value)
		}
	})
	return pool
}

// Output returns the writer the tool should emit to: the file named by
// path when non-empty (created fresh), stdout otherwise. The returned
// close function is a no-op in the stdout case; call it before relying
// on the file's contents. Most tools should use WriteOutput, which
// never loses the close error.
func Output(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Profiler carries the shared -cpuprofile / -memprofile flags and the
// in-flight CPU profile. Every CLI registers the pair via ProfileFlags,
// starts it after flag validation, and stops it on the way out:
//
//	prof := cliutil.ProfileFlags(fs)
//	...
//	if err := prof.Start(); err != nil { return err }
//	defer prof.Stop()
//	...
//	return prof.Stop()
//
// Stop is idempotent, so the deferred call covers error returns while
// the explicit final call surfaces profile-write failures (full disk,
// unwritable path) as command errors on the success path.
type Profiler struct {
	cpu, mem string
	cpuFile  *os.File
	stopped  bool
}

// ProfileFlags registers the -cpuprofile and -memprofile flags on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile to this file at exit")
	return p
}

// Start begins CPU profiling when -cpuprofile was given; with neither
// flag set it is a no-op.
func (p *Profiler) Start() error {
	p.stopped = false
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop flushes the CPU profile and, when -memprofile was given, writes
// the allocation profile after a final GC (so the live-heap samples
// reflect reachable memory, while alloc_objects/alloc_space still
// carry every allocation). Safe to call more than once; only the first
// call does the work.
func (p *Profiler) Stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = err
		}
		p.cpuFile = nil
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
		if err == nil {
			runtime.GC()
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteOutput resolves the tool's output (Output), runs emit against
// it, and closes it, reporting the first failure — so a failed flush or
// close (full disk, remote filesystem) surfaces as a command error
// instead of a silently truncated file.
func WriteOutput(path string, stdout io.Writer, emit func(io.Writer) error) error {
	w, closeOut, err := Output(path, stdout)
	if err != nil {
		return err
	}
	if err := emit(w); err != nil {
		closeOut()
		return err
	}
	return closeOut()
}

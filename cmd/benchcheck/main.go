// Command benchcheck is the CI benchmark-regression gate: it compares
// the speedup fields of emitted BENCH_*.json files against committed
// floors and fails when a speedup regresses below its floor. A floor
// may instead (or additionally) carry an allocation ceiling —
// max_allocs_per_op / max_bytes_per_op — gating the row's recorded
// allocs_per_op / bytes_per_op from above, which is how the zero-alloc
// steady-state guarantees of the traffic engines stay enforced.
//
// Usage:
//
//	benchcheck -floors bench_floors.json            # gate the committed files
//	benchcheck -floors bench_floors.json -require-all
//	benchcheck -dir /tmp/bench -lenient             # gate fresh -short emissions
//
// The floor file is a list of constraints, each naming a benchmark
// file, a row name, and a minimum speedup. Floors can be scoped with
// min_n (rows from smaller runs are not gated — the -short smoke
// sizes sit far below acceptance scale) and min_cores (parallel
// -scaling floors are meaningless on boxes with fewer cores; rows
// record the GOMAXPROCS they ran under). A floor with no eligible row
// is reported as skipped, unless the floor sets "require": true (for
// algorithmic floors the committed acceptance-scale files must always
// satisfy) or -require-all promotes every skip to a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"netmodel/internal/cliutil"
)

// Floor is one regression constraint against one benchmark file.
type Floor struct {
	// File names the benchmark JSON file, relative to -dir.
	File string `json:"file"`
	// Name selects rows by their "name" field.
	Name string `json:"name"`
	// MinN scopes the floor to rows with n >= MinN (0 = all rows).
	MinN int `json:"min_n,omitempty"`
	// MinCores scopes the floor to rows whose recorded GOMAXPROCS is
	// at least MinCores (0 = all rows).
	MinCores int `json:"min_cores,omitempty"`
	// MinSpeedup is the classic floor: every eligible row's "speedup"
	// must be at least this. Optional (0) when the floor carries a
	// ceiling instead.
	MinSpeedup float64 `json:"min_speedup,omitempty"`
	// MaxAllocsPerOp / MaxBytesPerOp are ceilings: every eligible row's
	// "allocs_per_op" / "bytes_per_op" must be at most this. A row that
	// does not record the gated field fails the ceiling — an emitter
	// that silently stops measuring must not pass vacuously.
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
	MaxBytesPerOp  *float64 `json:"max_bytes_per_op,omitempty"`
	// Require makes a floor with no eligible row a failure instead of
	// a skip — for floors that must always find their row (algorithmic
	// speedups recorded at acceptance scale in the committed files).
	// Leave false for min_cores-scoped floors, which legitimately have
	// no eligible row on few-core machines.
	Require bool `json:"require,omitempty"`
	// Note documents what the floor protects; echoed on failure.
	Note string `json:"note,omitempty"`
}

type floorFile struct {
	Floors []Floor `json:"floors"`
}

// row is the benchmark-row subset benchcheck interprets. Emitters
// write richer rows; unknown fields are ignored.
type row struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	Cores   int     `json:"cores"`
	Speedup float64 `json:"speedup"`
	// Pointers, not values: a ceiling against a row that omits the
	// field must fail, and only the emitter's explicit 0 may pass a
	// zero-alloc ceiling.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	floorsPath := fs.String("floors", "bench_floors.json", "floor file (JSON)")
	dir := fs.String("dir", ".", "directory holding the BENCH_*.json files")
	requireAll := fs.Bool("require-all", false, "fail floors with no eligible row instead of skipping them")
	lenient := fs.Bool("lenient", false, "downgrade required floors with no eligible row to skips (for gating smoke-scale emissions)")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	if *requireAll && *lenient {
		return fmt.Errorf("-require-all and -lenient contradict each other; pick one")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	data, err := os.ReadFile(*floorsPath)
	if err != nil {
		return err
	}
	var ff floorFile
	if err := json.Unmarshal(data, &ff); err != nil {
		return fmt.Errorf("%s: %w", *floorsPath, err)
	}
	if len(ff.Floors) == 0 {
		return fmt.Errorf("%s: no floors", *floorsPath)
	}
	rowsByFile := map[string][]row{}
	var failures int
	for _, fl := range ff.Floors {
		if fl.File == "" || fl.Name == "" {
			return fmt.Errorf("%s: floor %+v needs file and name", *floorsPath, fl)
		}
		if fl.MinSpeedup <= 0 && fl.MaxAllocsPerOp == nil && fl.MaxBytesPerOp == nil {
			return fmt.Errorf("%s: floor %s/%s needs a positive min_speedup or a ceiling (max_allocs_per_op / max_bytes_per_op)",
				*floorsPath, fl.File, fl.Name)
		}
		rows, ok := rowsByFile[fl.File]
		if !ok {
			data, err := os.ReadFile(filepath.Join(*dir, fl.File))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &rows); err != nil {
				return fmt.Errorf("%s: %w", fl.File, err)
			}
			rowsByFile[fl.File] = rows
		}
		eligible := 0
		for _, r := range rows {
			if r.Name != fl.Name || r.N < fl.MinN || r.Cores < fl.MinCores {
				continue
			}
			eligible++
			fail := func(format string, a ...any) {
				failures++
				fmt.Fprintf(stdout, "FAIL %s %s (n=%d cores=%d): ", fl.File, fl.Name, r.N, r.Cores)
				fmt.Fprintf(stdout, format, a...)
				if fl.Note != "" {
					fmt.Fprintf(stdout, " — %s", fl.Note)
				}
				fmt.Fprintln(stdout)
			}
			bad := false
			if fl.MinSpeedup > 0 && r.Speedup < fl.MinSpeedup {
				fail("speedup %.3f < floor %.3f", r.Speedup, fl.MinSpeedup)
				bad = true
			}
			if c := fl.MaxAllocsPerOp; c != nil {
				switch {
				case r.AllocsPerOp == nil:
					fail("row records no allocs_per_op but a ceiling of %g is set", *c)
					bad = true
				case *r.AllocsPerOp > *c:
					fail("allocs_per_op %g > ceiling %g", *r.AllocsPerOp, *c)
					bad = true
				}
			}
			if c := fl.MaxBytesPerOp; c != nil {
				switch {
				case r.BytesPerOp == nil:
					fail("row records no bytes_per_op but a ceiling of %g is set", *c)
					bad = true
				case *r.BytesPerOp > *c:
					fail("bytes_per_op %g > ceiling %g", *r.BytesPerOp, *c)
					bad = true
				}
			}
			if bad {
				continue
			}
			fmt.Fprintf(stdout, "ok   %s %s (n=%d cores=%d):", fl.File, fl.Name, r.N, r.Cores)
			if fl.MinSpeedup > 0 {
				fmt.Fprintf(stdout, " speedup %.3f >= %.3f", r.Speedup, fl.MinSpeedup)
			}
			if fl.MaxAllocsPerOp != nil {
				fmt.Fprintf(stdout, " allocs/op %g <= %g", *r.AllocsPerOp, *fl.MaxAllocsPerOp)
			}
			if fl.MaxBytesPerOp != nil {
				fmt.Fprintf(stdout, " B/op %g <= %g", *r.BytesPerOp, *fl.MaxBytesPerOp)
			}
			fmt.Fprintln(stdout)
		}
		if eligible == 0 {
			if *requireAll || (fl.Require && !*lenient) {
				failures++
				fmt.Fprintf(stdout, "FAIL %s %s: no eligible row (min_n=%d min_cores=%d) and the floor is required\n",
					fl.File, fl.Name, fl.MinN, fl.MinCores)
			} else {
				fmt.Fprintf(stdout, "skip %s %s: no eligible row (min_n=%d min_cores=%d)\n",
					fl.File, fl.Name, fl.MinN, fl.MinCores)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d floor(s) violated", failures)
	}
	return prof.Stop()
}

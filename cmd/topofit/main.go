// Command topofit calibrates a generator parameter against the
// published AS-map statistics by derivative-free search over the
// aggregate comparison score.
//
// Supported knobs:
//
//	topofit -knob ba-attract   -n 4000   # BA initial attractiveness
//	topofit -knob glp-beta     -n 4000   # GLP preference shift
//	topofit -knob waxman-beta  -n 2000   # Waxman distance scale
//
// -workers shards each evaluation's generation (families with a
// parallel kernel) and metrics engine: 1 keeps the sequential
// reference generators, 0 uses every core for both; left unset,
// generation stays sequential and the engine uses every core.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netmodel/internal/cliutil"
	"netmodel/internal/compare"
	"netmodel/internal/engine"
	"netmodel/internal/fit"
	"netmodel/internal/gen"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topofit:", err)
		os.Exit(1)
	}
}

type knob struct {
	lo, hi float64
	build  func(n int, x float64) gen.Generator
}

var knobs = map[string]knob{
	"ba-attract": {-1.8, 2, func(n int, x float64) gen.Generator {
		return gen.BA{N: n, M: 2, A: x}
	}},
	"glp-beta": {-0.5, 0.95, func(n int, x float64) gen.Generator {
		return gen.GLP{N: n, M: 1, P: 0.45, Beta: x}
	}},
	"waxman-beta": {0.02, 0.6, func(n int, x float64) gen.Generator {
		return gen.Waxman{N: n, Alpha: 0.12, Beta: x}
	}},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topofit", flag.ContinueOnError)
	name := fs.String("knob", "ba-attract", "parameter to calibrate")
	n := fs.Int("n", 3000, "generated size per evaluation")
	seed := fs.Uint64("seed", 1, "random seed")
	grid := fs.Int("grid", 7, "coarse grid points")
	refine := fs.Int("refine", 8, "golden-section refinement steps")
	sources := fs.Int("path-sources", 200, "BFS sources for path stats")
	workers := fs.Int("workers", 1, "pool for sharded generation and the metrics engine; 1 = sequential generation, 0 = GOMAXPROCS, unset = sequential generation with an all-core engine")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	if err := cliutil.FirstError(
		cliutil.PositiveInt("-n", *n),
		cliutil.PositiveInt("-grid", *grid),
		cliutil.NonNegativeInt("-refine", *refine),
		cliutil.NonNegativeInt("-path-sources", *sources),
	); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	// Same -workers resolution as topocmp: unset keeps sequential
	// reference generation with the engine on every core; explicit
	// values size both pools (0 = all cores for both).
	pool := cliutil.VisitedWorkers(fs, "workers", *workers)
	k, ok := knobs[*name]
	if !ok {
		names := make([]string, 0, len(knobs))
		for kn := range knobs {
			names = append(names, kn)
		}
		return fmt.Errorf("unknown knob %q (have %v)", *name, names)
	}
	tgt := refdata.ASMap2001
	evals := 0
	obj := func(x float64) (float64, error) {
		evals++
		// Each evaluation runs the candidate through the sharded kernel
		// (pool > 1) and a pool-wide metrics engine, so calibration
		// saturates the hardware the same way the sweep driver does.
		top, err := gen.GenerateWith(k.build(*n, x), rng.New(*seed), pool)
		if err != nil {
			return 0, err
		}
		frozen, err := top.G.FreezeChecked()
		if err != nil {
			return 0, err
		}
		eng := engine.New(frozen, engine.WithWorkers(pool))
		rep, err := compare.AgainstFrozen(eng, tgt,
			compare.Options{PathSources: *sources, Rand: rng.New(*seed + 1)})
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "  eval %2d: x=%8.4f score=%6.2f%%\n", evals, x, 100*rep.Score)
		return rep.Score, nil
	}
	res, err := fit.Minimize1D(obj, k.lo, k.hi, *grid, *refine)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "best %s = %.4f (score %.2f%%, %d evaluations)\n",
		*name, res.X, 100*res.Cost, res.Evals)
	return prof.Stop()
}

// Command topocmp validates topologies against the published AS-map
// statistics, either for one model or as a full shoot-out across the
// registry.
//
// Usage:
//
//	topocmp -model glp -n 11000          # one model vs the AS map
//	topocmp -all -n 4000 -workers 8       # rank every model, sharded kernels
//	topocmp -file map.txt -target asplus  # a file vs the AS+ map
//
// -workers shards generation (families with a parallel kernel) and the
// metrics engine: 1 keeps the sequential reference generators, 0 uses
// every core for both; left unset, generation stays sequential and the
// engine uses every core. For full grid sweeps with cross-seed
// aggregation, see toposweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netmodel/internal/cliutil"
	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/graphio"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topocmp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topocmp", flag.ContinueOnError)
	model := fs.String("model", "", "model to generate and compare")
	file := fs.String("file", "", "edge-list file to compare instead of generating")
	all := fs.Bool("all", false, "compare every registered model and rank them")
	n := fs.Int("n", 4000, "generated size")
	seed := fs.Uint64("seed", 1, "random seed")
	target := fs.String("target", "as", "reference target: as, asplus")
	sources := fs.Int("path-sources", 300, "BFS sources for path stats (0 = exact)")
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
		cliutil.NonNegativeInt("-path-sources", *sources),
		cliutil.OneOf("-target", *target, "as", "asplus"),
	); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	tgt := refdata.ASMap2001
	if *target == "asplus" {
		tgt = refdata.ASPlusMap2001
	}
	// -workers unset keeps the historical default: sequential reference
	// generation with the metrics engine on every core (pool 0 means
	// GOMAXPROCS to the engine and "don't shard" to generation — engine
	// width never changes measured values). An explicit -workers sizes
	// both pools, with 0 resolved to all cores so generation shards too,
	// mirroring topogen.
	pool := cliutil.VisitedWorkers(fs, "workers", *workers)
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := graphio.ReadEdgeList(f)
		if err != nil {
			return err
		}
		// Freeze once (checked: oversized maps fail with a message, not
		// a panic) and validate through the parallel engine.
		frozen, err := g.FreezeChecked()
		if err != nil {
			return err
		}
		eng := engine.New(frozen, engine.WithWorkers(pool))
		rep, err := compare.AgainstFrozen(eng, tgt, compare.Options{PathSources: *sources, Rand: rng.New(*seed)})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.String())
		return prof.Stop()
	case *all:
		// One plan over every registered model, at pool width 1 so each
		// cell keeps its internal Workers pools.
		names := core.Names()
		cells := make([]core.Cell, len(names))
		for i, name := range names {
			cells[i] = core.Cell{Model: name, N: *n, Seed: *seed, Target: tgt, PathSources: *sources, Workers: pool}
		}
		results, _, err := core.RunCellsWith(cells, 1, nil)
		if err != nil {
			return err
		}
		reports := make(map[string]*compare.Report, len(results))
		for i, name := range names {
			reports[name] = results[i].Report
		}
		fmt.Fprintf(stdout, "model ranking against %s (N=%d, lower is better)\n", tgt.Name, *n)
		for rank, name := range compare.RankModels(reports) {
			fmt.Fprintf(stdout, "%2d. %-12s score %6.1f%%\n", rank+1, name, 100*reports[name].Score)
		}
		return prof.Stop()
	case *model != "":
		res, err := core.RunCell(core.Cell{Model: *model, N: *n, Seed: *seed, Target: tgt, PathSources: *sources, Workers: pool})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Report.String())
		return prof.Stop()
	default:
		return fmt.Errorf("one of -model, -file or -all is required")
	}
}

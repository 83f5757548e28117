// Command toposweep runs parameter sweeps: a (model × size × seed)
// grid fanned out across a worker pool, every cell validated against
// the published AS-map statistics, and the per-cell reports folded into
// cross-seed aggregates and per-size rankings — the many-maps workload
// the generator-validation literature evaluates with.
//
// Usage:
//
//	toposweep -models ba,glp,pfp -sizes 1000,2000 -seeds 1,2,3,4
//	toposweep -grid grid.json -workers 8 -format csv -o sweep.csv
//	toposweep -models ba,glp -sizes 2000 -seeds 1,2 -measure-every 500 -format json
//
// The grid comes either from the axis flags or from a JSON file
// (-grid), which can additionally carry per-model parameter overrides:
//
//	{
//	  "models": ["ba", "glp", "pfp"],
//	  "sizes": [1000, 2000],
//	  "seeds": [1, 2, 3, 4],
//	  "params": {"glp": {"beta": 0.7}},
//	  "path_sources": 200
//	}
//
// When -grid is given it specifies the sweep completely and the axis
// flags are rejected. -workers sizes the cell pool and never changes
// results: the same grid is bit-identical at every pool width, because
// each cell draws only from random streams split off its own seed.
// -cell-workers (or "cell_workers" in the grid file) switches the
// cells themselves to the sharded generation kernels — different,
// equally valid maps — and is the knob for few-huge-cell sweeps, while
// -workers is the knob for many-small-cell grids.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netmodel/internal/cliutil"
	"netmodel/internal/core"
	"netmodel/internal/graphio"
	"netmodel/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "toposweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("toposweep", flag.ContinueOnError)
	models := fs.String("models", "", "comma-separated model families to sweep")
	sizes := fs.String("sizes", "", "comma-separated target sizes")
	seeds := fs.String("seeds", "", "comma-separated replicate seeds")
	gridFile := fs.String("grid", "", "JSON grid specification (replaces the axis flags)")
	target := fs.String("target", "as", "reference target: as, asplus")
	sources := fs.Int("path-sources", 200, "BFS sources for path stats per cell (0 = exact)")
	workers := fs.Int("workers", 0, "cell pool width; 0 = GOMAXPROCS (never changes results)")
	cellWorkers := fs.Int("cell-workers", 1, "per-cell generation/engine pool; >= 2 uses the sharded kernels")
	measureEvery := fs.Int("measure-every", 0, "record growth trajectories every k nodes (growth families)")
	format := fs.String("format", "table", "output format: table, csv, json")
	out := fs.String("o", "", "output file (default stdout)")
	cacheBudget := fs.String("cache-budget", "0", "artifact-cache byte budget (e.g. 256M, 1G; -1 = unbounded, 0 = off); reuses topology/metrics/routing artifacts across cells, never changing results")
	cacheStats := fs.Bool("cache-stats", false, "report per-stage artifact-cache hit/miss/eviction counters")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	budget, err := cliutil.ParseByteSize("-cache-budget", *cacheBudget)
	if err != nil {
		return err
	}
	if err := cliutil.FirstError(
		cliutil.OneOf("-target", *target, "as", "asplus"),
		cliutil.NonNegativeInt("-path-sources", *sources),
		cliutil.NonNegativeInt("-measure-every", *measureEvery),
		cliutil.OneOf("-format", *format, "table", "csv", "json"),
	); err != nil {
		return err
	}
	var g sweep.Grid
	if *gridFile != "" {
		// The grid file specifies the sweep completely; any sweep-shaping
		// flag alongside it would be silently ignored, so reject them all
		// (-workers, -format and -o still apply — they never shape the grid).
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "models", "sizes", "seeds", "target", "path-sources", "cell-workers", "measure-every":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-grid specifies the sweep completely; drop %s", strings.Join(conflict, ", "))
		}
		f, err := os.Open(*gridFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if g, err = sweep.LoadGrid(f); err != nil {
			return err
		}
	} else {
		var err error
		g.Models = cliutil.SplitList(*models)
		if g.Sizes, err = cliutil.ParseInts(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if g.Seeds, err = cliutil.ParseSeeds(*seeds); err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		g.Target = *target
		g.PathSources = *sources
		g.CellWorkers = *cellWorkers
		g.MeasureEvery = *measureEvery
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	s, err := sweep.RunWith(g, sweep.Options{
		Workers:    *workers,
		Cache:      core.NewArtifactCache(budget),
		CacheStats: *cacheStats,
	})
	if err != nil {
		return err
	}
	if s.DuplicateCells > 0 {
		fmt.Fprintf(os.Stderr, "toposweep: warning: %d duplicate cells deduplicated\n", s.DuplicateCells)
	}
	if err := cliutil.WriteOutput(*out, stdout, func(w io.Writer) error {
		switch *format {
		case "table":
			_, err := io.WriteString(w, s.String())
			return err
		case "csv":
			return graphio.WriteSweepCSV(w, s)
		case "json":
			return graphio.WriteSweepJSON(w, s)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}); err != nil {
		return err
	}
	return prof.Stop()
}

// Command topogen generates synthetic Internet topologies.
//
// Usage:
//
//	topogen -model glp -n 11000 -seed 7 -format edgelist -o map.txt
//	topogen -model ba -n 100000 -seed 7 -workers 8 > ba.txt
//	topogen -model ba -n 100000 -measure-every 1000 -o ba.txt
//
// The model registry covers every family implemented by netmodel; run
// with -list to enumerate them. Output formats: edgelist (default),
// json, dot. -workers shards generation for the families with a
// parallel kernel (BA, GLP, PFP, Inet, BRITE, Waxman, ER, econ):
// -workers=1 (default) is the sequential reference, any fixed
// -workers>=2 is deterministic in the seed, -workers=0 uses every core.
//
// -measure-every k turns on trajectory mode for the growth families
// (BA, GLP, PFP): generation pauses every k committed nodes, the
// growing map is measured through delta-refreshed CSR snapshots (cost
// proportional to the epoch's changes, not the map), and one row of
// growth statistics per epoch is written to stderr or -trajectory-out.
// Observation never perturbs generation: the emitted map is
// bit-identical to the same run without -measure-every. -paths adds
// the incremental distance family (path lengths, diameter, closeness)
// to every epoch row; -path-sources K samples K pivots (0 = exact).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"netmodel/internal/cliutil"
	"netmodel/internal/core"
	"netmodel/internal/gen"
	"netmodel/internal/graphio"
	"netmodel/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	model := fs.String("model", "glp", "model family to generate")
	n := fs.Int("n", 11000, "target number of nodes")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "worker pool for sharded generation; 1 = sequential reference, 0 = GOMAXPROCS")
	format := fs.String("format", "edgelist", "output format: edgelist, json, dot")
	out := fs.String("o", "", "output file (default stdout)")
	measureEvery := fs.Int("measure-every", 0, "trajectory mode: measure the growing map every k nodes (growth families)")
	paths := fs.Bool("paths", false, "add incremental path metrics to trajectory rows (needs -measure-every)")
	pathSources := fs.Int("path-sources", 0, "pivot sample size for -paths (0 = exact)")
	trajOut := fs.String("trajectory-out", "", "trajectory table destination (default stderr)")
	list := fs.Bool("list", false, "list available models and exit")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	if err := cliutil.FirstError(
		cliutil.PositiveInt("-n", *n),
		cliutil.OneOf("-format", *format, "edgelist", "json", "dot"),
		cliutil.NonNegativeInt("-measure-every", *measureEvery),
		cliutil.NonNegativeInt("-path-sources", *pathSources),
	); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	if *paths && *measureEvery <= 0 {
		return fmt.Errorf("-paths requires -measure-every > 0")
	}
	if *list {
		for _, name := range core.Names() {
			m, _ := core.Lookup(name)
			fmt.Fprintf(stdout, "%-12s %s\n", name, m.Description)
		}
		return nil
	}
	m, err := core.Lookup(*model)
	if err != nil {
		return err
	}
	// -workers=1 is the sequential reference (bit-identical across
	// versions of the sharded kernel); -workers>=2 runs the sharded
	// path, whose output is deterministic in (seed) alone; -workers=0
	// shards across GOMAXPROCS.
	pool := cliutil.ResolveWorkers(*workers)
	var top *gen.Topology
	if *measureEvery > 0 {
		obs := core.NewTrajectoryObserver(pool)
		if *paths {
			if err := obs.EnablePathMetrics(*pathSources, *seed, *n); err != nil {
				return err
			}
		}
		top, err = gen.GenerateTrajectoryWith(m.Build(*n), rng.New(*seed), pool,
			gen.Trajectory{Every: *measureEvery, Observe: obs.Observe})
		if err != nil {
			return err
		}
		if err := cliutil.WriteOutput(*trajOut, os.Stderr, func(tw io.Writer) error {
			return core.WriteTrajectory(tw, obs.Points())
		}); err != nil {
			return err
		}
	} else {
		top, err = gen.GenerateWith(m.Build(*n), rng.New(*seed), pool)
		if err != nil {
			return err
		}
	}
	if err := cliutil.WriteOutput(*out, stdout, func(w io.Writer) error {
		switch *format {
		case "edgelist":
			return graphio.WriteEdgeList(w, top.G)
		case "json":
			return graphio.WriteJSON(w, top.G)
		case "dot":
			return graphio.WriteDOT(w, top.G, *model)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}); err != nil {
		return err
	}
	return prof.Stop()
}

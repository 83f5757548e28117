// Command topostat measures a topology: the full metric snapshot, the
// correlation spectra slopes, and optionally the degree CCDF series.
//
// Usage:
//
//	topostat map.txt
//	topogen -model pfp -n 5000 | topostat -ccdf -
//	topostat -measure-every 2000 map.txt
//
// -measure-every k replays the map as a growth trajectory: edges are
// re-added in sorted order and the accreting graph is measured every k
// edges through delta-refreshed CSR snapshots, printing one row of
// growth statistics per epoch before the final summary. The final
// epoch's snapshot then serves the summary itself, so the map is
// frozen exactly once either way. -paths adds the distance family
// (mean path length, diameter, mean closeness) to every trajectory
// row, maintained incrementally across epochs by the engine's
// delta-repaired distance map; -path-sources sizes its pivot sample
// (0 = exact).
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
	"netmodel/internal/graph"
	"netmodel/internal/graphio"
	"netmodel/internal/metrics"
	"netmodel/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topostat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("topostat", flag.ContinueOnError)
	sources := fs.Int("path-sources", 500, "BFS sources for path stats (0 = exact)")
	seed := fs.Uint64("seed", 1, "sampling seed")
	ccdf := fs.Bool("ccdf", false, "also print the degree CCDF series")
	measureEvery := fs.Int("measure-every", 0, "replay the map as a growth trajectory, measuring every k edges")
	paths := fs.Bool("paths", false, "add incremental path metrics to trajectory rows (needs -measure-every)")
	workers := fs.Int("workers", 0, "analysis goroutines (0 = GOMAXPROCS)")
	prof := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: topostat [flags] <edge-list file or - for stdin>")
	}
	if err := cliutil.FirstError(
		cliutil.NonNegativeInt("-path-sources", *sources),
		cliutil.NonNegativeInt("-measure-every", *measureEvery),
	); err != nil {
		return err
	}
	if *paths && *measureEvery <= 0 {
		return fmt.Errorf("-paths requires -measure-every > 0")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()
	g, err := load(fs.Arg(0), stdin)
	if err != nil {
		return err
	}
	// The shared policy: <= 0 means every core, for both the trajectory
	// observer and the metrics engine.
	pool := cliutil.ResolveWorkers(*workers)
	var eng *engine.Engine
	if *measureEvery > 0 {
		obs := core.NewTrajectoryObserver(pool)
		if *paths {
			if err := obs.EnablePathMetrics(*sources, *seed, g.N()); err != nil {
				return err
			}
		}
		if err := replayTrajectory(g, *measureEvery, obs); err != nil {
			return err
		}
		if err := core.WriteTrajectory(stdout, obs.Points()); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		eng = obs.Engine()
	} else {
		// Freeze once; every metric below reads the immutable CSR
		// snapshot through the parallel engine, sharing memoized
		// intermediates.
		frozen, err := g.FreezeChecked()
		if err != nil {
			return err
		}
		eng = engine.New(frozen, engine.WithWorkers(pool))
	}
	snap, err := eng.Measure(rng.New(*seed), *sources)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "nodes              %d\n", snap.N)
	fmt.Fprintf(stdout, "edges              %d\n", snap.M)
	fmt.Fprintf(stdout, "avg degree         %.3f\n", snap.AvgDegree)
	fmt.Fprintf(stdout, "max degree         %d\n", snap.MaxDegree)
	fmt.Fprintf(stdout, "degree exponent    %.3f (KS %.3f)\n", snap.Gamma, snap.GammaKS)
	fmt.Fprintf(stdout, "avg clustering     %.4f\n", snap.AvgClustering)
	fmt.Fprintf(stdout, "transitivity       %.4f\n", snap.Transitivity)
	fmt.Fprintf(stdout, "assortativity      %+.4f\n", snap.Assortativity)
	fmt.Fprintf(stdout, "avg path length    %.3f\n", snap.AvgPathLen)
	fmt.Fprintf(stdout, "diameter           %d\n", snap.Diameter)
	fmt.Fprintf(stdout, "max coreness       %d\n", snap.MaxCore)
	fmt.Fprintf(stdout, "giant component    %.1f%%\n", 100*snap.GiantFrac)
	sp := compare.MeasureSpectraFrozen(eng)
	fmt.Fprintf(stdout, "knn(k) slope       %.3f\n", sp.KnnSlope)
	fmt.Fprintf(stdout, "c(k) slope         %.3f\n", sp.CkSlope)
	if *ccdf {
		ks, pc := metrics.DegreeCCDFFrozen(eng.Snapshot())
		fmt.Fprintln(stdout, "# k Pc(k)")
		for i, k := range ks {
			fmt.Fprintf(stdout, "%d %.6g\n", k, pc[i])
		}
	}
	return prof.Stop()
}

// replayTrajectory re-adds the map's sorted edge list to an accreting
// graph, observing every `every` edges and once at completion; after
// the last observation the observer's engine holds the full map. The
// replayed graph matches the loaded one exactly (multiplicities and
// trailing isolated nodes included).
func replayTrajectory(g *graph.Graph, every int, obs *core.TrajectoryObserver) error {
	replay := graph.New(0)
	count := 0
	for _, e := range g.EdgeList() {
		for replay.N() <= e.U || replay.N() <= e.V {
			replay.AddNode()
		}
		for i := 0; i < e.W; i++ {
			replay.MustAddEdge(e.U, e.V)
		}
		count++
		if count%every == 0 {
			if err := obs.Observe(replay, replay.N()); err != nil {
				return err
			}
		}
	}
	for replay.N() < g.N() {
		replay.AddNode()
	}
	if count%every != 0 || replay.N() != obsN(obs) || count == 0 {
		return obs.Observe(replay, replay.N())
	}
	return nil
}

// obsN returns the node count at the observer's last epoch, -1 before
// any.
func obsN(obs *core.TrajectoryObserver) int {
	pts := obs.Points()
	if len(pts) == 0 {
		return -1
	}
	return pts[len(pts)-1].N
}

func load(path string, stdin io.Reader) (*graph.Graph, error) {
	if path == "-" {
		return graphio.ReadEdgeList(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadEdgeList(f)
}

// asmap synthesizes a full-size AS-level Internet map (N ≈ 11000, the
// May-2001 benchmark scale), runs the complete measurement battery —
// degree CCDF, correlation spectra, k-core shells, rich club, cycle
// counts — and prints each alongside the published reference values.
//
// This is the "validation figure" workflow of a generator paper,
// end to end.
package main

import (
	"fmt"
	"log"

	"netmodel/internal/compare"
	"netmodel/internal/core"
	"netmodel/internal/engine"
	"netmodel/internal/metrics"
	"netmodel/internal/refdata"
)

func main() {
	const n = 11000
	model := "pfp"
	fmt.Printf("=== synthesizing %s map at N=%d ===\n", model, n)
	res, err := core.RunCell(core.Cell{Model: model, N: n, Seed: 2001, Target: refdata.ASMap2001, PathSources: 400})
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.New(res.Topology.G.Freeze())

	fmt.Println("\n--- headline comparison ---")
	fmt.Print(res.Report)

	fmt.Println("\n--- degree CCDF (log-binned) ---")
	ks, pc := metrics.DegreeCCDFFrozen(eng.Snapshot())
	fmt.Println("k      Pc(k)")
	for i := 0; i < len(ks); i += max(1, len(ks)/12) {
		fmt.Printf("%-6d %.5f\n", ks[i], pc[i])
	}

	fmt.Println("\n--- correlation spectra ---")
	sp := compare.MeasureSpectraFrozen(eng)
	fmt.Printf("knn(k) slope: measured %.2f, AS map %.2f\n", sp.KnnSlope, refdata.ASMap2001.KnnSlope)
	fmt.Printf("c(k)  slope: measured %.2f, AS map %.2f\n", sp.CkSlope, refdata.ASMap2001.CkSlope)

	fmt.Println("\n--- k-core decomposition ---")
	kc := eng.KCore()
	shells := kc.ShellSizes()
	fmt.Printf("coreness: measured %d, AS map %d\n", kc.MaxCore, refdata.ASMap2001.MaxCore)
	fmt.Println("shell  nodes")
	for k, size := range shells {
		if size > 0 && (k <= 3 || k == kc.MaxCore || k%5 == 0) {
			fmt.Printf("%-6d %d\n", k, size)
		}
	}

	fmt.Println("\n--- rich club ---")
	rc := eng.RichClub()
	for _, pt := range rc {
		if pt.N <= 64 && pt.N >= 2 {
			fmt.Printf("top %-4d ASs (k>%d): φ = %.3f\n", pt.N, pt.K, pt.Phi)
		}
	}

	fmt.Println("\n--- short cycles (on a 4000-node subsample scale) ---")
	sub, err := core.RunCell(core.Cell{Model: model, N: 4000, Seed: 2001, Target: refdata.ASMap2001, PathSources: 1})
	if err != nil {
		log.Fatal(err)
	}
	cc := engine.New(sub.Topology.G.Freeze()).CountCycles()
	fmt.Printf("N=4000: triangles %d, 4-cycles %d, 5-cycles %d\n", cc.C3, cc.C4, cc.C5)
}

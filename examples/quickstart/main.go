// Quickstart: generate an Internet-like topology, measure it, and
// validate it against the published AS-map statistics — the three calls
// every netmodel program is built from.
package main

import (
	"fmt"
	"log"

	"netmodel/internal/compare"
	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

func main() {
	// 1. Generate: a GLP map with the Bu-Towsley calibration.
	r := rng.New(42)
	top, err := gen.GLP{N: 5000, M: 1, P: 0.45, Beta: 0.64}.Generate(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d ASs, %d links\n", top.G.N(), top.G.M())

	// 2. Measure: the canonical metric snapshot, computed by the
	// parallel engine over the frozen (CSR) map.
	eng := engine.New(top.G.Freeze())
	snap, err := eng.Measure(rng.New(1), 500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degree exponent γ = %.2f, clustering = %.3f, ⟨d⟩ = %.2f hops\n",
		snap.Gamma, snap.AvgClustering, snap.AvgPathLen)

	// 3. Validate: score against the May-2001 AS map.
	rep, err := compare.AgainstFrozen(eng, refdata.ASMap2001,
		compare.Options{PathSources: 500, Rand: rng.New(2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}

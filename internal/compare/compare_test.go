package compare

import (
	"math"
	"strings"
	"testing"

	"netmodel/internal/engine"
	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/refdata"
	"netmodel/internal/rng"
)

func TestAgainstSelfLikeTargetScoresLow(t *testing.T) {
	// A GLP map is Internet-like; its score against the AS target must be
	// far better than an ER graph of the same size.
	r := rng.New(3)
	glp, err := gen.GLP{N: 4000, M: 2, P: 0.4, Beta: 0.6}.Generate(r)
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.GNP{N: 4000, P: 0.001}.Generate(r)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{PathSources: 200, Rand: rng.New(5)}
	repGLP, err := Against(glp.G, refdata.ASMap2001, opt)
	if err != nil {
		t.Fatal(err)
	}
	repER, err := Against(er.G, refdata.ASMap2001, opt)
	if err != nil {
		t.Fatal(err)
	}
	if repGLP.Score >= repER.Score {
		t.Fatalf("GLP score %v not better than ER %v", repGLP.Score, repER.Score)
	}
}

func TestAgainstRowsComplete(t *testing.T) {
	top, err := gen.BA{N: 500, M: 2}.Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Against(top.G, refdata.ASMap2001, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if math.IsNaN(row.RelError) || row.RelError < 0 {
			t.Fatalf("bad rel error in row %+v", row)
		}
	}
	out := rep.String()
	for _, want := range []string{"avg degree", "assortativity", "aggregate score"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

func TestAgainstEmpty(t *testing.T) {
	if _, err := Against(graph.New(0), refdata.ASMap2001, Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestMeasureSpectraSlopes(t *testing.T) {
	// PFP maps have decaying knn and c(k) spectra (disassortative,
	// hierarchical); ER spectra are flat.
	pfp, err := gen.DefaultPFP(6000).Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	sp := MeasureSpectraFrozen(engine.New(pfp.G.Freeze()))
	if math.IsNaN(sp.KnnSlope) || sp.KnnSlope >= 0 {
		t.Fatalf("PFP knn slope = %v, want negative", sp.KnnSlope)
	}
	er, err := gen.GNP{N: 6000, P: 0.0015}.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	spER := MeasureSpectraFrozen(engine.New(er.G.Freeze()))
	if !math.IsNaN(spER.KnnSlope) && math.Abs(spER.KnnSlope) > math.Abs(sp.KnnSlope) {
		t.Fatalf("ER knn slope %v steeper than PFP %v", spER.KnnSlope, sp.KnnSlope)
	}
}

func TestMeasureSpectraDegenerate(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	sp := MeasureSpectraFrozen(engine.New(g.Freeze()))
	if !math.IsNaN(sp.KnnSlope) || !math.IsNaN(sp.CkSlope) {
		t.Fatalf("degenerate spectra must be NaN: %+v", sp)
	}
}

func TestRankModels(t *testing.T) {
	reports := map[string]*Report{
		"b": {Score: 0.5},
		"a": {Score: 0.1},
		"c": {Score: 0.9},
	}
	got := RankModels(reports)
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ranking = %v", got)
	}
}

// TestRankScoresDeterministic pins the tie-handling contract: equal
// scores break by name, NaN sorts last, and NaN-NaN ties — where IEEE
// comparisons are all false and a naive comparator degenerates — also
// break by name. Every permutation of the input map must rank the same.
func TestRankScoresDeterministic(t *testing.T) {
	scores := map[string]float64{
		"tie-b": 0.4, "tie-a": 0.4,
		"best": 0.1, "worst": 2.5,
		"nan-b": math.NaN(), "nan-a": math.NaN(),
	}
	want := []string{"best", "tie-a", "tie-b", "worst", "nan-a", "nan-b"}
	for trial := 0; trial < 20; trial++ {
		got := RankScores(scores)
		if len(got) != len(want) {
			t.Fatalf("ranked %d names, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ranking = %v, want %v", trial, got, want)
			}
		}
	}
}

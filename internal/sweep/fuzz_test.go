package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadGrid feeds arbitrary bytes to LoadGrid and validates what it
// decodes. Property: neither panics, and a grid that loads and
// validates has a stable encoding — it reloads to a grid that encodes
// to the same bytes and round-trips from then on to a DeepEqual value.
// The first reload may differ from the input grid only where an
// omitempty collection was present but empty ("failures": [],
// "params": {}), which reloads as absent — the same sweep. Plain
// `go test` runs the seeds (the validation rows, valid and invalid);
// explore further with
//
//	go test ./internal/sweep -run '^$' -fuzz FuzzLoadGrid
func FuzzLoadGrid(f *testing.F) {
	add := func(g Grid) {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	add(testGrid())
	add(workloadGrid())
	add(failureGrid())
	for _, g := range gridErrorRows {
		add(g)
	}
	for _, mut := range workloadGridMutations {
		g := workloadGrid()
		mut(&g)
		add(g)
	}
	f.Add(`{"models": ["ba", "glp"], "sizes": [500], "seeds": [1, 2],
		"params": {"glp": {"beta": 0.7}}, "path_sources": 50}`)
	f.Add(`{"modles": ["ba"]}`)
	f.Add(`{"models":["glp"],"sizes":[1],"seeds":[0],"workload":{"load_factors":[10],"failures":[]}}`)
	f.Fuzz(func(t *testing.T, in string) {
		g, err := LoadGrid(strings.NewReader(in))
		if err != nil || g.Validate() != nil {
			return
		}
		data, canon := reloadGrid(t, g)
		again, back := reloadGrid(t, canon)
		if !bytes.Equal(again, data) || !reflect.DeepEqual(back, canon) {
			t.Fatalf("round trip changed grid:\n%s\n%s", data, again)
		}
	})
}

// reloadGrid encodes g and loads the encoding back.
func reloadGrid(t *testing.T, g Grid) ([]byte, Grid) {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("encoding accepted grid: %v", err)
	}
	back, err := LoadGrid(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reloading accepted grid: %v\n%s", err, data)
	}
	return data, back
}

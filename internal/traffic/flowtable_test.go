package traffic

import (
	"slices"
	"testing"

	"netmodel/internal/rng"
)

// TestPathArenaMatchesModel drives a pathArena through random scripts of
// admissions, departures and reroutes — shorter ones rewritten in place,
// longer ones pushed out of order — compacting whenever the arena is
// crowded, and checks every live span against a model of plain slices
// after each step. Live spans are relocated in table order, as the
// engines do, so both the in-place and the spare-slab compaction run.
func TestPathArenaMatchesModel(t *testing.T) {
	r := rng.New(17)
	compactions := [2]int{} // in place, via the spare slab
	var a pathArena
	for script := 0; script < 50; script++ {
		a.reset()
		var spans []pathSpan
		var model [][]int32
		randomPath := func() []int32 {
			p := make([]int32, 1+r.Intn(9))
			for i := range p {
				p[i] = int32(r.Intn(1 << 20))
			}
			return p
		}
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4 || len(spans) == 0:
				p := randomPath()
				spans = append(spans, a.push(p, nil))
				model = append(model, p)
			case op < 7:
				i := r.Intn(len(spans))
				a.drop(spans[i])
				spans = slices.Delete(spans, i, i+1)
				model = slices.Delete(model, i, i+1)
			default:
				i := r.Intn(len(spans))
				p := randomPath()
				spans[i] = a.replace(spans[i], p)
				model[i] = p
			}
			if a.crowded() {
				if a.ordered {
					compactions[0]++
				} else {
					compactions[1]++
				}
				a.begin()
				for i := range spans {
					spans[i] = a.relocate(spans[i])
				}
				a.end()
				if a.dead != 0 {
					t.Fatalf("script %d step %d: %d dead ids after compaction", script, step, a.dead)
				}
			}
			for i, s := range spans {
				if !slices.Equal(a.path(s), model[i]) {
					t.Fatalf("script %d step %d: span %d reads %v, want %v", script, step, i, a.path(s), model[i])
				}
			}
		}
	}
	if compactions[0] == 0 || compactions[1] == 0 {
		t.Fatalf("compactions in place %d, via the spare slab %d: want both", compactions[0], compactions[1])
	}
}

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

// TestFlowTableMatchesModel drives a flowTable through random scripts of
// admissions, in-place updates and compaction passes — each keeping a
// random subset of the flows in order, as the failure walk and the
// advance loop do — and checks both columns of every flow against a
// slice-of-structs model after each step. The table is pooled across
// scripts: each script after the first starts from the previous one's
// chunks at length zero and stays smaller, so every chunk it reads was
// written by an earlier, larger run and only add and put may make it
// right.
func TestFlowTableMatchesModel(t *testing.T) {
	type flow struct {
		hot  flowHot
		cold flowCold
	}
	r := rng.New(23)
	var ft flowTable
	randomFlow := func() flow {
		return flow{
			hot: flowHot{path: pathSpan{int32(r.Intn(1 << 20)), int32(1 + r.Intn(9))}, rate: r.Float64()},
			cold: flowCold{src: int32(r.Intn(1000)), dst: int32(r.Intn(1000)), id: int32(r.Intn(1 << 30)),
				retries: int32(r.Intn(3)), remaining: r.Float64(), arrived: r.Float64()},
		}
	}
	for script, target := range []int{3 << flowChunkBits, 1 << flowChunkBits, 100} {
		ft.n = 0
		var model []flow
		for step := 0; len(model) < target; step++ {
			switch op := r.Intn(4); {
			case op < 2:
				for k := r.Intn(2 * target / 10); k >= 0; k-- {
					f := randomFlow()
					ft.add(f.hot, f.cold)
					model = append(model, f)
				}
			case op == 2:
				i := r.Intn(len(model) + 1)
				if i == len(model) {
					continue
				}
				g := randomFlow()
				*ft.hotAt(i), *ft.coldAt(i) = g.hot, g.cold
				model[i] = g
			default:
				keep := r.Float64()
				w := 0
				kept := model[:0]
				for i, f := range model {
					if r.Float64() < keep {
						w = ft.put(w, i)
						kept = append(kept, f)
					}
				}
				ft.n, model = w, kept
			}
			if ft.n != len(model) {
				t.Fatalf("script %d step %d: table holds %d flows, model %d", script, step, ft.n, len(model))
			}
			for i, f := range model {
				if *ft.hotAt(i) != f.hot || *ft.coldAt(i) != f.cold {
					t.Fatalf("script %d step %d: flow %d reads %+v %+v, want %+v %+v",
						script, step, i, *ft.hotAt(i), *ft.coldAt(i), f.hot, f.cold)
				}
			}
		}
		if script == 0 && len(ft.hot) < 3 {
			t.Fatalf("first script grew %d chunks, want at least 3", len(ft.hot))
		}
	}
	if len(ft.hot) != len(ft.cold) {
		t.Fatalf("%d hot chunks, %d cold", len(ft.hot), len(ft.cold))
	}
}

package graph_test

import (
	"testing"
	"unsafe"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// TestRefreshArenaReuse pins how often a growth trajectory's refreshes
// allocate a new arc arena. GLP growth mixes pure row appends with
// interleaved inserts on old rows, which relocate every epoch; those
// relocations must land in the arena's spare capacity, so a new arena
// (compaction or doubling) is the exception, not the per-epoch rule.
func TestRefreshArenaReuse(t *testing.T) {
	var prev *graph.Snapshot
	refreshes, arenas := 0, 0
	_, err := (gen.GLP{N: 20000, M: 1, P: 0.45, Beta: 0.64}).GenerateTrajectory(rng.New(1), 1, gen.Trajectory{
		Every: 200,
		Observe: func(g *graph.Graph, n int) error {
			next, d, err := g.Refreeze(prev)
			if err != nil {
				return err
			}
			if prev != nil {
				if d == nil {
					t.Fatalf("epoch at %d nodes: full freeze, want a delta refresh", n)
				}
				refreshes++
				_, _, before := prev.CSR()
				_, _, after := next.CSR()
				if unsafe.SliceData(before) != unsafe.SliceData(after) {
					arenas++
				}
			}
			prev = next
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d new arenas in %d refreshes", arenas, refreshes)
	if refreshes != 99 {
		t.Fatalf("%d refreshes, want 99", refreshes)
	}
	if arenas > 40 {
		t.Fatalf("%d of %d refreshes allocated a new arc arena, want at most 40", arenas, refreshes)
	}
}

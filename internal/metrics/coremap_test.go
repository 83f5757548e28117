package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

// verifyCoreOrder checks the k-order invariant of cm against its
// snapshot: each level's list is well linked, holds exactly the nodes of
// that coreness and has strictly increasing labels; every stored deg+
// equals a recount of the neighbors later in the order and is at most
// the node's coreness; the pass scratch is back to zero.
func verifyCoreOrder(cm *CoreMap) error {
	s := cm.s
	n := s.N()
	if len(cm.core) != n {
		return fmt.Errorf("state covers %d nodes, snapshot %d", len(cm.core), n)
	}
	seen := 0
	for k := range cm.head {
		p := int32(-1)
		for x := cm.head[k]; x >= 0; x = cm.next[x] {
			if cm.core[x] != int32(k) {
				return fmt.Errorf("node %d of level %d has coreness %d", x, k, cm.core[x])
			}
			if cm.prev[x] != p {
				return fmt.Errorf("node %d: prev %d, want %d", x, cm.prev[x], p)
			}
			if p >= 0 && cm.label[p] >= cm.label[x] {
				return fmt.Errorf("level %d: label %d of %d not after %d of %d", k, cm.label[x], x, cm.label[p], p)
			}
			if cm.label[x] >= labelSpace {
				return fmt.Errorf("node %d: label %d outside the label space", x, cm.label[x])
			}
			p = x
			if seen++; seen > n {
				return fmt.Errorf("level lists hold more than %d nodes", n)
			}
		}
		if cm.tail[k] != p {
			return fmt.Errorf("level %d: tail %d, want %d", k, cm.tail[k], p)
		}
	}
	if seen != n {
		return fmt.Errorf("level lists hold %d of %d nodes", seen, n)
	}
	maxCore := 0
	for v := 0; v < n; v++ {
		later := int32(0)
		for _, u := range s.Neighbors(v) {
			if cm.core[u] > cm.core[v] || (cm.core[u] == cm.core[v] && cm.label[u] > cm.label[v]) {
				later++
			}
		}
		if cm.dplus[v] != later {
			return fmt.Errorf("node %d: deg+ %d, recount %d", v, cm.dplus[v], later)
		}
		if later > cm.core[v] {
			return fmt.Errorf("node %d: deg+ %d above coreness %d", v, later, cm.core[v])
		}
		if cm.dstar[v] != 0 || cm.state[v] != untouched || cm.pend[v] != 0 {
			return fmt.Errorf("node %d: pass scratch left dirty", v)
		}
		maxCore = max(maxCore, int(cm.core[v]))
	}
	if maxCore != cm.maxCore {
		return fmt.Errorf("MaxCore %d, want %d", cm.maxCore, maxCore)
	}
	return nil
}

// requireCoreMap pins cm to a cold peel of its snapshot and checks its
// order invariant.
func requireCoreMap(t *testing.T, tag string, cm *CoreMap) {
	t.Helper()
	if err := verifyCoreOrder(cm); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if got, want := cm.Result(), KCoreFrozen(cm.s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: k-core diverged from the peel (max %d vs %d)", tag, got.MaxCore, want.MaxCore)
	}
}

// growCoreMap runs a growth family as a trajectory observed every
// `every` arrivals, refreshing one CoreMap per epoch and handing it to
// check. It returns the number of epochs observed.
func growCoreMap(t *testing.T, g gen.TrajectoryGenerator, seed uint64, every int, check func(cm *CoreMap)) int {
	t.Helper()
	var (
		prev   *graph.Snapshot
		cm     *CoreMap
		epochs int
	)
	_, err := g.GenerateTrajectory(rng.New(seed), 1, gen.Trajectory{
		Every: every,
		Observe: func(gr *graph.Graph, _ int) error {
			epochs++
			if prev == nil {
				s, err := gr.FreezeChecked()
				prev, cm = s, NewCoreMap(s)
				check(cm)
				return err
			}
			next, d, err := gr.Refreeze(prev)
			if err != nil {
				return err
			}
			if d == nil {
				return fmt.Errorf("epoch %d: refreeze fell back to a full freeze", epochs)
			}
			cm.Refresh(next, d)
			prev = next
			check(cm)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return epochs
}

// TestCoreMapGLPGrowth replays the regime where a budgeted subcore
// traversal gave up on every epoch: glp growth at n = 20000 with an
// epoch every 200 arrivals, every epoch pinned to the peel.
func TestCoreMapGLPGrowth(t *testing.T) {
	epochs := growCoreMap(t, gen.GLP{N: 20000, M: 1, P: 0.45, Beta: 0.64}, 1, 200, func(cm *CoreMap) {
		requireCoreMap(t, fmt.Sprintf("glp n=%d", cm.s.N()), cm)
	})
	if epochs < 90 {
		t.Fatalf("observed %d epochs, want about 100", epochs)
	}
}

// TestCoreMapInsertionsNeverRebuild: on insertion-only growth the
// construction peel is the only one; every later epoch is incremental.
func TestCoreMapInsertionsNeverRebuild(t *testing.T) {
	for _, fam := range []gen.TrajectoryGenerator{
		gen.BA{N: 3000, M: 2},
		gen.GLP{N: 3000, M: 1, P: 0.45, Beta: 0.64},
		gen.DefaultPFP(3000),
	} {
		for _, seed := range []uint64{1, 3, 7} {
			var last *CoreMap
			epochs := growCoreMap(t, fam, seed, 100, func(cm *CoreMap) {
				requireCoreMap(t, fmt.Sprintf("%s/%d n=%d", fam.Name(), seed, cm.s.N()), cm)
				last = cm
			})
			if last.Rebuilds() != 0 || last.Refreshes() != epochs-1 {
				t.Fatalf("%s/%d: %d rebuilds, %d refreshes over %d epochs; want 0 and %d",
					fam.Name(), seed, last.Rebuilds(), last.Refreshes(), epochs, epochs-1)
			}
		}
	}
}

// TestCoreMapRemovalRebuilds: a delta with removals, a nil delta and a
// foreign base each re-peel and are counted as rebuilds.
func TestCoreMapRemovalRebuilds(t *testing.T) {
	g := graph.New(6)
	for u := 1; u < 6; u++ {
		g.MustAddEdge(u-1, u)
	}
	g.MustAddEdge(0, 5)
	prev := g.Freeze()
	cm := NewCoreMap(prev)
	if err := g.RemoveEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	next, d, err := g.Refreeze(prev)
	if err != nil || d == nil {
		t.Fatalf("refreeze: %v", err)
	}
	cm.Refresh(next, d)
	requireCoreMap(t, "removal", cm)
	g.MustAddEdge(2, 3)
	cm.Refresh(g.Freeze(), nil)
	requireCoreMap(t, "nil delta", cm)
	cm.Refresh(next, d) // d extends prev, not the state's snapshot
	requireCoreMap(t, "foreign base", cm)
	if cm.Rebuilds() != 3 || cm.Refreshes() != 0 {
		t.Fatalf("%d rebuilds, %d refreshes; want 3 and 0", cm.Rebuilds(), cm.Refreshes())
	}
}

// TestCoreMapRelabels moves nodes to the same two spots of a level —
// the head, and right after it — until the labels there run out, so
// the list-labeling relabel must spread them without breaking the order.
func TestCoreMapRelabels(t *testing.T) {
	cm := NewCoreMap(graph.New(300).Freeze())
	for i := 0; i < 250; i++ {
		x := cm.tail[0]
		cm.unlink(0, x)
		if i%2 == 0 {
			cm.link(0, -1, x)
		} else {
			cm.link(0, cm.head[0], x)
		}
	}
	if err := verifyCoreOrder(cm); err != nil {
		t.Fatal(err)
	}
}

// FuzzCoreMap decodes bytes into a multi-epoch script — the first byte
// sizes the initial node set, then (op, a, b) triples add nodes, insert
// or remove edges, or close epochs — and runs it through Refreeze. After
// every epoch the refreshed CoreMap must match a cold peel (and the
// brute-force decomposition on small graphs) and keep its k-order
// invariant.
func FuzzCoreMap(f *testing.F) {
	// Cycle closure: a 12-node path, then the edge that closes it.
	cycle := []byte{12}
	for u := byte(1); u < 12; u++ {
		cycle = append(cycle, 1, u-1, u)
	}
	cycle = append(cycle, 3, 0, 0, 1, 0, 11)
	f.Add(cycle)
	f.Add([]byte{4, 1, 0, 1, 1, 1, 2, 1, 2, 0, 3, 0, 0, 0, 0, 0, 1, 4, 0, 1, 4, 1, 1, 4, 2, 3, 0, 0, 2, 0, 1, 3, 0, 0})
	f.Add([]byte{6, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 2, 1, 1, 3, 1, 2, 3, 3, 0, 0, 1, 4, 5, 1, 4, 0, 2, 2, 3, 1, 5, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if len(script) > 1+3*600 {
			script = script[:1+3*600]
		}
		g := graph.New(int(script[0] % 16))
		prev := g.Freeze()
		cm := NewCoreMap(prev)
		epochs := 0
		epoch := func() {
			epochs++
			next, d, err := g.Refreeze(prev)
			if err != nil {
				t.Fatal(err)
			}
			cm.Refresh(next, d)
			prev = next
			tag := fmt.Sprintf("epoch %d n=%d", epochs, prev.N())
			requireCoreMap(t, tag, cm)
			if prev.N() <= 64 {
				if got, want := cm.Result().Coreness, bruteCoreness(g); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: coreness %v, brute force %v", tag, got, want)
				}
			}
		}
		for i := 1; i+2 < len(script); i += 3 {
			op, a, b := script[i]%4, int(script[i+1]), int(script[i+2])
			switch {
			case op == 3:
				epoch()
			case op == 0:
				g.AddNode()
			case g.N() == 0:
			case op == 1:
				if u, v := a%g.N(), b%g.N(); u != v {
					g.MustAddEdge(u, v)
				}
			default:
				if u, v := a%g.N(), b%g.N(); g.HasEdge(u, v) {
					if err := g.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		epoch()
	})
}

package artifact

import (
	"fmt"
	"reflect"
	"testing"
)

// cacheModel is the list model of Cache: lru[0] is the most recently
// used entry, and the counters and stage order follow the documented
// rules with no intrusive list, map or mutex.
type cacheModel struct {
	budget int64
	lru    []modelEntry
	stats  []StageStats
}

type modelEntry struct {
	ckey
	val   int
	bytes int64
}

func (m *cacheModel) stage(name string) *StageStats {
	for i := range m.stats {
		if m.stats[i].Stage == name {
			return &m.stats[i]
		}
	}
	m.stats = append(m.stats, StageStats{Stage: name})
	return &m.stats[len(m.stats)-1]
}

func (m *cacheModel) find(k ckey) int {
	for i, e := range m.lru {
		if e.ckey == k {
			return i
		}
	}
	return -1
}

func (m *cacheModel) drop(i int) modelEntry {
	e := m.lru[i]
	m.lru = append(m.lru[:i], m.lru[i+1:]...)
	return e
}

func (m *cacheModel) used() int64 {
	var sum int64
	for _, e := range m.lru {
		sum += e.bytes
	}
	return sum
}

// probe is Get (take false) or Take (take true).
func (m *cacheModel) probe(k ckey, take bool) (int, bool) {
	st := m.stage(k.stage)
	i := m.find(k)
	if i < 0 {
		st.Misses++
		return 0, false
	}
	st.Hits++
	e := m.drop(i)
	if !take {
		m.lru = append([]modelEntry{e}, m.lru...)
	}
	return e.val, true
}

func (m *cacheModel) put(k ckey, val int, bytes int64) {
	st := m.stage(k.stage)
	if i := m.find(k); i >= 0 {
		m.drop(i)
	}
	if m.budget > 0 && bytes > m.budget {
		st.Evictions++
		return
	}
	m.lru = append([]modelEntry{{ckey: k, val: val, bytes: bytes}}, m.lru...)
	for m.budget > 0 && m.used() > m.budget && len(m.lru) > 1 {
		victim := m.drop(len(m.lru) - 1)
		m.stage(victim.stage).Evictions++
	}
}

// FuzzArtifactCache runs byte-scripted Put/Get/Take/Miss sequences over
// three stages and four keys against the list model. The first byte
// picks the budget: 0 (the inert nil cache), 1..39 bytes, or unbounded
// for values from 240 up. Each (op, a, b) triple is one call; Put
// declares b mod 48 bytes, so entries larger than small budgets are
// rejected. After every call the cache must agree with the model on the
// returned value, the LRU order, Len, Used, and every counter, and Used
// must stay within a positive budget.
func FuzzArtifactCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 1, 0, 0, 2, 0, 0, 3, 1, 0})
	f.Add([]byte{10, 0, 0, 4, 0, 1, 4, 0, 2, 4, 1, 0, 0, 0, 3, 4, 1, 1, 0, 2, 0, 0, 2, 2, 0, 3, 2, 0})
	f.Add([]byte{12, 0, 0, 30, 0, 1, 5, 1, 1, 0, 2, 1, 0, 0, 4, 12, 0, 5, 12, 1, 4, 0, 3, 5, 0})
	f.Add([]byte{250, 0, 0, 40, 0, 1, 40, 0, 2, 40, 1, 0, 0, 2, 1, 0, 3, 2, 0, 0, 0, 0})
	stages := []string{"snapshot", "engine", "routing"}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		budget := int64(script[0] % 40)
		if script[0] >= 240 {
			budget = -1
		}
		// "routing" is registered on first use, after the New stages.
		c := New(budget, stages[:2]...)
		m := &cacheModel{budget: budget}
		if c != nil {
			for _, st := range stages[:2] {
				m.stage(st)
			}
		}
		for i := 1; i+2 < len(script); i += 3 {
			op, a, b := script[i]%4, int(script[i+1]), script[i+2]
			k := ckey{stages[a%3], fmt.Sprint("k", a/3%4)}
			tag := fmt.Sprintf("call %d (op %d %v)", i/3, op, k)
			switch op {
			case 0:
				c.Put(k.stage, k.key, i, int64(b%48))
				if c != nil {
					m.put(k, i, int64(b%48))
				}
			case 1, 2:
				var v any
				var ok bool
				if op == 1 {
					v, ok = c.Get(k.stage, k.key)
				} else {
					v, ok = c.Take(k.stage, k.key)
				}
				var want any
				var wantOK bool
				if c != nil {
					var val int
					val, wantOK = m.probe(k, op == 2)
					if wantOK {
						want = val
					}
				}
				if ok != wantOK || v != want {
					t.Fatalf("%s: probe = %v, %v; model %v, %v", tag, v, ok, want, wantOK)
				}
			case 3:
				c.Miss(k.stage)
				if c != nil {
					m.stage(k.stage).Misses++
				}
			}
			requireModel(t, tag, c, m)
		}
	})
}

// requireModel compares the cache's LRU list, size and counters with
// the model.
func requireModel(t *testing.T, tag string, c *Cache, m *cacheModel) {
	t.Helper()
	if c == nil {
		if c.Len() != 0 || c.Used() != 0 || !reflect.DeepEqual(c.Stats(), Stats{}) {
			t.Fatalf("%s: inert cache is not empty", tag)
		}
		return
	}
	lru := []modelEntry{}
	for e := c.head; e != nil; e = e.next {
		lru = append(lru, modelEntry{ckey: e.ckey, val: e.val.(int), bytes: e.bytes})
	}
	if !reflect.DeepEqual(lru, append([]modelEntry{}, m.lru...)) {
		t.Fatalf("%s: LRU order %v, model %v", tag, lru, m.lru)
	}
	if c.Len() != len(m.lru) || c.Used() != m.used() {
		t.Fatalf("%s: len %d used %d, model %d and %d", tag, c.Len(), c.Used(), len(m.lru), m.used())
	}
	if m.budget > 0 && c.Used() > m.budget {
		t.Fatalf("%s: used %d over budget %d", tag, c.Used(), m.budget)
	}
	want := Stats{Budget: m.budget, Used: m.used(), Entries: len(m.lru), Stages: m.stats}
	if got := c.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stats %+v, model %+v", tag, got, want)
	}
}

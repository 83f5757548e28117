package traffic

// This file holds the engines' flow storage: the epoch engine's flow
// records in a chunked two-column table, and both engines' flow paths in
// one arena. Neither holds a pointer per flow, so a few hundred thousand
// live flows cost 48 bytes and their path ids each, growth never copies
// the records, and the collector has nothing to scan.

// flowHot is the part of an epoch-engine flow the water-filler reads:
// its path, a span of the run's pathArena, and its rate. 16 bytes, so
// the filler's random reads by table index stay within a column a third
// the size of the whole records.
type flowHot struct {
	path pathSpan // snapshot edge ids
	rate float64  // current max-min rate; -1 while unallocated
}

// flowCold is the rest of an epoch-engine flow, read when it advances,
// completes, reroutes or is re-admitted. 32 bytes.
type flowCold struct {
	src, dst  int32
	id        int32 // admission index, the trace identity
	retries   int32 // re-admission attempts consumed so far
	remaining float64
	arrived   float64 // arrival instant
}

// flowChunkBits sizes a flowTable chunk: 4096 flows, 64 KiB of hot and
// 128 KiB of cold column.
const flowChunkBits = 12

// flowTable is the epoch engine's active-flow list in admission order,
// held as two columns of fixed-size chunks side by side: flow i is
// hotAt(i) and coldAt(i). Growing it adds one chunk to each column and
// never copies a flow; leaving flows are compacted out in place (put),
// which moves both columns and keeps the order — it fixes the
// water-fill's link order and the completion sums — exactly that of a
// slice compacted the same way. Chunks past the length stay for reuse,
// so a table pooled across runs allocates only when a run outgrows
// every earlier one.
type flowTable struct {
	hot  [][]flowHot
	cold [][]flowCold
	n    int
}

const flowChunkMask = 1<<flowChunkBits - 1

// hotAt returns flow i's hot record (i < n).
func (t *flowTable) hotAt(i int) *flowHot {
	return &t.hot[i>>flowChunkBits][i&flowChunkMask]
}

// coldAt returns flow i's cold record (i < n).
func (t *flowTable) coldAt(i int) *flowCold {
	return &t.cold[i>>flowChunkBits][i&flowChunkMask]
}

// add appends a flow.
func (t *flowTable) add(h flowHot, c flowCold) {
	if t.n == len(t.hot)<<flowChunkBits {
		t.hot = append(t.hot, make([]flowHot, 1<<flowChunkBits))
		t.cold = append(t.cold, make([]flowCold, 1<<flowChunkBits))
	}
	t.n++
	*t.hotAt(t.n - 1), *t.coldAt(t.n - 1) = h, c
}

// put moves flow i (i >= w) to index w of a compaction pass and returns
// the next write index. The pass ends with t.n = the final write index.
func (t *flowTable) put(w, i int) int {
	if w != i {
		*t.hotAt(w), *t.coldAt(w) = *t.hotAt(i), *t.coldAt(i)
	}
	return w + 1
}

// pathSpan locates one flow's path in a pathArena: ids[off:off+hops].
type pathSpan struct{ off, hops int32 }

// pathArena holds both engines' flow paths back to back in one slab, so
// a flow owns its path without a buffer (or a pointer) of its own. A
// path is pushed on admission and abandoned (drop) when its flow leaves
// or reroutes. Once abandoned ids outnumber live ones the engine
// compacts: begin, relocate every live span, end. While the spans lie
// in the order the engine relocates them — the case unless an epoch
// engine reroute outgrew its old span — compaction slides them down in
// place; otherwise it copies them into the spare slab and the two swap.
// The slab doubles when it grows, so reaching its peak copies it about
// once rather than the four times append's 1.25x steps would, and a
// pooled arena allocates nothing once it reaches its high-water mark.
type pathArena struct {
	ids, spare []int32
	dead       int  // abandoned ids in ids
	ordered    bool // spans lie in relocation order
	w          int  // next write position of an in-place compaction
}

// maxArenaIDs bounds the slab so every span fits int32 offsets.
const maxArenaIDs = 1<<31 - 1

// reset empties the arena for a run, keeping its slabs.
func (a *pathArena) reset() {
	a.ids, a.spare, a.dead, a.ordered = a.ids[:0], a.spare[:0], 0, true
}

// path returns the ids of s.
func (a *pathArena) path(s pathSpan) []int32 {
	return a.ids[s.off : s.off+s.hops : s.off+s.hops]
}

// push appends path, mapped through xlate when it is non-nil (fault
// injection's mirror-to-base edge ids), and returns its span.
func (a *pathArena) push(path, xlate []int32) pathSpan {
	need := len(a.ids) + len(path)
	if need > maxArenaIDs {
		panic("traffic: flow path arena overflow")
	}
	if need > cap(a.ids) {
		grown := make([]int32, len(a.ids), min(max(2*cap(a.ids), need, 1024), maxArenaIDs))
		copy(grown, a.ids)
		a.ids = grown
	}
	s := pathSpan{int32(len(a.ids)), int32(len(path))}
	if xlate == nil {
		a.ids = append(a.ids, path...)
		return s
	}
	for _, e := range path {
		a.ids = append(a.ids, xlate[e])
	}
	return s
}

// replace makes path the flow's path in place of s: in s's own ids when
// it fits, else pushed at the end, which leaves the spans out of order.
func (a *pathArena) replace(s pathSpan, path []int32) pathSpan {
	if len(path) <= int(s.hops) {
		copy(a.ids[s.off:], path)
		a.dead += int(s.hops) - len(path)
		return pathSpan{s.off, int32(len(path))}
	}
	a.drop(s)
	a.ordered = false
	return a.push(path, nil)
}

// drop abandons s.
func (a *pathArena) drop(s pathSpan) { a.dead += int(s.hops) }

// crowded reports whether abandoned ids outnumber live ones, the cue to
// compact.
func (a *pathArena) crowded() bool { return 2*a.dead > len(a.ids) }

// begin opens a compaction. The engine then passes every live span
// through relocate, in table order, and closes with end.
func (a *pathArena) begin() { a.w = 0 }

// relocate moves s to the compacted layout and returns its new span.
func (a *pathArena) relocate(s pathSpan) pathSpan {
	if !a.ordered {
		off := len(a.spare)
		a.spare = append(a.spare, a.path(s)...)
		return pathSpan{int32(off), s.hops}
	}
	// Ordered spans start at or after the write position, and copy is a
	// memmove, so sliding down never clobbers a span not yet moved.
	off := a.w
	a.w += copy(a.ids[off:], a.path(s))
	return pathSpan{int32(off), s.hops}
}

// end closes a compaction.
func (a *pathArena) end() {
	if a.ordered {
		a.ids = a.ids[:a.w]
	} else {
		a.ids, a.spare = a.spare, a.ids[:0]
	}
	a.dead, a.ordered = 0, true
}

package traffic

// This file holds the engines' flow storage: the epoch engine's flow
// records in a chunked table, and both engines' flow paths in one arena.
// Neither holds a pointer per flow, so a few hundred thousand live flows
// cost one record and their path ids each, growth never copies the
// records, and the collector has nothing to scan.

// simFlow is one in-flight flow of the epoch engine. Its path is a span
// of the run's pathArena, which keeps the record at 48 bytes.
type simFlow struct {
	src, dst  int32
	id        int32    // admission index, the trace identity
	retries   int32    // re-admission attempts consumed so far
	path      pathSpan // snapshot edge ids
	remaining float64
	arrived   float64 // arrival instant
	rate      float64 // current max-min rate; -1 while unallocated
}

// flowChunkBits sizes a flowTable chunk: 4096 records, 192 KiB.
const flowChunkBits = 12

// flowTable is the epoch engine's active-flow list: simFlow records in
// admission order, held in fixed-size chunks. Growing it adds a chunk
// and never copies the records; leaving flows are compacted out in
// place (put), which keeps the order — it fixes the water-fill's link
// order and the completion sums — exactly that of a slice compacted the
// same way. Chunks past the length stay for reuse, so a table pooled
// across runs allocates only when a run outgrows every earlier one.
type flowTable struct {
	chunks [][]simFlow
	n      int
}

// at returns record i (i < n).
func (t *flowTable) at(i int) *simFlow {
	return &t.chunks[i>>flowChunkBits][i&(1<<flowChunkBits-1)]
}

// add appends a record and returns it for the caller to fill.
func (t *flowTable) add() *simFlow {
	if t.n == len(t.chunks)<<flowChunkBits {
		t.chunks = append(t.chunks, make([]simFlow, 1<<flowChunkBits))
	}
	t.n++
	return t.at(t.n - 1)
}

// put stores f, a record at index >= w, at index w of a compaction
// pass and returns the next write index. The pass ends with
// t.n = the final write index.
func (t *flowTable) put(w int, f *simFlow) int {
	if g := t.at(w); g != f {
		*g = *f
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

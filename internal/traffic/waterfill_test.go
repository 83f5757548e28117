package traffic

import (
	"math"
	"slices"
	"testing"

	"netmodel/internal/rng"
)

// simFlow is the epoch engine's flow record as it was before the flow
// table split into a hot and a cold column: one 48-byte record per flow
// in a chunked table. It survives as the layout of the record-major
// water-fill oracle and of the kernels-waterfill-records baseline arm.
type simFlow struct {
	src, dst  int32
	id        int32
	retries   int32
	path      pathSpan
	remaining float64
	arrived   float64
	rate      float64 // -1 while unallocated
}

// recordTable is the record-major flow table: simFlow records in
// 4096-record chunks.
type recordTable struct {
	chunks [][]simFlow
	n      int
}

func (t *recordTable) at(i int) *simFlow {
	return &t.chunks[i>>flowChunkBits][i&flowChunkMask]
}

func (t *recordTable) add() *simFlow {
	if t.n == len(t.chunks)<<flowChunkBits {
		t.chunks = append(t.chunks, make([]simFlow, 1<<flowChunkBits))
	}
	t.n++
	return t.at(t.n - 1)
}

// loadRecords makes t the record-major copy of the columns of ft,
// reusing t's chunks.
func (t *recordTable) loadRecords(ft *flowTable) {
	t.n = 0
	for i := 0; i < ft.n; i++ {
		h, c := ft.hotAt(i), ft.coldAt(i)
		*t.add() = simFlow{src: c.src, dst: c.dst, id: c.id, retries: c.retries,
			path: h.path, remaining: c.remaining, arrived: c.arrived, rate: h.rate}
	}
}

// fillRecords is the record-major water-fill the column filler
// replaced, kept verbatim as its oracle: the same pooled link state,
// with "already fixed" read off each record's rate (-1 while
// unallocated) instead of a bitset.
func fillRecords(wf *wfState, active *recordTable, arena *pathArena, capEdge []float64) {
	wf.links = wf.links[:0]
	for fi := 0; fi < active.n; fi++ {
		f := active.at(fi)
		f.rate = -1
		for _, e := range arena.path(f.path) {
			if wf.nflows[e] == 0 {
				wf.links = append(wf.links, e)
				wf.capRem[e] = capEdge[e]
			}
			wf.nflows[e]++
		}
	}
	arcs := int32(0)
	for _, e := range wf.links {
		wf.lstart[e], wf.lend[e] = arcs, arcs
		arcs += wf.nflows[e]
	}
	if int(arcs) > cap(wf.slab) {
		wf.slab = make([]int32, arcs, max(int(arcs), 2*cap(wf.slab)))
	}
	wf.slab = wf.slab[:arcs]
	for fi := 0; fi < active.n; fi++ {
		for _, e := range arena.path(active.at(fi).path) {
			wf.slab[wf.lend[e]] = int32(fi)
			wf.lend[e]++
		}
	}
	for unfixed := active.n; unfixed > 0; {
		best := int32(-1)
		var bestShare float64
		for _, e := range wf.links {
			if wf.nflows[e] == 0 {
				continue
			}
			share := wf.capRem[e] / float64(wf.nflows[e])
			if best < 0 || share < bestShare {
				best, bestShare = e, share
			}
		}
		if best < 0 {
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, fi := range wf.slab[wf.lstart[best]:wf.lend[best]] {
			f := active.at(int(fi))
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfixed--
			for _, e := range arena.path(f.path) {
				wf.capRem[e] -= bestShare
				wf.nflows[e]--
			}
		}
		wf.capRem[best] = 0
	}
}

// endFill zeroes the carrying links' flow counts, as the epoch loop's
// observation pass does after every fill.
func (wf *wfState) endFill() {
	for _, e := range wf.links {
		wf.nflows[e] = 0
	}
}

// sameFill reports the first difference between a column fill (got,
// over ft) and a record fill (want, over rec) of one population: the
// carrying links and their order, each link's unclaimed capacity and
// each flow's rate, all bit for bit.
func sameFill(got, want *wfState, ft *flowTable, rec *recordTable) (string, bool) {
	if !slices.Equal(got.links, want.links) {
		return "carrying links differ", false
	}
	for _, e := range got.links {
		if math.Float64bits(got.capRem[e]) != math.Float64bits(want.capRem[e]) {
			return "capRem differs", false
		}
		if got.nflows[e] != want.nflows[e] {
			return "nflows differs", false
		}
	}
	if ft.n != rec.n {
		return "flow counts differ", false
	}
	for i := 0; i < ft.n; i++ {
		if math.Float64bits(ft.hotAt(i).rate) != math.Float64bits(rec.at(i).rate) {
			return "rates differ", false
		}
	}
	return "", true
}

// randomPopulation fills ft and arena with nflows flows over nlinks
// links: paths of distinct links, a third of them single-link, some
// rerouted after admission — shorter reroutes rewrite their span in
// place, longer ones move to the arena's end, out of table order — and
// stale rates from a previous epoch. It returns the link capacities:
// mode 0 gives every link capacity 1 and mode 1 draws from {1, 2, 4},
// so equal shares tie across links and the first-use order breaks
// them; mode 2 draws arbitrary positive capacities; mode 3 mixes in
// links of capacity 0.
func randomPopulation(r *rng.Rand, ft *flowTable, arena *pathArena, nlinks, nflows int, mode uint8) []float64 {
	capEdge := make([]float64, nlinks)
	for e := range capEdge {
		switch mode % 4 {
		case 0:
			capEdge[e] = 1
		case 1:
			capEdge[e] = []float64{1, 2, 4}[r.Intn(3)]
		case 2:
			capEdge[e] = 0.01 + 5*r.Float64()
		default:
			capEdge[e] = []float64{0, 0.5, 1, 1, 3}[r.Intn(5)]
		}
	}
	perm := make([]int32, nlinks)
	for e := range perm {
		perm[e] = int32(e)
	}
	randomPath := func() []int32 {
		hops := 1
		if r.Intn(3) > 0 {
			hops = 1 + r.Intn(min(6, nlinks))
		}
		for i := 0; i < hops; i++ {
			j := i + r.Intn(nlinks-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm[:hops]
	}
	ft.n = 0
	arena.reset()
	for i := 0; i < nflows; i++ {
		rate := -1.0
		if r.Intn(2) == 0 {
			rate = r.Float64()
		}
		ft.add(flowHot{path: arena.push(randomPath(), nil), rate: rate},
			flowCold{src: int32(i), dst: int32(i + 1), id: int32(i), remaining: 1})
	}
	for i := 0; i < nflows/4; i++ {
		h := ft.hotAt(r.Intn(nflows))
		h.path = arena.replace(h.path, randomPath())
	}
	return capEdge
}

// FuzzWaterfill runs the column filler and the record-major oracle over
// random populations (randomPopulation) and requires the same rates,
// unclaimed capacities and link order, bit for bit. Each input runs two
// populations through the same pooled states and table, the second
// smaller, so a stale fixed-bitset, slab or chunk from the first fill
// would show. Plain `go test` runs the seeds; explore with
//
//	go test ./internal/traffic -run '^$' -fuzz FuzzWaterfill
func FuzzWaterfill(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint16(1), uint8(0))
	f.Add(uint64(2), uint8(8), uint16(300), uint8(0))
	f.Add(uint64(3), uint8(30), uint16(2000), uint8(1))
	f.Add(uint64(4), uint8(47), uint16(5000), uint8(2))
	f.Add(uint64(5), uint8(12), uint16(900), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, links uint8, flows uint16, mode uint8) {
		r := rng.New(seed)
		nlinks := 1 + int(links)%48
		var (
			ft     flowTable
			rec    recordTable
			arena  pathArena
			got    = newWFState(0)
			want   = newWFState(0)
			nflows = 1 + int(flows)%6000
		)
		for pass := 0; pass < 2; pass++ {
			capEdge := randomPopulation(r, &ft, &arena, nlinks, nflows, mode)
			rec.loadRecords(&ft)
			got.ensure(nlinks)
			want.ensure(nlinks)
			got.fill(&ft, &arena, capEdge)
			fillRecords(want, &rec, &arena, capEdge)
			if msg, ok := sameFill(got, want, &ft, &rec); !ok {
				t.Fatalf("pass %d, %d flows over %d links (mode %d): %s", pass, nflows, nlinks, mode, msg)
			}
			got.endFill()
			want.endFill()
			nflows = 1 + nflows/3
		}
	})
}

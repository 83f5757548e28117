package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one call into a layer, recorded by the replay around the call.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`     // index in the recorder's span list
	Parent int    `json:"parent"` // ID of the enclosing span, -1 for the root
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // model or failure mode, where the layer has one
	// StartNS and EndNS are nanoseconds since the recorder started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocBytes and Mallocs are the process's heap allocations during
	// the span (runtime.MemStats TotalAlloc and Mallocs deltas).
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// recorder keeps the spans of one sequential replay in memory.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
	ms    runtime.MemStats
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now()}
}

// begin opens a span as a child of the innermost open span. The heap
// counters are read before the clock on entry and after it on exit, so
// the stop-the-world read lands in the parent's time, not the span's.
func (r *recorder) begin(name, label string) int {
	runtime.ReadMemStats(&r.ms)
	parent := -1
	if k := len(r.open); k > 0 {
		parent = r.open[k-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name, Label: label,
		StartNS: time.Since(r.t0).Nanoseconds(), AllocBytes: r.ms.TotalAlloc, Mallocs: r.ms.Mallocs})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	end := time.Since(r.t0).Nanoseconds()
	runtime.ReadMemStats(&r.ms)
	sp := &r.spans[id]
	sp.EndNS = end
	sp.AllocBytes = r.ms.TotalAlloc - sp.AllocBytes
	sp.Mallocs = r.ms.Mallocs - sp.Mallocs
	r.open = r.open[:len(r.open)-1]
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children. Children that
// overlap each other (a parallel pool) count their union once, and a
// child running past its parent counts only inside the parent.
// spans[i].ID must be i.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		type interval struct{ lo, hi int64 }
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := max(spans[c].StartNS, sp.StartNS), min(spans[c].EndNS, sp.EndNS)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		var cur interval
		for k, iv := range ivs {
			switch {
			case k == 0:
				cur = iv
			case iv.lo <= cur.hi:
				cur.hi = max(cur.hi, iv.hi)
			default:
				covered += cur.hi - cur.lo
				cur = iv
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[i] = sp.EndNS - sp.StartNS - covered
	}
	return self
}

// layerTotals sums self time (seconds, from selfTimes) and self
// allocation (bytes) by span name, and by "name.label" for labelled
// spans.
func layerTotals(spans []span, self []int64) (selfS map[string]float64, allocB map[string]int64) {
	childAlloc := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			childAlloc[sp.Parent] += int64(sp.AllocBytes)
		}
	}
	selfS, allocB = map[string]float64{}, map[string]int64{}
	for i, sp := range spans {
		s := float64(self[i]) / 1e9
		a := int64(sp.AllocBytes) - childAlloc[i]
		selfS[sp.Name] += s
		allocB[sp.Name] += a
		if sp.Label != "" {
			selfS[sp.Name+"."+sp.Label] += s
			allocB[sp.Name+"."+sp.Label] += a
		}
	}
	return selfS, allocB
}

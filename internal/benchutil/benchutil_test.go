package benchutil

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestMeasureAllocsCountsKnownWork(t *testing.T) {
	var sink [][]byte
	allocs, bytes := MeasureAllocs(func() {
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 1024))
		}
	})
	if allocs < 100 {
		t.Fatalf("100 explicit makes measured as %d allocs", allocs)
	}
	if bytes < 100*1024 {
		t.Fatalf("100 KiB of explicit makes measured as %d bytes", bytes)
	}
	_ = sink
}

func TestMeasureAllocsZeroOnAllocFreeWork(t *testing.T) {
	buf := make([]int, 1024)
	allocs, _ := MeasureAllocs(func() {
		for i := range buf {
			buf[i] = i * i
		}
	})
	if allocs != 0 {
		t.Fatalf("alloc-free loop measured as %d allocs", allocs)
	}
}

func TestMarginalAllocsCancelsSetup(t *testing.T) {
	// Each run pays a fixed setup slab plus one alloc per op; the
	// differencing must cancel the setup and report exactly one per op.
	allocs, _ := MarginalAllocs(8, 24, func(ops int) {
		setup := make([]byte, 1<<16)
		_ = setup
		var sink [][]byte
		for i := 0; i < ops; i++ {
			sink = append(sink, make([]byte, 16))
		}
		_ = sink
	})
	// append's slab growth adds a fractional surcharge on top of the
	// one-per-op make; it must stay well under one extra alloc per op.
	if allocs < 1 || allocs > 2 {
		t.Fatalf("one make per op measured as %.3f allocs/op", allocs)
	}
}

func TestMarginalAllocsZeroForPureSetup(t *testing.T) {
	allocs, bytes := MarginalAllocs(8, 24, func(ops int) {
		setup := make([]int, 4096)
		for i := 0; i < ops; i++ {
			for j := range setup {
				setup[j] += i
			}
		}
	})
	if allocs != 0 || bytes != 0 {
		t.Fatalf("setup-only workload measured as %.3f allocs/op, %.3f B/op", allocs, bytes)
	}
}

func TestWriteRowsSchema(t *testing.T) {
	dir := t.TempDir()
	base := Row{N: 10}.As("base", 1, 4)
	rows := []Row{base, Row{N: 10, Epochs: 3}.As("fast", 2, 2).Against(base).WithAllocs(0, 0)}
	if err := WriteRows(dir, "BENCH_x.json", rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_x.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	// Unset labels and allocation fields stay out; a measured zero and
	// the stamped core counts go in.
	want := [][]string{
		{"cores", "n", "name", "ns_per_op", "num_cpu", "workers"},
		{"allocs_per_op", "bytes_per_op", "cores", "epochs", "n", "name", "ns_per_op", "num_cpu", "speedup", "speedup_vs", "workers"},
	}
	for i, row := range got {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want[i]) {
			t.Fatalf("row %d keys %v, want %v", i, keys, want[i])
		}
	}
	if got[1]["speedup"] != 2.0 || got[1]["speedup_vs"] != "base" {
		t.Fatalf("speedup attribution = %v vs %v", got[1]["speedup"], got[1]["speedup_vs"])
	}
}

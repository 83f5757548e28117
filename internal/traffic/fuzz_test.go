package traffic

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWorkloadSpec decodes arbitrary JSON into a WorkloadSpec — nested
// failures included — and validates it. Property: neither panics, and
// an accepted spec has a stable encoding — it reloads to a spec that
// encodes to the same bytes and round-trips from then on to a
// DeepEqual value. The first reload may differ from the input spec
// only where an omitempty collection was present but empty
// ("events": []), which reloads as absent — the same workload. Plain
// `go test` runs the seeds (the workload and failure validation rows);
// explore further with
//
//	go test ./internal/traffic -run '^$' -fuzz FuzzWorkloadSpec
func FuzzWorkloadSpec(f *testing.F) {
	seeds := append([]WorkloadSpec{{LoadFactor: 0.5}}, badWorkloadSpecs...)
	for _, row := range failureSpecErrorRows {
		fs := row.spec
		seeds = append(seeds, WorkloadSpec{LoadFactor: 0.5, Failures: &fs})
	}
	for _, sp := range seeds {
		// The NaN and Inf rows have no JSON form.
		if data, err := json.Marshal(sp); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"load_factor":0.5,"failures":{"events":[]}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var sp WorkloadSpec
		if json.Unmarshal(in, &sp) != nil || sp.Validate() != nil {
			return
		}
		data, canon := reloadSpec(t, sp)
		again, back := reloadSpec(t, canon)
		if !bytes.Equal(again, data) || !reflect.DeepEqual(back, canon) {
			t.Fatalf("round trip changed spec:\n%s\n%s", data, again)
		}
	})
}

// reloadSpec encodes sp and decodes the encoding back.
func reloadSpec(t *testing.T, sp WorkloadSpec) ([]byte, WorkloadSpec) {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("encoding accepted spec: %v", err)
	}
	var back WorkloadSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("reloading accepted spec: %v\n%s", err, data)
	}
	return data, back
}

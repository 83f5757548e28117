package graphio

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netmodel/internal/graph"
)

// The fuzz targets feed arbitrary bytes to the edge-list reader and to
// the JSON test decoder. Property: the reader never panics, and any
// graph it accepts survives a write/read round trip with the same node
// count and edge list, so FuzzReadJSON drives WriteJSON over every
// graph the decoder builds. Plain `go test` runs the seeds (the
// round-trip fixtures and the error rows); explore further with
//
//	go test ./internal/graphio -run '^$' -fuzz FuzzReadEdgeList
//	go test ./internal/graphio -run '^$' -fuzz FuzzReadJSON

// fuzzMaxLegal caps the legal numbers a fuzz input may carry. Node
// counts, ids and multiplicities up to math.MaxInt32 are valid input,
// but each unit costs the reader a node or an edge insertion, so a
// fuzzer that finds "nodes=1000000000" would spend its run allocating.
// Inputs with a number in (fuzzMaxLegal, MaxInt32] are skipped; numbers
// above MaxInt32 are rejected cheaply and still exercised.
const fuzzMaxLegal = 1 << 16

var digitRun = regexp.MustCompile(`[0-9]+`)

// skipHuge skips inputs carrying a legal but huge number.
func skipHuge(t *testing.T, in string) {
	for _, run := range digitRun.FindAllString(in, -1) {
		if n, err := strconv.Atoi(run); err == nil && n > fuzzMaxLegal && n <= maxID {
			t.Skip("legal but huge number", run)
		}
	}
}

// roundTripSeeds are the graphs of the round-trip tests.
func roundTripSeeds(t testing.TB) []*graph.Graph {
	isolated := graph.New(10)
	isolated.MustAddEdge(0, 1)
	return []*graph.Graph{sample(t), isolated, graph.New(0)}
}

// requireRoundTrip writes g with write, reads it back with read, and
// fails unless the node count and edge list are unchanged.
func requireRoundTrip(t *testing.T, g *graph.Graph,
	write func(io.Writer, *graph.Graph) error, read func(io.Reader) (*graph.Graph, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	got, err := read(&buf)
	if err != nil {
		t.Fatalf("re-reading accepted graph: %v\n%s", err, text)
	}
	if got.N() != g.N() || !reflect.DeepEqual(got.EdgeList(), g.EdgeList()) {
		t.Fatalf("round trip changed graph: N %d -> %d\n%s", g.N(), got.N(), text)
	}
}

func FuzzReadEdgeList(f *testing.F) {
	for _, g := range roundTripSeeds(f) {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("0 1\n1 2 3\n")
	for _, row := range edgeListErrorRows {
		f.Add(row)
	}
	f.Fuzz(func(t *testing.T, in string) {
		skipHuge(t, in)
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		requireRoundTrip(t, g, WriteEdgeList, ReadEdgeList)
	})
}

func FuzzReadJSON(f *testing.F) {
	for _, g := range roundTripSeeds(f) {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, row := range jsonErrorRows {
		f.Add(row)
	}
	f.Fuzz(func(t *testing.T, in string) {
		skipHuge(t, in)
		g, err := readJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		requireRoundTrip(t, g, WriteJSON, readJSON)
	})
}

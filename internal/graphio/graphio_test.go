package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/graph"
	"netmodel/internal/rng"
)

func sample(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1) // multiplicity 2
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	return g
}

func equalGraphs(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() || a.TotalStrength() != b.TotalStrength() {
		return false
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, got) {
		t.Fatalf("round trip changed graph:\n%v", buf.String())
	}
}

func TestEdgeListRoundTripLargeGenerated(t *testing.T) {
	top, err := gen.BA{N: 2000, M: 2}.Generate(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, top.G); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(top.G, got) {
		t.Fatal("large round trip changed graph")
	}
}

func TestEdgeListPreservesIsolatedNodes(t *testing.T) {
	g := graph.New(10)
	g.MustAddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 10 {
		t.Fatalf("isolated nodes lost: N = %d", got.N())
	}
}

func TestReadEdgeListWithoutHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.EdgeWeight(1, 2) != 3 {
		t.Fatalf("parsed N=%d M=%d w(1,2)=%d", g.N(), g.M(), g.EdgeWeight(1, 2))
	}
}

// edgeListErrorRows are edge lists ReadEdgeList must reject with an
// error; they double as fuzz seeds.
var edgeListErrorRows = []string{
	"0\n",                            // too few fields
	"0 1 2 3\n",                      // too many fields
	"a b\n",                          // not numbers
	"0 -1\n",                         // negative id
	"0 1 0\n",                        // zero multiplicity
	"1 1\n",                          // self-loop
	"# nodes=2147483648\n",           // node count above MaxInt32
	"# nodes=99999999999999999999\n", // node count overflowing int
	"0 2147483648\n",                 // node id above MaxInt32
	"0 1 2147483648\n",               // multiplicity above MaxInt32
	"0 1 9223372036854775807\n",      // multiplicity far above MaxInt32
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, c := range edgeListErrorRows {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q should fail", c)
		}
	}
}

// readJSON is the decoder the JSON tests read WriteJSON's output back
// with; no command reads JSON maps, so it lives here. Node counts and
// multiplicities above math.MaxInt32 are rejected, as the edge-list
// reader rejects them.
func readJSON(r io.Reader) (*graph.Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, err
	}
	if jg.Nodes < 0 || jg.Nodes > maxID {
		return nil, fmt.Errorf("graphio: node count %d outside [0,%d]", jg.Nodes, maxID)
	}
	g := graph.New(jg.Nodes)
	for _, e := range jg.Edges {
		if err := addEdges(g, e[0], e[1], e[2]); err != nil {
			return nil, fmt.Errorf("graphio: %v", err)
		}
	}
	return g, nil
}

func TestJSONRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(g, got) {
		t.Fatalf("JSON round trip changed graph: %s", buf.String())
	}
}

// jsonErrorRows are documents readJSON must reject with an error; they
// double as fuzz seeds.
var jsonErrorRows = []string{
	`not json`,
	`{"nodes": -1, "edges": []}`,
	`{"nodes": 2, "edges": [[0,1,0]]}`,
	`{"nodes": 2, "edges": [[0,5,1]]}`,
	`{"nodes":1000000000000000,"edges":[]}`,              // node count above MaxInt32
	`{"nodes": 2, "edges": [[0,2147483648,1]]}`,          // node id above MaxInt32
	`{"nodes": 2, "edges": [[0,1,2147483648]]}`,          // multiplicity above MaxInt32
	`{"nodes": 2, "edges": [[0,1,9223372036854775807]]}`, // multiplicity far above MaxInt32
}

func TestReadJSONErrors(t *testing.T) {
	for _, c := range jsonErrorRows {
		if _, err := readJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q should fail", c)
		}
	}
}

// TestWriteJSON decodes the JSON encoding back into the wire struct:
// the node count and every [u, v, w] edge in EdgeList order.
func TestWriteJSON(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	var got jsonGraph
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := jsonGraph{Nodes: g.N(), Edges: [][3]int{}}
	for _, e := range g.EdgeList() {
		want.Edges = append(want.Edges, [3]int{e.U, e.V, e.W})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON encoding %s, want %+v", buf.String(), want)
	}
}

func TestWriteDOT(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "test"`, "0 -- 1 [penwidth=2]", "3 -- 4 [penwidth=1]", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

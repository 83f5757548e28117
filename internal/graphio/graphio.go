// Package graphio serializes topologies in the formats the measurement
// community exchanges: whitespace-separated edge lists (the RouteViews /
// CAIDA convention, with an optional multiplicity column), JSON for
// programmatic consumers, and Graphviz DOT for small-map visualization.
package graphio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"netmodel/internal/graph"
)

// WriteEdgeList writes one "u v w" line per simple edge (w omitted when
// 1), sorted, preceded by a comment header with node and edge counts.
// Isolated nodes are preserved through the header count.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# netmodel edge list: nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.EdgeList() {
		var err error
		if e.W == 1 {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxID bounds node counts, node ids and edge multiplicities read from
// outside input: snapshots store ids and weights as int32.
const maxID = math.MaxInt32

// ReadEdgeList parses the format written by WriteEdgeList. Lines
// starting with '#' are comments; the special header comment, when
// present, pre-sizes the graph so trailing isolated nodes survive a
// round trip. Unknown node ids grow the graph as needed. Node counts,
// ids and multiplicities above math.MaxInt32 are rejected.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	g := graph.New(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			n, ok, err := parseHeaderNodes(line)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
			}
			if ok {
				for g.N() < n {
					g.AddNode()
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graphio: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative node id", lineNo)
		}
		if u > maxID || v > maxID {
			return nil, fmt.Errorf("graphio: line %d: node id above %d", lineNo, maxID)
		}
		w := 1
		if len(fields) == 3 {
			w, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad multiplicity %q", lineNo, fields[2])
			}
		}
		for g.N() <= max(u, v) {
			g.AddNode()
		}
		if err := addEdges(g, u, v, w); err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// parseHeaderNodes reads the node count of a "nodes=N" header comment;
// ok is false for comments without one.
func parseHeaderNodes(line string) (n int, ok bool, err error) {
	i := strings.Index(line, "nodes=")
	if i < 0 {
		return 0, false, nil
	}
	rest := line[i+len("nodes="):]
	j := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
	if j >= 0 {
		rest = rest[:j]
	}
	if rest == "" {
		return 0, false, nil
	}
	n, err = strconv.Atoi(rest)
	if err != nil || n > maxID {
		return 0, false, fmt.Errorf("node count %s above %d", rest, maxID)
	}
	return n, true, nil
}

// addEdges adds w units of multiplicity between u and v, refusing a
// total multiplicity a snapshot's int32 weights cannot hold.
func addEdges(g *graph.Graph, u, v, w int) error {
	if w < 1 || w > maxID-g.EdgeWeight(u, v) {
		return fmt.Errorf("bad multiplicity %d", w)
	}
	for i := 0; i < w; i++ {
		if _, err := g.AddEdge(u, v); err != nil {
			return err
		}
	}
	return nil
}

// jsonGraph is the JSON wire format.
type jsonGraph struct {
	Nodes int      `json:"nodes"`
	Edges [][3]int `json:"edges"` // [u, v, w]
}

// WriteJSON encodes the graph as {"nodes": N, "edges": [[u,v,w],...]}.
func WriteJSON(w io.Writer, g *graph.Graph) error {
	jg := jsonGraph{Nodes: g.N(), Edges: make([][3]int, 0, g.M())}
	for _, e := range g.EdgeList() {
		jg.Edges = append(jg.Edges, [3]int{e.U, e.V, e.W})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}

// WriteDOT emits an undirected Graphviz description. Multiplicity is
// rendered as penwidth. Intended for small maps.
func WriteDOT(w io.Writer, g *graph.Graph, name string) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "netmodel"
	}
	if _, err := fmt.Fprintf(bw, "graph %q {\n  node [shape=point];\n", name); err != nil {
		return err
	}
	for _, e := range g.EdgeList() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d [penwidth=%d];\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}

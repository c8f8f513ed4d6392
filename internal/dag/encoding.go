package dag

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fedsched/internal/wire"
)

// jsonDAG is the wire form of a DAG, as the encoding/json decode path
// reads it.
type jsonDAG struct {
	Vertices []jsonVertex `json:"vertices"`
	Edges    [][2]int     `json:"edges"`
}

type jsonVertex struct {
	Name string `json:"name"`
	WCET Time   `json:"wcet"`
	Type int    `json:"type"`
}

// MarshalJSON encodes the DAG as {"vertices":[{name,wcet}...],"edges":[[u,v]...]}.
func (g *DAG) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil), nil }

// AppendJSON appends the bytes MarshalJSON returns: the vertices in order,
// each omitting an empty name and the default type 0 (so untyped graphs keep
// their pre-typed wire bytes, and hence the content hashes of encoded
// systems), then the edges in lexicographic order.
func (g *DAG) AppendJSON(b []byte) []byte {
	// About 16 bytes per unnamed vertex and 10 per edge.
	b = slices.Grow(b, 24+16*len(g.verts)+10*g.m)
	b = append(b, `{"vertices":[`...)
	for i, v := range g.verts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if v.Name != "" {
			b = append(wire.AppendString(append(b, `"name":`...), v.Name), ',')
		}
		b = strconv.AppendInt(append(b, `"wcet":`...), v.WCET, 10)
		if v.Type != 0 {
			b = strconv.AppendInt(append(b, `,"type":`...), int64(v.Type), 10)
		}
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	first := true
	for u, succ := range g.succ {
		for _, v := range succ {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ']')
		}
	}
	return append(b, "]}"...)
}

// UnmarshalJSON decodes and validates a DAG from its wire form. Input in
// the canonical wire subset (see DecodeWire) is read in one pass; anything
// else, and any input Build rejects, goes through encoding/json, which
// therefore owns every error text.
func (g *DAG) UnmarshalJSON(data []byte) error {
	s := wire.NewScanner(data)
	if built, ok := DecodeWire(s); ok && s.End() {
		*g = *built
		return nil
	}
	var jd jsonDAG
	if err := json.Unmarshal(data, &jd); err != nil {
		return fmt.Errorf("dag: decoding: %w", err)
	}
	b := NewBuilder(len(jd.Vertices))
	for _, v := range jd.Vertices {
		b.AddTypedVertex(v.Name, v.WCET, v.Type)
	}
	for _, e := range jd.Edges {
		b.AddEdge(e[0], e[1])
	}
	built, err := b.Build()
	if err != nil {
		return err
	}
	*g = *built
	return nil
}

// DecodeWire reads one DAG in the canonical wire subset at the scanner's
// position and builds it: exact lower-case keys, each at most once, plain
// strings and integers (package wire) that fit the int fields they fill,
// and edges as two-element [u,v] arrays. It reports false for any other
// input and for input that Build rejects; the caller then decodes the same
// bytes with encoding/json.
func DecodeWire(s *wire.Scanner) (*DAG, bool) {
	var b Builder
	var seen uint8 // bits: vertices, edges
	var v Vertex
	var vseen uint8 // bits of the current vertex: name, wcet, type
	vertex := func(key []byte) bool {
		var ok bool
		var x int64
		switch {
		case string(key) == "name" && vseen&1 == 0:
			vseen |= 1
			v.Name, ok = s.String()
		case string(key) == "wcet" && vseen&2 == 0:
			vseen |= 2
			v.WCET, ok = s.Int()
		case string(key) == "type" && vseen&4 == 0:
			vseen |= 4
			x, ok = s.Int()
			v.Type = int(x)
			ok = ok && int64(v.Type) == x
		}
		return ok
	}
	edge := func() bool {
		if !s.Consume('[') {
			return false
		}
		u, ok := s.Int()
		if !ok || !s.Consume(',') {
			return false
		}
		w, ok := s.Int()
		if !ok || !s.Consume(']') || int64(int(u)) != u || int64(int(w)) != w {
			return false
		}
		b.AddEdge(int(u), int(w))
		return true
	}
	ok := s.Object(func(key []byte) bool {
		switch {
		case string(key) == "vertices" && seen&1 == 0:
			seen |= 1
			return s.Array(func() bool {
				v, vseen = Vertex{}, 0
				if !s.Object(vertex) {
					return false
				}
				b.verts = append(b.verts, v)
				return true
			})
		case string(key) == "edges" && seen&2 == 0:
			seen |= 2
			// An edge and its comma take at least 6 bytes, typically 8–10.
			// Inside an envelope the rest of the input holds more than this
			// graph, so the guess is also capped at 16 edges a vertex (the
			// benchmark workloads' 100–300-vertex graphs have 5–15).
			b.edges = make([][2]int, 0, min(s.Remaining()/8, 16*len(b.verts)+16))
			return s.Array(edge)
		}
		return false
	})
	if !ok {
		return nil, false
	}
	g, err := b.Build()
	return g, err == nil
}

// DOT renders the DAG in Graphviz DOT syntax. Vertices are labelled with
// their name (or index) and WCET, mirroring the paper's Figure 1 style where
// vertex size encodes WCET.
func (g *DAG) DOT(graphName string) string {
	var sb strings.Builder
	if graphName == "" {
		graphName = "G"
	}
	fmt.Fprintf(&sb, "digraph %q {\n", graphName)
	sb.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	for v := 0; v < g.N(); v++ {
		label := g.verts[v].Name
		if label == "" {
			label = fmt.Sprintf("v%d", v)
		}
		// Scale node size with WCET, as in the paper's figure.
		size := 0.4 + 0.1*float64(g.verts[v].WCET)
		if size > 2.0 {
			size = 2.0
		}
		fmt.Fprintf(&sb, "  %d [label=\"%s\\n%d\", width=%.2f];\n", v, label, g.verts[v].WCET, size)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -> %d;\n", e[0], e[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Equal reports structural equality: same vertices (names, WCETs, order) and
// same edge set.
func (g *DAG) Equal(h *DAG) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if g.verts[v] != h.verts[v] {
			return false
		}
		gs, hs := g.succ[v], h.succ[v]
		if len(gs) != len(hs) {
			return false
		}
		for i := range gs {
			if gs[i] != hs[i] {
				return false
			}
		}
	}
	return true
}

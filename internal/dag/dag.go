// Package dag implements the directed-acyclic-graph workload structure that
// underlies the sporadic DAG task model of Baruah (DATE 2015).
//
// A DAG G = (V, E) models one dag-job of a recurrent task: each vertex is a
// sequential job with a worst-case execution time (WCET), and each directed
// edge (v, w) is a precedence constraint requiring job v to complete before
// job w may begin. Jobs not ordered by the transitive closure of E may run in
// parallel on distinct processors.
//
// The package provides construction and validation, the two quantities the
// schedulability analysis needs — the total volume vol(G) and the longest
// chain len(G) — plus topological orders, depth/level structure, reachability,
// serialization (JSON) and visualization (Graphviz DOT).
//
// Time is measured in abstract integer ticks (the paper has WCETs in ℕ).
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Time is a point in, or duration of, discrete time, in abstract ticks.
type Time = int64

// Vertex is one sequential job inside a DAG.
type Vertex struct {
	// Name is an optional human-readable label; it need not be unique.
	Name string
	// WCET is the worst-case execution time of the job, in ticks. It must
	// be positive: zero-cost synchronization points should be modelled by
	// direct edges instead.
	WCET Time
	// Type is the processor type the job must execute on, as a dense index
	// (0 = type "a", 1 = type "b", …). The zero value models the classic
	// homogeneous platform, so untyped graphs behave exactly as before.
	Type int
}

// DAG is an immutable directed acyclic graph of jobs. Construct one with a
// Builder; the zero DAG is the valid empty graph.
//
// Vertices are identified by dense indices 0..N()-1 assigned in insertion
// order. A DAG returned by Builder.Build is guaranteed acyclic, with no
// self-loops and no duplicate edges.
type DAG struct {
	verts []Vertex
	succ  [][]int // succ[v] = sorted successor indices of v
	pred  [][]int // pred[v] = sorted predecessor indices of v
	m     int     // number of edges
}

// N returns the number of vertices.
func (g *DAG) N() int { return len(g.verts) }

// M returns the number of edges.
func (g *DAG) M() int { return g.m }

// Vertex returns the vertex with index v. It panics if v is out of range.
func (g *DAG) Vertex(v int) Vertex { return g.verts[v] }

// WCET returns the worst-case execution time of vertex v.
func (g *DAG) WCET(v int) Time { return g.verts[v].WCET }

// TypeOf returns the processor type of vertex v (0 for untyped graphs).
func (g *DAG) TypeOf(v int) int { return g.verts[v].Type }

// Typed reports whether any vertex carries a nonzero processor type. An
// untyped graph (all vertices type 0) is exactly the classic homogeneous
// model, and every analysis treats it identically to a pre-typed build.
func (g *DAG) Typed() bool {
	for _, v := range g.verts {
		if v.Type != 0 {
			return true
		}
	}
	return false
}

// NumTypes returns 1 + the maximum vertex type, i.e. the number of distinct
// processor types the graph may reference (1 for untyped graphs, including
// the empty graph).
func (g *DAG) NumTypes() int {
	maxT := 0
	for _, v := range g.verts {
		if v.Type > maxT {
			maxT = v.Type
		}
	}
	return maxT + 1
}

// UniformType returns the single processor type shared by every vertex, and
// whether such a type exists. The empty graph is uniformly the default type.
// Only uniformly-typed tasks can be collapsed to a sporadic task on one
// (matching-type) processor, so this is the typed Phase-2 eligibility test.
func (g *DAG) UniformType() (int, bool) {
	if len(g.verts) == 0 {
		return 0, true
	}
	t := g.verts[0].Type
	for _, v := range g.verts[1:] {
		if v.Type != t {
			return 0, false
		}
	}
	return t, true
}

// VolumeByType returns the per-type work vector: out[s] is the summed WCET
// of the vertices requiring processor type s. The slice has NumTypes()
// entries.
func (g *DAG) VolumeByType() []Time {
	out := make([]Time, g.NumTypes())
	for _, v := range g.verts {
		out[v.Type] += v.WCET
	}
	return out
}

// CountByType returns out[s] = the number of vertices requiring processor
// type s. With out[s] processors of each type s no job ever waits for a
// processor, so list scheduling achieves makespan len(G) — it is the typed
// MINPROCS scan's per-type saturation cap.
func (g *DAG) CountByType() []int {
	out := make([]int, g.NumTypes())
	for _, v := range g.verts {
		out[v.Type]++
	}
	return out
}

// Successors returns the successor indices of v. The returned slice is
// owned by the DAG and must not be modified.
func (g *DAG) Successors(v int) []int { return g.succ[v] }

// Predecessors returns the predecessor indices of v. The returned slice is
// owned by the DAG and must not be modified.
func (g *DAG) Predecessors(v int) []int { return g.pred[v] }

// InDegree returns the number of predecessors of v.
func (g *DAG) InDegree(v int) int { return len(g.pred[v]) }

// OutDegree returns the number of successors of v.
func (g *DAG) OutDegree(v int) int { return len(g.succ[v]) }

// HasEdge reports whether the edge (u, v) is present.
func (g *DAG) HasEdge(u, v int) bool {
	s := g.succ[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Sources returns the vertices with no predecessors, in index order.
func (g *DAG) Sources() []int {
	var out []int
	for v := range g.verts {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the vertices with no successors, in index order.
func (g *DAG) Sinks() []int {
	var out []int
	for v := range g.verts {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Volume returns vol(G): the sum of all vertex WCETs, i.e. the total
// execution requirement of one dag-job. It runs in O(|V|).
func (g *DAG) Volume() Time {
	var vol Time
	for _, v := range g.verts {
		vol += v.WCET
	}
	return vol
}

// LongestChain returns len(G): the maximum, over all directed chains
// v1 → v2 → … → vk in G, of the sum of the chain's WCETs. This is the
// minimum possible makespan of the dag-job on infinitely many processors.
// It runs in O(|V| + |E|) via a topological-order dynamic program, exactly
// as the paper prescribes.
func (g *DAG) LongestChain() Time {
	_, length := g.CriticalPath()
	return length
}

// CriticalPath returns one longest chain as a vertex sequence, together with
// its length. For the empty DAG it returns (nil, 0).
func (g *DAG) CriticalPath() (path []int, length Time) {
	n := g.N()
	if n == 0 {
		return nil, 0
	}
	order := g.TopologicalOrder()
	// finish[v]: longest chain length ending at (and including) v.
	finish := make([]Time, n)
	from := make([]int, n)
	for i := range from {
		from[i] = -1
	}
	best := 0
	for _, v := range order {
		f := Time(0)
		for _, p := range g.pred[v] {
			if finish[p] > f {
				f = finish[p]
				from[v] = p
			}
		}
		finish[v] = f + g.verts[v].WCET
		if finish[v] > finish[best] {
			best = v
		}
	}
	for v := best; v != -1; v = from[v] {
		path = append(path, v)
	}
	// Reverse into source→sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, finish[best]
}

// TopologicalOrder returns a topological order of the vertices (Kahn's
// algorithm, smallest-index-first for determinism). The DAG invariant
// guarantees such an order exists.
func (g *DAG) TopologicalOrder() []int {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.pred[v])
	}
	// Min-index frontier keeps the order deterministic.
	frontier := &intMinHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier.push(v)
		}
	}
	order := make([]int, 0, n)
	for frontier.len() > 0 {
		v := frontier.pop()
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier.push(w)
			}
		}
	}
	return order
}

// Levels partitions the vertices into precedence levels: level 0 holds the
// sources, and each vertex's level is 1 + the maximum level among its
// predecessors. The result is indexed by level.
func (g *DAG) Levels() [][]int {
	n := g.N()
	level := make([]int, n)
	maxLevel := 0
	for _, v := range g.TopologicalOrder() {
		l := 0
		for _, p := range g.pred[v] {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[v] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	out := make([][]int, maxLevel+1)
	for v := 0; v < n; v++ {
		out[level[v]] = append(out[level[v]], v)
	}
	return out
}

// Depth returns the number of vertices on a longest chain by vertex count
// (i.e. 1 + the maximum level), or 0 for the empty DAG.
func (g *DAG) Depth() int {
	if g.N() == 0 {
		return 0
	}
	return len(g.Levels())
}

// Reachable returns, for vertex v, the set of vertices reachable from v by
// directed paths of length ≥ 1, as a boolean slice indexed by vertex.
func (g *DAG) Reachable(v int) []bool {
	seen := make([]bool, g.N())
	stack := append([]int(nil), g.succ[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, g.succ[u]...)
	}
	return seen
}

// Ancestors returns the set of vertices from which v is reachable, as a
// boolean slice indexed by vertex.
func (g *DAG) Ancestors(v int) []bool {
	seen := make([]bool, g.N())
	stack := append([]int(nil), g.pred[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, g.pred[u]...)
	}
	return seen
}

// MaxParallelism returns an upper bound on the number of jobs that can ever
// execute simultaneously: the maximum width over precedence levels. (Exact
// maximum antichain computation is not needed by the analysis; level width is
// the customary structural proxy.)
func (g *DAG) MaxParallelism() int {
	w := 0
	for _, lv := range g.Levels() {
		if len(lv) > w {
			w = len(lv)
		}
	}
	return w
}

// Clone returns a deep copy of the DAG.
func (g *DAG) Clone() *DAG {
	c := &DAG{
		verts: append([]Vertex(nil), g.verts...),
		succ:  make([][]int, g.N()),
		pred:  make([][]int, g.N()),
		m:     g.m,
	}
	for v := range g.verts {
		c.succ[v] = append([]int(nil), g.succ[v]...)
		c.pred[v] = append([]int(nil), g.pred[v]...)
	}
	return c
}

// WithWCET returns a copy of the DAG in which vertex v has WCET w.
// It is used by anomaly experiments that shrink execution times.
func (g *DAG) WithWCET(v int, w Time) (*DAG, error) {
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("dag: vertex %d out of range [0,%d)", v, g.N())
	}
	if w <= 0 {
		return nil, fmt.Errorf("dag: WCET must be positive, got %d", w)
	}
	c := g.Clone()
	c.verts[v].WCET = w
	return c, nil
}

// Edges returns all edges as (from, to) pairs in lexicographic order.
func (g *DAG) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := range g.verts {
		for _, v := range g.succ[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// String summarizes the DAG.
func (g *DAG) String() string {
	return fmt.Sprintf("DAG{|V|=%d |E|=%d vol=%d len=%d}", g.N(), g.M(), g.Volume(), g.LongestChain())
}

// Builder constructs DAGs incrementally. The zero Builder is ready to use.
type Builder struct {
	verts []Vertex
	edges [][2]int // in AddEdge order, duplicates included
}

// NewBuilder returns a Builder expecting roughly n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{verts: make([]Vertex, 0, n)}
}

// AddVertex appends a vertex of the default processor type (0) and returns
// its index.
func (b *Builder) AddVertex(name string, wcet Time) int {
	return b.AddTypedVertex(name, wcet, 0)
}

// AddTypedVertex appends a vertex pinned to processor type ptype and returns
// its index. Type validity (non-negative) is checked by Build.
func (b *Builder) AddTypedVertex(name string, wcet Time, ptype int) int {
	b.verts = append(b.verts, Vertex{Name: name, WCET: wcet, Type: ptype})
	return len(b.verts) - 1
}

// AddJob appends an unnamed vertex and returns its index.
func (b *Builder) AddJob(wcet Time) int { return b.AddVertex("", wcet) }

// AddEdge records the precedence constraint u → v. Duplicate edges are
// ignored. Validity (range, self-loops, acyclicity) is checked by Build.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int{u, v})
}

// Errors returned by Builder.Build.
var (
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrSelfLoop      = errors.New("dag: self-loop edge")
	ErrEdgeRange     = errors.New("dag: edge endpoint out of range")
	ErrNonPositiveEt = errors.New("dag: vertex WCET must be positive")
	ErrNegativeType  = errors.New("dag: vertex processor type must be non-negative")
)

// Build validates the accumulated vertices and edges and returns the DAG.
// Of several invalid edges, the first in AddEdge order is the one reported.
func (b *Builder) Build() (*DAG, error) {
	n := len(b.verts)
	for i, v := range b.verts {
		if v.WCET <= 0 {
			return nil, fmt.Errorf("%w: vertex %d has WCET %d", ErrNonPositiveEt, i, v.WCET)
		}
		if v.Type < 0 {
			return nil, fmt.Errorf("%w: vertex %d has type %d", ErrNegativeType, i, v.Type)
		}
	}
	// off[u] is where u's successor list starts in the shared backing array.
	off := make([]int, n+1)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("%w: (%d,%d) with |V|=%d", ErrEdgeRange, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
		}
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	adj := make([]int, len(b.edges))
	fill := append([]int(nil), off[:n]...)
	for _, e := range b.edges {
		adj[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	g := &DAG{
		verts: append([]Vertex(nil), b.verts...),
		succ:  make([][]int, n),
		pred:  make([][]int, n),
	}
	// Sort and deduplicate each successor list, packing the lists down to
	// the front of adj; count in-degrees on the way.
	indeg := fill[:n]
	clear(indeg)
	for u := 0; u < n; u++ {
		s := adj[off[u]:off[u+1]]
		slices.Sort(s)
		s = slices.Compact(s)
		start := g.m
		g.m += copy(adj[start:], s)
		g.succ[u] = adj[start:g.m:g.m]
		for _, v := range g.succ[u] {
			indeg[v]++
		}
	}
	// Sweeping u upward appends each predecessor list in sorted order.
	back := make([]int, g.m)
	at := 0
	for v := 0; v < n; v++ {
		g.pred[v] = back[at : at : at+indeg[v]]
		at += indeg[v]
	}
	for u := 0; u < n; u++ {
		for _, v := range g.succ[u] {
			g.pred[v] = append(g.pred[v], u)
		}
	}
	if len(g.TopologicalOrder()) != n {
		return nil, ErrCycle
	}
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and
// compile-time-constant example graphs.
func (b *Builder) MustBuild() *DAG {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// intMinHeap is a small binary min-heap of ints used by TopologicalOrder.
// (container/heap's interface indirection is avoidable for this hot path.)
type intMinHeap struct{ a []int }

func (h *intMinHeap) len() int { return len(h.a) }

func (h *intMinHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intMinHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.a[l] < h.a[s] {
			s = l
		}
		if r < last && h.a[r] < h.a[s] {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

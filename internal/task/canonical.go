package task

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// Canonical content encoding of a DAG task.
//
// AppendCanonical serializes exactly the analysis-relevant content of a task
// — D, T, vertex WCETs and the precedence relation — into a byte string that
// is a pure function of that content:
//
//   - vertex names are excluded (FEDCONS never reads them);
//   - the order in which edges were added to the Builder or listed in a JSON
//     file is irrelevant (the DAG already normalizes adjacency);
//   - vertices are enumerated in a canonical order computed from the graph
//     structure alone, so re-listing the same vertices in a different order
//     (with edges renumbered accordingly) yields the same bytes.
//
// The canonical vertex order is found by iterated structural refinement
// (1-WL colour refinement seeded with WCETs): each vertex starts with a
// signature of its WCET, and each round folds in the sorted multisets of its
// predecessors' and successors' signatures, until the partition into
// signature classes stabilizes. Vertices are then sorted by signature.
// Vertices left tied after refinement are structurally interchangeable in
// every DAG family this repo generates (parallel identical branches and the
// like), where any tie-break produces identical bytes; as a determinism
// backstop, residual ties fall back to the original index.
//
// The encoding is injective on labeled content: two tasks with equal
// canonical bytes have identical (D, T) and identical adjacency structure
// over identically-WCET'd vertices, which is exactly the input FEDCONS's
// analysis depends on. core.TaskHash hashes these bytes to produce the
// content address used by the admission service's memo cache.
func (tk *DAGTask) AppendCanonical(b []byte) []byte {
	const magic, typedMagic = "fedsched/task/v1\x00", "fedsched/task/typed/v1\x00"
	g := tk.G
	n, m := g.N(), g.M()
	typed := g.Typed()
	size := len(magic) + 8*(4+n+2*m)
	if typed {
		size += len(typedMagic) + 8*n
	}
	b = slices.Grow(b, size)
	b = append(b, magic...)
	b = binary.BigEndian.AppendUint64(b, uint64(tk.D))
	b = binary.BigEndian.AppendUint64(b, uint64(tk.T))
	b = binary.BigEndian.AppendUint64(b, uint64(n))
	b = binary.BigEndian.AppendUint64(b, uint64(m))

	order := tk.CanonicalOrder() // order[k] = original index of canonical vertex k
	rank := make([]int, n)       // rank[v] = canonical index of original vertex v
	for k, v := range order {
		rank[v] = k
	}
	for _, v := range order {
		b = binary.BigEndian.AppendUint64(b, uint64(g.WCET(v)))
	}
	// Edges as (rank[v], rank[w]) pairs in lexicographic order: sources in
	// rank order, each one's successor ranks sorted.
	var succ []int
	for k, v := range order {
		succ = succ[:0]
		for _, w := range g.Successors(v) {
			succ = append(succ, rank[w])
		}
		slices.Sort(succ)
		for _, r := range succ {
			b = binary.BigEndian.AppendUint64(b, uint64(k))
			b = binary.BigEndian.AppendUint64(b, uint64(r))
		}
	}
	// Typed graphs append a per-vertex type section. Untyped graphs (every
	// vertex the default type 0) skip it entirely, so their canonical bytes —
	// and hence core.TaskHash, the memo cache keys, and every WAL/snapshot
	// replay — are unchanged from the pre-typed encoding. Injectivity is
	// preserved: the untyped encoding's length is fully determined by its own
	// n and edge-count fields, so a typed encoding (strictly longer, with a
	// distinguishing magic) can never collide with an untyped one.
	if typed {
		b = append(b, typedMagic...)
		for _, v := range order {
			b = binary.BigEndian.AppendUint64(b, uint64(g.TypeOf(v)))
		}
	}
	return b
}

// CanonicalOrder returns a permutation of the task's vertex indices — the
// canonical enumeration order used by AppendCanonical. order[k] is the
// original index of the vertex placed at canonical position k.
func (tk *DAGTask) CanonicalOrder() []int {
	g := tk.G
	n := g.N()
	sig := make([]uint64, n)
	next := make([]uint64, n)
	// The processor type is folded into the seed only for typed graphs, so
	// the canonical order of every untyped graph is bit-for-bit what it was
	// before types existed; on typed graphs it keeps same-WCET vertices of
	// different types in distinct refinement classes.
	typed := g.Typed()
	for v := 0; v < n; v++ {
		sig[v] = mix(0x9e3779b97f4a7c15, uint64(g.WCET(v)))
		if typed {
			sig[v] = mix(sig[v], uint64(g.TypeOf(v)))
		}
	}
	// order holds the vertices sorted by (signature, index): the result
	// once refinement stops, and the visiting order of each round's
	// multiset pass.
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	classes := sortBySig(order, sig)
	// in[inOff[v]:inOff[v+1]] receives the signatures of v's predecessors
	// and out[outOff[v]:outOff[v+1]] those of its successors. Visiting the
	// vertices in signature order fills every list already sorted, so each
	// round is one pass over the edges instead of a sort per vertex.
	inOff, outOff := make([]int, n+1), make([]int, n+1)
	for v := 0; v < n; v++ {
		inOff[v+1] = inOff[v] + g.InDegree(v)
		outOff[v+1] = outOff[v] + g.OutDegree(v)
	}
	in, out := make([]uint64, g.M()), make([]uint64, g.M())
	inFill, outFill := make([]int, n), make([]int, n)
	// Refine until the number of distinct signatures stops growing. Each
	// round propagates one more hop of structure; n rounds always suffice.
	for round := 0; round < n; round++ {
		copy(inFill, inOff)
		copy(outFill, outOff)
		for _, u := range order {
			for _, w := range g.Successors(u) {
				in[inFill[w]] = sig[u]
				inFill[w]++
			}
			for _, p := range g.Predecessors(u) {
				out[outFill[p]] = sig[u]
				outFill[p]++
			}
		}
		for v := 0; v < n; v++ {
			h := mix(sig[v], 0x517cc1b727220a95)
			for _, s := range in[inOff[v]:inOff[v+1]] {
				h = mix(h, s)
			}
			h = mix(h, 0xbf58476d1ce4e5b9) // separator: preds vs succs
			for _, s := range out[outOff[v]:outOff[v+1]] {
				h = mix(h, s)
			}
			next[v] = h
		}
		sig, next = next, sig
		if c := sortBySig(order, sig); c == classes {
			break
		} else {
			classes = c
		}
	}
	return order
}

// sortBySig sorts order by (sig, index), the index being the determinism
// backstop for residual ties, and returns the number of distinct
// signatures.
func sortBySig(order []int, sig []uint64) int {
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(sig[a], sig[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	classes := 0
	for i, v := range order {
		if i == 0 || sig[v] != sig[order[i-1]] {
			classes++
		}
	}
	return classes
}

// mix is the splitmix64 finalizer applied to a ^ rotated b — a cheap,
// well-distributed combiner for signature refinement.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SameAnalysisInput reports whether two tasks present identical input to the
// schedulability analysis: equal D, T, and labeled graph structure (vertex
// WCETs and adjacency under the same labeling; names are ignored). This is
// the equality the admission cache uses to guard hash lookups, so a cache
// hit implies a byte-identical Phase-1 analysis.
//
// A task is the same input as itself without a look at its graph: every memo
// hit on an installed task compares the task with itself.
func SameAnalysisInput(a, b *DAGTask) bool {
	if a == b {
		return true
	}
	if a.D != b.D || a.T != b.T || a.G.N() != b.G.N() || a.G.M() != b.G.M() {
		return false
	}
	for v := 0; v < a.G.N(); v++ {
		if a.G.WCET(v) != b.G.WCET(v) || a.G.TypeOf(v) != b.G.TypeOf(v) {
			return false
		}
		as, bs := a.G.Successors(v), b.G.Successors(v)
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

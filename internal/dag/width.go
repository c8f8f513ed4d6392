package dag

import "math/bits"

// Width computes the exact maximum antichain size of the DAG — the largest
// set of pairwise-incomparable vertices, i.e. the true maximum number of
// jobs that can ever execute simultaneously. (MaxParallelism's level width
// is only a lower bound on this quantity.)
//
// By Dilworth's theorem the maximum antichain equals the minimum number of
// chains covering all vertices, and for a DAG the minimum chain cover equals
// |V| − M where M is a maximum matching in the bipartite graph whose left
// and right copies of V are joined for every pair (u, v) with u reachable to
// v (the transitive closure). The matching is found with the standard
// augmenting-path algorithm, O(|V|·E⁺) on the closure.
//
// On Width(G) processors a work-conserving scheduler never makes a job
// wait, since any set of simultaneously-running jobs is an antichain, so
// the LS makespan collapses to len(G). The cost is the closure and the
// matching; callers that need only an upper bound on the useful processor
// count should use |V| or Lemma 1 instead.
func (g *DAG) Width() int {
	_, matched := maxChainMatching(g.closure())
	return g.N() - matched
}

// MinChainCover returns a partition of the vertices into the minimum number
// of chains (paths in the transitive closure), witnessing Width via
// Dilworth's theorem: len(cover) == Width().
func (g *DAG) MinChainCover() [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	matchR, _ := maxChainMatching(g.closure())
	next := make([]int, n) // next[u] = u's matched chain successor, or -1
	for i := range next {
		next[i] = -1
	}
	for v, u := range matchR {
		if u != -1 {
			next[u] = v
		}
	}
	// Chains start at vertices that are nobody's matched successor.
	var cover [][]int
	for v := 0; v < n; v++ {
		if matchR[v] != -1 {
			continue
		}
		var chain []int
		for u := v; u != -1; u = next[u] {
			chain = append(chain, u)
		}
		cover = append(cover, chain)
	}
	return cover
}

// bitset is a set of vertex indices, one bit per vertex.
type bitset []uint64

func (s bitset) has(v int) bool { return s[v>>6]&(1<<(v&63)) != 0 }
func (s bitset) add(v int)      { s[v>>6] |= 1 << (v & 63) }

// closure returns the transitive closure as bitsets: reach[u] holds every
// v ≠ u reachable from u. Visiting vertices in reverse topological order,
// each row is its successors plus the union of their finished rows.
func (g *DAG) closure() []bitset {
	n := g.N()
	words := (n + 63) / 64
	back := make([]uint64, n*words)
	reach := make([]bitset, n)
	for u := range reach {
		reach[u] = back[u*words : (u+1)*words : (u+1)*words]
	}
	order := g.TopologicalOrder()
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		row := reach[u]
		for _, v := range g.succ[u] {
			row.add(v)
			for k, w := range reach[v] {
				row[k] |= w
			}
		}
	}
	return reach
}

// maxChainMatching finds a maximum matching in the bipartite graph that
// joins the left copy of u to the right copy of every v in reach[u], by
// Kuhn's augmenting paths taken from each left vertex in index order.
// matchR[v] is the left vertex matched to v, or -1; by Dilworth's theorem
// |V| − matched is the width.
func maxChainMatching(reach []bitset) (matchR []int, matched int) {
	n := len(reach)
	k := kuhn{reach: reach, matchR: make([]int, n)}
	for i := range k.matchR {
		k.matchR[i] = -1
	}
	if n > 0 {
		k.visited = make(bitset, len(reach[0]))
	}
	for u := 0; u < n; u++ {
		clear(k.visited)
		if k.augment(u) {
			matched++
		}
	}
	return k.matchR, matched
}

// kuhn is the augmenting-path search state of maxChainMatching.
type kuhn struct {
	reach   []bitset
	matchR  []int
	visited bitset // right vertices seen in the current search
}

// augment looks for an augmenting path from left vertex u, trying u's right
// neighbours in ascending order.
func (k *kuhn) augment(u int) bool {
	for i, w := range k.reach[u] {
		for w &^= k.visited[i]; w != 0; w &= w - 1 {
			v := i<<6 | bits.TrailingZeros64(w)
			if k.visited.has(v) { // seen deeper in this search
				continue
			}
			k.visited.add(v)
			if k.matchR[v] == -1 || k.augment(k.matchR[v]) {
				k.matchR[v] = u
				return true
			}
		}
	}
	return false
}

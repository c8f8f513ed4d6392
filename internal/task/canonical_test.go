package task

import (
	"bytes"
	"testing"

	"fedsched/internal/dag"
)

func TestCanonicalOrderIsPermutation(t *testing.T) {
	tk := MustNew("x", dag.Example1(), dag.Example1D, dag.Example1T)
	order := tk.CanonicalOrder()
	if len(order) != tk.G.N() {
		t.Fatalf("order has %d entries for %d vertices", len(order), tk.G.N())
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[v] = true
	}
}

func TestAppendCanonicalDeterministic(t *testing.T) {
	tk := MustNew("x", dag.Example1(), dag.Example1D, dag.Example1T)
	a := tk.AppendCanonical(nil)
	b := tk.AppendCanonical(nil)
	if !bytes.Equal(a, b) {
		t.Fatal("canonical encoding not deterministic")
	}
	// Appending extends the prefix in place.
	prefix := []byte("prefix")
	c := tk.AppendCanonical(prefix)
	if !bytes.HasPrefix(c, prefix) || !bytes.Equal(c[len(prefix):], a) {
		t.Fatal("AppendCanonical does not append to the given buffer")
	}
}

func TestAppendCanonicalIgnoresNames(t *testing.T) {
	named := MustNew("alpha", dag.Example1(), 16, 20)
	b := dag.NewBuilder(5)
	// Same structure as Example1 but unnamed vertices.
	g := dag.Example1()
	for v := 0; v < g.N(); v++ {
		b.AddJob(g.WCET(v))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	anon := MustNew("beta", b.MustBuild(), 16, 20)
	if !bytes.Equal(named.AppendCanonical(nil), anon.AppendCanonical(nil)) {
		t.Fatal("canonical encoding depends on names")
	}
}

func TestSameAnalysisInput(t *testing.T) {
	a := MustNew("a", dag.Example1(), 16, 20)
	b := MustNew("b", dag.Example1(), 16, 20)
	if !SameAnalysisInput(a, b) {
		t.Fatal("identical structure with different names should match")
	}
	// The pointer check answers before the graph is read, so even a task
	// with no graph is the same input as itself.
	if bare := (&DAGTask{Name: "bare"}); !SameAnalysisInput(bare, bare) {
		t.Fatal("a task should match itself")
	}
	if SameAnalysisInput(a, MustNew("a", dag.Example1(), 15, 20)) {
		t.Fatal("different D should not match")
	}
	if SameAnalysisInput(a, MustNew("a", dag.Example1(), 16, 21)) {
		t.Fatal("different T should not match")
	}
	if SameAnalysisInput(a, MustNew("a", dag.Chain(2, 1, 3, 2, 1), 16, 20)) {
		t.Fatal("different structure should not match")
	}
	bumped, err := dag.Example1().WithWCET(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if SameAnalysisInput(a, MustNew("a", bumped, 16, 20)) {
		t.Fatal("different WCET should not match")
	}
}

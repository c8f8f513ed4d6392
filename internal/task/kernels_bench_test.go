package task_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/task"
)

// Benchmark results land in package-level sinks so the measured calls
// cannot be optimized away.
var (
	sinkHash  core.Hash
	sinkWidth int
)

// coldTasks generates n tasks shaped like the cold-high benchmark workload's
// admits: Erdős–Rényi DAGs (p = 0.1) of 100–300 vertices with
// high-density deadlines.
func coldTasks(n int) []*task.DAGTask {
	r := rand.New(rand.NewSource(64))
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts = 100, 300
	p.BetaMin, p.BetaMax = 0.1, 0.3
	out := make([]*task.DAGTask, 0, n)
	for len(out) < n {
		tk, err := gen.TaskFor(r, gen.Graph(r, p), 0.5+0.5*r.Float64(), p)
		if err != nil || !tk.HighDensity() {
			continue
		}
		tk.Name = fmt.Sprintf("cold-%d", len(out))
		out = append(out, tk)
	}
	return out
}

// BenchmarkColdKernels times each pass over a never-seen DAG on its own:
// decoding the task's wire form, building the DAG from a vertex and edge
// list, the canonical content hash, Width (the Dilworth closure and
// matching; reports use it, admission does not), and encoding the task back
// to JSON. Each iteration runs the pass on one task of a 32-task
// cold-high-shaped corpus, in turn. Run with -benchmem: allocations are
// half of what these passes cost.
func BenchmarkColdKernels(b *testing.B) {
	tasks := coldTasks(32)
	bodies := make([][]byte, len(tasks))
	edges := make([][][2]int, len(tasks))
	for i, tk := range tasks {
		var err error
		if bodies[i], err = json.Marshal(tk); err != nil {
			b.Fatal(err)
		}
		edges[i] = tk.G.Edges()
		// Builders see edges in arrival order, not sorted.
		r := rand.New(rand.NewSource(int64(i)))
		r.Shuffle(len(edges[i]), func(x, y int) { edges[i][x], edges[i][y] = edges[i][y], edges[i][x] })
	}
	b.Run("decode", func(b *testing.B) { benchDecode(b, bodies, false) })
	// Bodies outside the fast path's wire subset pay for the failed
	// single-pass attempts before encoding/json decodes them: vertex names
	// drawn from goldenNames (the scan stops within the first few vertices),
	// one escaped name on the last vertex (it stops at the end of the vertex
	// list), and a valid graph with D = 0, which task.New rejects only after
	// the fast path has built the DAG.
	b.Run("decode-escaped", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		benchDecode(b, marshalAll(b, tasks, func(tk *task.DAGTask) { tk.G = renamed(r, tk.G) }), false)
	})
	b.Run("decode-escaped-last", func(b *testing.B) {
		benchDecode(b, marshalAll(b, tasks, func(tk *task.DAGTask) {
			bd := dag.NewBuilder(tk.G.N())
			for v := 0; v < tk.G.N(); v++ {
				name := tk.G.Vertex(v).Name
				if v == tk.G.N()-1 {
					name = `a"b`
				}
				bd.AddTypedVertex(name, tk.G.WCET(v), tk.G.TypeOf(v))
			}
			for _, e := range tk.G.Edges() {
				bd.AddEdge(e[0], e[1])
			}
			tk.G = bd.MustBuild()
		}), false)
	})
	b.Run("decode-rejected", func(b *testing.B) {
		benchDecode(b, marshalAll(b, tasks, func(tk *task.DAGTask) { tk.D = 0 }), true)
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(tasks)
			g := tasks[k].G
			bd := dag.NewBuilder(g.N())
			for v := 0; v < g.N(); v++ {
				bd.AddTypedVertex(g.Vertex(v).Name, g.WCET(v), g.TypeOf(v))
			}
			for _, e := range edges[k] {
				bd.AddEdge(e[0], e[1])
			}
			if _, err := bd.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkHash = core.TaskHash(tasks[i%len(tasks)])
		}
	})
	b.Run("width", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkWidth = tasks[i%len(tasks)].G.Width()
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(tasks[i%len(tasks)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// marshalAll encodes a copy of each task after edit has changed it.
func marshalAll(b *testing.B, tasks []*task.DAGTask, edit func(*task.DAGTask)) [][]byte {
	out := make([][]byte, len(tasks))
	for i, tk := range tasks {
		c := *tk
		edit(&c)
		var err error
		if out[i], err = json.Marshal(&c); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// benchDecode decodes the bodies in turn, each expected to fail if wantErr.
func benchDecode(b *testing.B, bodies [][]byte, wantErr bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tk task.DAGTask
		if err := json.Unmarshal(bodies[i%len(bodies)], &tk); (err != nil) != wantErr {
			b.Fatal(err)
		}
	}
}

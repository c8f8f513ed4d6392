package task_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

var updateBytesGolden = flag.Bool("update", false, "rewrite testdata/bytes.golden from current output")

// goldenNames are the vertex and task names the corpus draws from: plain
// ASCII labels next to names that JSON must escape (quotes, backslashes,
// control bytes, HTML-sensitive runes) and non-ASCII ones.
var goldenNames = []string{
	"", "", "", "v", "job_7", "fork", "Stage-2.b", "a\"b", `back\slash`,
	"tab\there", "<tag>&amp;", "é", "日本", "line\u2028sep", "\x7f",
}

// goldenCorpus generates the seeded task corpus the bytes golden pins: the
// four generator shapes, 1–300 vertices, every third task typed, WCET ranges
// as narrow as 1–5 (so canonical-order ties exist), and a mix of plain and
// escaped names.
func goldenCorpus() []*task.DAGTask {
	r := rand.New(rand.NewSource(20150309))
	shapes := []gen.Shape{gen.ErdosRenyi, gen.ForkJoin, gen.SeriesParallel, gen.Layered}
	wcetMax := []dag.Time{5, 5, 20, 100}
	out := make([]*task.DAGTask, 0, 600)
	for i := 0; i < 600; i++ {
		var n int
		switch i % 5 {
		case 0:
			n = 1 + r.Intn(8)
		case 1, 2:
			n = 8 + r.Intn(50)
		default:
			n = 100 + r.Intn(201)
		}
		p := gen.DefaultParams(1, 1)
		p.Shape = shapes[i%4]
		if p.Shape == gen.SeriesParallel {
			n = (n + 1) / 2 // composition wrappers roughly double the count
		}
		p.MinVerts, p.MaxVerts = n, n
		p.EdgeProb = []float64{0.02, 0.1, 0.3}[r.Intn(3)]
		p.WCETMax = wcetMax[r.Intn(len(wcetMax))]
		if i%3 == 0 {
			p.TypeProb = 0.3
		}
		g := gen.Graph(r, p)
		if i%2 == 1 {
			g = renamed(r, g)
		}
		tk, err := gen.TaskFor(r, g, 0.2+3*r.Float64(), p)
		if err != nil {
			panic(err)
		}
		tk.Name = fmt.Sprintf("t%03d", i)
		if i%7 == 3 {
			tk.Name += goldenNames[r.Intn(len(goldenNames))]
		}
		out = append(out, tk)
	}
	return out
}

// renamed rebuilds g with vertex names drawn from goldenNames.
func renamed(r *rand.Rand, g *dag.DAG) *dag.DAG {
	b := dag.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.AddTypedVertex(goldenNames[r.Intn(len(goldenNames))], g.WCET(v), g.TypeOf(v))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// goldenLine renders one task's pinned bytes: its canonical TaskHash, its
// Width, the SHA-256 of its JSON encoding, and the SHA-256 of a one-task
// admit WAL record.
func goldenLine(t *testing.T, i int, tk *task.DAGTask) string {
	t.Helper()
	h := core.TaskHash(tk)
	js, err := json.Marshal(tk)
	if err != nil {
		t.Fatalf("task %d: marshal: %v", i, err)
	}
	rec, err := store.EncodeRecord(store.Record{
		Seq: uint64(i + 1), Op: store.OpAdmit,
		Tasks: []*task.DAGTask{tk}, Hashes: []string{h.String()},
	})
	if err != nil {
		t.Fatalf("task %d: encode record: %v", i, err)
	}
	return fmt.Sprintf("%d n=%d m=%d typed=%t hash=%s width=%d json=%x rec=%x",
		i, tk.G.N(), tk.G.M(), tk.G.Typed(), h, tk.G.Width(), sha256.Sum256(js), sha256.Sum256(rec))
}

// TestBytesGolden pins, for a 600-task seeded corpus, every byte string the
// durable state and the Phase-1 cache depend on: recovery refuses a WAL
// whose logged hashes differ from recomputed ones, so a change to the
// canonical encoding, the JSON codec or Width must show up here first. Each
// task is also pushed through a JSON round trip (and a shuffled,
// duplicated-edge re-listing of its wire form), and the decoded task must
// reproduce the same line.
func TestBytesGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# index n m typed TaskHash Width sha256(json.Marshal) sha256(EncodeRecord admit)\n")
	r := rand.New(rand.NewSource(7))
	for i, tk := range goldenCorpus() {
		line := goldenLine(t, i, tk)
		js, _ := json.Marshal(tk)
		var back task.DAGTask
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatalf("task %d: unmarshal: %v", i, err)
		}
		if got := goldenLine(t, i, &back); got != line {
			t.Fatalf("task %d: JSON round trip changed the pinned bytes:\n got %s\nwant %s", i, got, line)
		}
		var shuffled task.DAGTask
		if err := json.Unmarshal(reorderedWire(t, r, js), &shuffled); err != nil {
			t.Fatalf("task %d: unmarshal re-listed edges: %v", i, err)
		}
		if got := goldenLine(t, i, &shuffled); got != line {
			t.Fatalf("task %d: re-listed edges changed the pinned bytes:\n got %s\nwant %s", i, got, line)
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	path := filepath.Join("testdata", "bytes.golden")
	if *updateBytesGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	got := []byte(sb.String())
	if bytes.Equal(got, want) {
		return
	}
	gs, ws := bufio.NewScanner(bytes.NewReader(got)), bufio.NewScanner(bytes.NewReader(want))
	for ln := 1; ; ln++ {
		g, w := gs.Scan(), ws.Scan()
		if !g || !w || gs.Text() != ws.Text() {
			t.Fatalf("bytes golden differs at line %d:\n got %q\nwant %q", ln, gs.Text(), ws.Text())
		}
	}
}

// reorderedWire rewrites a task's wire form with its edge list shuffled and
// one edge listed twice, the freedoms a client has in listing "edges".
func reorderedWire(t *testing.T, r *rand.Rand, js []byte) []byte {
	t.Helper()
	var w struct {
		Name string          `json:"name,omitempty"`
		D    int64           `json:"deadline"`
		T    int64           `json:"period"`
		DAG  json.RawMessage `json:"dag"`
	}
	var d struct {
		Vertices json.RawMessage `json:"vertices"`
		Edges    [][2]int        `json:"edges"`
	}
	if err := json.Unmarshal(js, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w.DAG, &d); err != nil {
		t.Fatal(err)
	}
	r.Shuffle(len(d.Edges), func(i, j int) { d.Edges[i], d.Edges[j] = d.Edges[j], d.Edges[i] })
	if len(d.Edges) > 0 {
		d.Edges = append(d.Edges, d.Edges[r.Intn(len(d.Edges))])
	}
	var err error
	if w.DAG, err = json.Marshal(d); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

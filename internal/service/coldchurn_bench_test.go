package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"fedsched/internal/gen"
	"fedsched/internal/task"
)

// coldHighTask draws one never-seen high-density task of the benchmark's
// cold-high shape: an Erdős–Rényi DAG of 100–300 vertices, utilization in
// [0.5, 1] and deadline tightness β in [0.1, 0.3], redrawn until its density
// exceeds 1.
func coldHighTask(r *rand.Rand, name string) *task.DAGTask {
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts = 100, 300
	p.BetaMin, p.BetaMax = 0.1, 0.3
	for {
		tk, err := gen.TaskFor(r, gen.Graph(r, p), 0.5+r.Float64()/2, p)
		if err == nil && tk.HighDensity() {
			tk.Name = name
			return tk
		}
	}
}

// BenchmarkColdChurn runs the cold-high churn through Server.Handler on a
// durable server (WAL on, m = 64, -par = GOMAXPROCS): twelve live
// high-density tasks, then per iteration one remove of the oldest live task
// and one admit of a never-seen task. Every admit runs MINPROCS for its new
// DAG; every mutation re-runs Phase 1 from the memo, Phase 2 and the audit
// of the whole system. It reports the p50 of each kind, timed around
// ServeHTTP, as admit_p50_ms and remove_p50_ms; a rejected admit (409) is
// timed like an accepted one.
func BenchmarkColdChurn(b *testing.B) {
	const live = 12
	opt, err := ParseOptions("ls-scan", "insertion", "first-fit", "dbf-approx")
	if err != nil {
		b.Fatal(err)
	}
	opt.Par = runtime.GOMAXPROCS(0)
	srv, err := New(Config{M: 64, Options: opt, WALDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	r := rand.New(rand.NewSource(1))
	bodies := make([][]byte, live+b.N)
	for i := range bodies {
		if bodies[i], err = json.Marshal(coldHighTask(r, fmt.Sprintf("c%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	serve := func(req *http.Request) (int, time.Duration) {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		return rec.Code, time.Since(start)
	}
	var names []string // live tasks, oldest first
	admit := func(i int) time.Duration {
		status, d := serve(httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(bodies[i])))
		switch status {
		case http.StatusOK:
			names = append(names, fmt.Sprintf("c%d", i))
		case http.StatusConflict:
		default:
			b.Fatalf("admit c%d: status %d", i, status)
		}
		return d
	}
	for i := 0; i < live; i++ {
		admit(i)
	}
	if len(names) == 0 {
		b.Fatal("no seed task admitted")
	}

	var admits, removes []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(names) > 0 {
			status, d := serve(httptest.NewRequest(http.MethodDelete, "/v1/tasks/"+names[0], nil))
			if status != http.StatusOK {
				b.Fatalf("remove %s: status %d", names[0], status)
			}
			names = names[1:]
			removes = append(removes, d)
		}
		admits = append(admits, admit(live+i))
	}
	b.StopTimer()
	b.ReportMetric(p50ms(admits), "admit_p50_ms")
	b.ReportMetric(p50ms(removes), "remove_p50_ms")
}

// p50ms is the median of ds in milliseconds (0 for none).
func p50ms(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return float64(s[len(s)/2]) / float64(time.Millisecond)
}

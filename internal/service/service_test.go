package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/task"
)

// newTestServer starts a Server plus an httptest front end, both torn down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func doJSON(t *testing.T, client *http.Client, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func admitBody(t *testing.T, tk *task.DAGTask) []byte {
	t.Helper()
	data, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// example1Task is the paper's Example 1: low-density (δ = 9/16), lands on a
// shared processor.
func example1Task(name string) *task.DAGTask {
	return task.MustNew(name, dag.Example1(), dag.Example1D, dag.Example1T)
}

// trijob is a high-density task (δ = 3) whose MINPROCS grant is exactly 3
// processors: three independent jobs of WCET 5 with D = T = 5.
func trijob(name string) *task.DAGTask {
	return task.MustNew(name, dag.Independent(5, 5, 5), 5, 5)
}

func TestAdmitRemoveLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()

	status, body, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if status != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}

	// Admit the paper's Example 1 task: accepted onto a shared processor.
	status, body, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("ex1")))
	if status != http.StatusOK {
		t.Fatalf("admit ex1: %d %s", status, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable || v.Dedicated != 0 || v.Shared != 4 || len(v.High) != 0 {
		t.Fatalf("ex1 verdict: %+v", v)
	}

	// Admit the high-density trijob: Phase 1 grants exactly 3 processors.
	status, body, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri")))
	if status != http.StatusOK {
		t.Fatalf("admit tri: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.High) != 1 || len(v.High[0].Procs) != 3 || v.Dedicated != 3 || v.Shared != 1 {
		t.Fatalf("tri verdict: %+v", v)
	}

	// GET /v1/allocation returns the same bytes as the admit response.
	status, allocBody, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/allocation", nil)
	if status != http.StatusOK || !bytes.Equal(allocBody, body) {
		t.Fatalf("allocation bytes differ from admit response:\n%s\nvs\n%s", allocBody, body)
	}

	// Duplicate names are refused without running the analysis.
	status, body, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("ex1")))
	if status != http.StatusConflict || !strings.Contains(string(body), "already admitted") {
		t.Fatalf("duplicate admit: %d %s", status, body)
	}

	// Remove, then removing again 404s.
	status, _, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/tri", nil)
	if status != http.StatusOK {
		t.Fatalf("remove tri: %d", status)
	}
	status, _, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/tri", nil)
	if status != http.StatusNotFound {
		t.Fatalf("second remove: %d", status)
	}

	// Remove the last task: the empty state is trivially schedulable.
	status, body, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/ex1", nil)
	if status != http.StatusOK {
		t.Fatalf("remove ex1: %d", status)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable || v.Tasks != 0 || v.Shared != 4 {
		t.Fatalf("empty verdict: %+v", v)
	}

	// Malformed payloads and anonymous tasks are 400s.
	status, _, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", []byte("{"))
	if status != http.StatusBadRequest {
		t.Fatalf("malformed admit: %d", status)
	}
	status, _, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit",
		admitBody(t, task.MustNew("", dag.Singleton(1), 5, 5)))
	if status != http.StatusBadRequest {
		t.Fatalf("anonymous admit: %d", status)
	}
}

// TestRejectedAdmissionLeavesStateIdentical pins the trial-admission
// contract: a rejected admit returns the failure verdict but the installed
// allocation — byte for byte — is untouched.
func TestRejectedAdmissionLeavesStateIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 3})
	c := ts.Client()

	status, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri")))
	if status != http.StatusOK {
		t.Fatalf("setup admit: %d", status)
	}
	_, before, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/allocation", nil)

	// A second trijob needs 3 more processors than remain: rejected.
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri2")))
	if status != http.StatusConflict {
		t.Fatalf("want 409, got %d: %s", status, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Schedulable || !strings.Contains(v.Reason, "high-density") {
		t.Fatalf("rejection verdict: %+v", v)
	}

	_, after, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/allocation", nil)
	if !bytes.Equal(before, after) {
		t.Fatalf("rejected admission changed the allocation:\n%s\nvs\n%s", before, after)
	}
}

// TestConcurrentAdmitsRemovesReads hammers the server from many goroutines
// under -race: admissions and removals against concurrent allocation reads,
// with every observed state audited by core.Verify.
func TestConcurrentAdmitsRemovesReads(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 16, QueueBound: 256})
	c := ts.Client()

	const writers, readers, rounds = 6, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				var tk *task.DAGTask
				if r.Intn(2) == 0 {
					tk = example1Task(name)
				} else {
					tk = task.MustNew(name, dag.Independent(2, 2), 4, 8)
				}
				status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, tk))
				if status != http.StatusOK && status != http.StatusConflict {
					t.Errorf("admit %s: %d %s", name, status, body)
				}
				if status == http.StatusOK && r.Intn(2) == 0 {
					if st, b, _ := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/"+name, nil); st != http.StatusOK {
						t.Errorf("remove %s: %d %s", name, st, b)
					}
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*writers/2; i++ {
				// HTTP read path…
				status, _, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/allocation", nil)
				if status != http.StatusOK {
					t.Errorf("allocation read: %d", status)
				}
				// …and a direct snapshot, audited: every state the server
				// ever exposes must pass the independent checker.
				sys, alloc := svc.ShardFor("").Snapshot()
				if len(sys) == 0 {
					continue
				}
				if err := core.Verify(sys, 16, alloc); err != nil {
					t.Errorf("exposed state failed Verify: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	sys, alloc := svc.ShardFor("").Snapshot()
	if len(sys) > 0 {
		if err := core.Verify(sys, 16, alloc); err != nil {
			t.Fatalf("final state failed Verify: %v", err)
		}
	}
}

// slowTask builds a task whose MINPROCS analysis takes long enough to keep
// the single-writer loop busy while the shedding test floods the queue.
func slowTask(name string) *task.DAGTask {
	r := rand.New(rand.NewSource(7))
	const n = 5000 // ≈ 0.5 s of Width + MINPROCS work on a container core
	b := dag.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddJob(task.Time(1 + r.Intn(3)))
	}
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 7, 31} {
			if i+off < n && r.Intn(3) == 0 {
				b.AddEdge(i, i+off)
			}
		}
	}
	g := b.MustBuild()
	return task.MustNew(name, g, g.LongestChain()+10, g.LongestChain()+10)
}

func TestLoadShedding(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 64, QueueBound: 2, AdmitTimeout: 30 * time.Second})
	c := ts.Client()

	// Occupy the writer loop with an expensive analysis…
	heavy := admitBody(t, slowTask("heavy"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", heavy)
	}()
	time.Sleep(50 * time.Millisecond)

	// …then flood: with a queue bound of 2 most of these must be shed.
	const flood = 24
	statuses := make([]int, flood)
	var retryAfter bool
	var mu sync.Mutex
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit",
				admitBody(t, example1Task(fmt.Sprintf("flood-%d", i))))
			mu.Lock()
			statuses[i] = status
			if hdr.Get("Retry-After") != "" {
				retryAfter = true
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	shed := 0
	for _, s := range statuses {
		if s == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed despite a full queue")
	}
	if !retryAfter {
		t.Fatal("shed responses lack Retry-After")
	}
}

func TestAdmitDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, AdmitTimeout: time.Nanosecond})
	c := ts.Client()
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("late")))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 under a 1ns admission deadline, got %d: %s", status, body)
	}
	// The allocation must still be the (empty) initial state.
	_, allocBody, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/allocation", nil)
	var v Verdict
	if err := json.Unmarshal(allocBody, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tasks != 0 {
		t.Fatalf("timed-out admission was installed: %+v", v)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()

	doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri")))
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri2"))) // rejected
	doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/tri", nil)

	status, body, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/vars", nil)
	if status != http.StatusOK {
		t.Fatalf("debug/vars: %d", status)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("debug/vars is not JSON: %v\n%s", err, body)
	}
	want := map[string]float64{
		"admits_total":  1,
		"rejects_total": 1,
		"removes_total": 1,
	}
	for k, exp := range want {
		got, ok := vars[k].(float64)
		if !ok || got != exp {
			t.Errorf("%s = %v, want %v", k, vars[k], exp)
		}
	}
	for _, k := range []string{"cache_hits", "cache_misses", "cache_hit_rate", "queue_depth", "queue_bound",
		"admit_latency_p50_ns", "admit_latency_p99_ns", "tasks", "cache_entries"} {
		if _, ok := vars[k]; !ok {
			t.Errorf("debug/vars missing %s", k)
		}
	}
	// tri and tri2 share content: the second admission must hit the cache.
	if hits, _ := vars["cache_hits"].(float64); hits < 1 {
		t.Errorf("cache_hits = %v, want ≥ 1", vars["cache_hits"])
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{M: 0}); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := New(Config{M: 2, QueueBound: -1}); err == nil {
		t.Error("accepted negative queue bound")
	}
	if _, err := New(Config{M: 2, AdmitTimeout: -time.Second}); err == nil {
		t.Error("accepted negative admission timeout")
	}
}

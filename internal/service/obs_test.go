package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMetricsExpositionGolden pins the full Prometheus text exposition of a
// fresh server: every metric name, type line and zero value, in order. A
// fresh server has made no observations, so the page is fully deterministic.
func TestMetricsExpositionGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, QueueBound: 8})
	status, body, hdr := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	const want = `# TYPE fedschedd_admits_total counter
fedschedd_admits_total 0
# TYPE fedschedd_batch_admits_total counter
fedschedd_batch_admits_total 0
# TYPE fedschedd_cache_entries gauge
fedschedd_cache_entries 0
# TYPE fedschedd_cache_hit_rate gauge
fedschedd_cache_hit_rate 0
# TYPE fedschedd_cache_hits gauge
fedschedd_cache_hits 0
# TYPE fedschedd_cache_misses gauge
fedschedd_cache_misses 0
# TYPE fedschedd_errors_total counter
fedschedd_errors_total 0
# TYPE fedschedd_queue_bound gauge
fedschedd_queue_bound 8
# TYPE fedschedd_queue_depth gauge
fedschedd_queue_depth 0
# TYPE fedschedd_rejects_total counter
fedschedd_rejects_total 0
# TYPE fedschedd_removes_total counter
fedschedd_removes_total 0
# TYPE fedschedd_shed_total counter
fedschedd_shed_total 0
# TYPE fedschedd_tasks gauge
fedschedd_tasks 0
# TYPE fedschedd_timeouts_total counter
fedschedd_timeouts_total 0
# TYPE fedschedd_admit_latency_seconds histogram
fedschedd_admit_latency_seconds_bucket{le="+Inf"} 0
fedschedd_admit_latency_seconds_sum 0
fedschedd_admit_latency_seconds_count 0
# TYPE fedschedd_fleet_admit_latency_seconds histogram
fedschedd_fleet_admit_latency_seconds_bucket{le="+Inf"} 0
fedschedd_fleet_admit_latency_seconds_sum 0
fedschedd_fleet_admit_latency_seconds_count 0
# TYPE fedschedd_fleet_admits_total counter
fedschedd_fleet_admits_total 0
# TYPE fedschedd_fleet_batch_admits_total counter
fedschedd_fleet_batch_admits_total 0
# TYPE fedschedd_fleet_errors_total counter
fedschedd_fleet_errors_total 0
# TYPE fedschedd_fleet_rejects_total counter
fedschedd_fleet_rejects_total 0
# TYPE fedschedd_fleet_removes_total counter
fedschedd_fleet_removes_total 0
# TYPE fedschedd_fleet_shards gauge
fedschedd_fleet_shards 1
# TYPE fedschedd_fleet_shed_total counter
fedschedd_fleet_shed_total 0
# TYPE fedschedd_fleet_tasks gauge
fedschedd_fleet_tasks 0
# TYPE fedschedd_fleet_timeouts_total counter
fedschedd_fleet_timeouts_total 0
# TYPE fedschedd_slo_admit_latency_budget_seconds gauge
fedschedd_slo_admit_latency_budget_seconds 0.005
# TYPE fedschedd_slo_admit_latency_burn_rate gauge
fedschedd_slo_admit_latency_burn_rate 0
# TYPE fedschedd_slo_admit_latency_over_budget_total counter
fedschedd_slo_admit_latency_over_budget_total 0
# TYPE fedschedd_slo_error_burn_rate gauge
fedschedd_slo_error_burn_rate 0
# TYPE fedschedd_slo_errors_total counter
fedschedd_slo_errors_total 0
# TYPE fedschedd_slo_requests_total counter
fedschedd_slo_requests_total 0
# TYPE fedschedd_slo_window_seconds gauge
fedschedd_slo_window_seconds 60
`
	if string(body) != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestMetricsExpositionAfterAdmit checks counters move and the latency
// histogram gains cumulative buckets that parse as a valid exposition.
func TestMetricsExpositionAfterAdmit(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()
	if status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("e1"))); status != http.StatusOK {
		t.Fatalf("admit = %d: %s", status, body)
	}
	_, body, _ := doJSON(t, c, http.MethodGet, ts.URL+"/metrics", nil)
	text := string(body)
	if !strings.Contains(text, "fedschedd_admits_total 1\n") {
		t.Errorf("admits_total not 1:\n%s", text)
	}
	if !strings.Contains(text, "fedschedd_admit_latency_seconds_count 1\n") {
		t.Errorf("latency count not 1:\n%s", text)
	}
	if !strings.Contains(text, `fedschedd_admit_latency_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket not cumulative:\n%s", text)
	}
}

func TestAdmitTraceIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	status, _, hdr := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("e1")))
	if status != http.StatusOK {
		t.Fatalf("admit = %d", status)
	}
	id := hdr.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id on admit response")
	}
	_, _, hdr2 := doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/tasks/e1", nil)
	id2 := hdr2.Get("X-Trace-Id")
	if id2 == "" || id2 == id {
		t.Errorf("remove trace ID %q (admit was %q): want fresh non-empty", id2, id)
	}
}

// TestShedBodyCarriesTraceID fills the queue so a request is shed, and
// asserts the 429 body names the trace ID from the header.
func TestShedBodyCarriesTraceID(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 4, QueueBound: 1})
	sh := svc.ShardFor("")
	// Stall the writer loop with a request that blocks until released.
	release := make(chan struct{})
	blocked := make(chan struct{})
	go sh.submit(context.Background(), "admit", "stall", func() opResult {
		close(blocked)
		<-release
		return opResult{status: http.StatusOK}
	})
	<-blocked
	// Fill the queue.
	go sh.submit(context.Background(), "admit", "fill", func() opResult { return opResult{status: http.StatusOK} })
	deadline := time.Now().Add(time.Second)
	for len(sh.reqs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	status, body, hdr := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("x")))
	close(release)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("429 body not JSON: %s", body)
	}
	if e["trace_id"] == "" || e["trace_id"] != hdr.Get("X-Trace-Id") {
		t.Errorf("429 body trace_id = %q, header %q", e["trace_id"], hdr.Get("X-Trace-Id"))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 lost its Retry-After header")
	}
}

// TestAdmitInlineTrace exercises ?trace=1: the verdict embeds a span array
// whose root is fedcons with timing fields, and the cache attr flips from
// miss to hit when the same DAG returns.
func TestAdmitInlineTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit?trace=1", admitBody(t, trijob("h1")))
	if status != http.StatusOK {
		t.Fatalf("admit = %d: %s", status, body)
	}
	var v struct {
		Trace []struct {
			ID     int            `json:"id"`
			Parent int            `json:"parent"`
			Name   string         `json:"name"`
			DurNs  *int64         `json:"dur_ns"`
			Attrs  map[string]any `json:"attrs"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Trace) == 0 || v.Trace[0].Name != "fedcons" {
		t.Fatalf("trace = %+v", v.Trace)
	}
	if v.Trace[0].DurNs == nil {
		t.Error("inline trace lacks timings")
	}
	var taskSpan map[string]any
	for _, sp := range v.Trace {
		if sp.Name == "task" && sp.Attrs["task"] == "h1" {
			taskSpan = sp.Attrs
		}
	}
	if taskSpan == nil {
		t.Fatal("no task span for h1")
	}
	if taskSpan["cache"] != "miss" {
		t.Errorf("first admission cache attr = %v, want miss", taskSpan["cache"])
	}

	// Remove and re-admit: the Phase-1 memo now hits.
	if status, _, _ := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/tasks/h1", nil); status != http.StatusOK {
		t.Fatal("remove failed")
	}
	_, body, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit?trace=1", admitBody(t, trijob("h1")))
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, sp := range v.Trace {
		if sp.Name == "task" && sp.Attrs["cache"] == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Error("re-admission trace shows no cache hit")
	}
}

// TestUntracedVerdictHasNoTraceField guards the byte-compatibility contract
// with `fedsched -o json`: without ?trace=1 the verdict must not mention a
// trace key at all.
func TestUntracedVerdictHasNoTraceField(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	status, body, _ := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("e1")))
	if status != http.StatusOK {
		t.Fatalf("admit = %d", status)
	}
	if strings.Contains(string(body), `"trace"`) {
		t.Errorf("untraced verdict mentions trace:\n%s", body)
	}
}

// TestObserverRecords wires a Config.Observer and checks the per-operation
// records: op, status, task, latency, and well-defined cache deltas.
func TestObserverRecords(t *testing.T) {
	recs := make(chan AdmissionRecord, 16)
	svc, err := New(Config{M: 8, Observer: func(r AdmissionRecord) { recs <- r }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.ShardFor("")
	ctx := context.Background()
	if status, _ := sh.Admit(ctx, trijob("h1")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	r := <-recs
	if r.Op != "admit" || r.Task != "h1" || r.Status != http.StatusOK || !r.Schedulable {
		t.Errorf("record = %+v", r)
	}
	if r.TraceID == "" || r.LatencyNs <= 0 || r.Tasks != 1 {
		t.Errorf("record = %+v", r)
	}
	if r.CacheMisses != 1 || r.CacheHits != 0 {
		t.Errorf("cold admission cache deltas = %d hits, %d misses; want 0/1", r.CacheHits, r.CacheMisses)
	}
	// Second admission of a distinct name but identical DAG content: the
	// re-analysis of h1 plus the new h2 are both Phase-1 memo hits.
	if status, _ := sh.Admit(ctx, trijob("h2")); status != http.StatusOK {
		t.Fatal("admit h2 failed")
	}
	r = <-recs
	if r.CacheMisses != 0 || r.CacheHits != 2 {
		t.Errorf("warm admission cache deltas = %d hits, %d misses; want 2/0", r.CacheHits, r.CacheMisses)
	}
	if r.Tasks != 2 {
		t.Errorf("tasks after second admit = %d, want 2", r.Tasks)
	}
	// Remove is observed too.
	if status, _ := sh.Remove(ctx, "h2"); status != http.StatusOK {
		t.Fatal("remove failed")
	}
	r = <-recs
	if r.Op != "remove" || r.Task != "h2" || r.Tasks != 1 {
		t.Errorf("remove record = %+v", r)
	}
}

// TestObserverRejectRecorded checks the observer sees rejected admissions.
func TestObserverRejectRecorded(t *testing.T) {
	recs := make(chan AdmissionRecord, 16)
	svc, err := New(Config{M: 4, Observer: func(r AdmissionRecord) { recs <- r }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if status, _ := svc.ShardFor("").Admit(ctx, trijob("h1")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	<-recs
	status, _ := svc.ShardFor("").Admit(ctx, trijob("h2")) // needs 3 of the 1 remaining
	if status != http.StatusConflict {
		t.Fatalf("second trijob admitted on M=4: %d", status)
	}
	r := <-recs
	if r.Op != "admit" || r.Schedulable || r.Status != http.StatusConflict {
		t.Errorf("reject record = %+v", r)
	}
}

// TestAdmitTraceRejectionIncludesTrace: a ?trace=1 rejection returns the
// decision trace alongside the reason, naming the failing phase.
func TestAdmitTraceRejectionIncludesTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 3})
	c := ts.Client()
	if status, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("h1"))); status != http.StatusOK {
		t.Fatal("admit h1 failed")
	}
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit?trace=1", admitBody(t, trijob("h2")))
	if status != http.StatusConflict {
		t.Fatalf("status = %d, want 409", status)
	}
	var v struct {
		Schedulable bool            `json:"schedulable"`
		Reason      string          `json:"reason"`
		Trace       json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Schedulable || v.Reason == "" || len(v.Trace) == 0 {
		t.Fatalf("rejection verdict = %+v", v)
	}
	var spans []struct {
		Name  string         `json:"name"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal(v.Trace, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "fedcons" || spans[0].Attrs["phase"] != "high-density" {
		t.Errorf("trace root does not name the failing phase:\n%s", v.Trace)
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestFlightRecorderRejectionByteIdentity is the tentpole's core contract: a
// ?trace=1 rejection's inline trace and the flight recorder's retained copy
// at /debug/traces/{id} are the same bytes.
func TestFlightRecorderRejectionByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()

	if st, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri1"))); st != http.StatusOK {
		t.Fatalf("seed admit: %d", st)
	}
	status, body, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit?trace=1", admitBody(t, trijob("tri2")))
	if status != http.StatusConflict {
		t.Fatalf("expected rejection, got %d: %s", status, body)
	}
	traceID := hdr.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("rejection carries no X-Trace-Id")
	}
	var v struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Trace) == 0 {
		t.Fatal("traced rejection has no inline trace")
	}

	status, got, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces/"+traceID, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %s", traceID, status, got)
	}
	var entry FlightEntry
	if err := json.Unmarshal(got, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.TraceID != traceID || entry.Op != "admit" || entry.Task != "tri2" || entry.Status != http.StatusConflict {
		t.Fatalf("retained entry = %+v", entry)
	}
	if entry.Sampled {
		t.Fatal("client-traced rejection must not be marked sampled")
	}
	if !bytes.Equal(entry.Trace, v.Trace) {
		t.Fatalf("retained trace differs from inline trace:\nretained: %s\ninline:   %s", entry.Trace, v.Trace)
	}
	if entry.LatencyNs <= 0 || entry.UnixNs <= 0 {
		t.Fatalf("entry missing timing: %+v", entry)
	}
}

// TestFlightRecorderRetainsUntracedRejections: a rejection nobody traced is
// still listed (metadata-only) — the post-hoc "why was this rejected"
// question must have at least a skeleton answer.
func TestFlightRecorderRetainsUntracedRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, FlightSampleEvery: -1})
	c := ts.Client()

	doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri1")))
	_, _, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri2")))
	traceID := hdr.Get("X-Trace-Id")

	status, list, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", status)
	}
	lines := strings.Split(strings.TrimSpace(string(list)), "\n")
	if len(lines) != 1 {
		t.Fatalf("retained %d entries, want just the rejection:\n%s", len(lines), list)
	}
	var sum flightSummary
	if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.TraceID != traceID || sum.Status != http.StatusConflict || sum.HasTrace || sum.Sampled {
		t.Fatalf("summary = %+v", sum)
	}
	// The detail endpoint serves the same entry, span-less.
	status, got, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces/"+traceID, nil)
	if status != http.StatusOK {
		t.Fatalf("detail fetch = %d", status)
	}
	var entry FlightEntry
	if err := json.Unmarshal(got, &entry); err != nil {
		t.Fatal(err)
	}
	if len(entry.Trace) != 0 {
		t.Fatalf("untraced rejection grew a span tree: %s", entry.Trace)
	}
}

// TestFlightRecorderSampling: with FlightSampleEvery=1 every full-path admit
// retains a complete span tree even though no client asked for one.
func TestFlightRecorderSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, FlightSampleEvery: 1})
	c := ts.Client()

	if st, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri1"))); st != http.StatusOK {
		t.Fatal("admit failed")
	}
	_, list, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces", nil)
	lines := strings.Split(strings.TrimSpace(string(list)), "\n")
	if len(lines) != 1 {
		t.Fatalf("retained %d entries, want 1 sampled admit:\n%s", len(lines), list)
	}
	var sum flightSummary
	if err := json.Unmarshal([]byte(lines[0]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Sampled || !sum.HasTrace || sum.Status != http.StatusOK || sum.Op != "admit" {
		t.Fatalf("sampled admit summary = %+v", sum)
	}
	// The retained span tree is a real FEDCONS trace: root span "fedcons".
	_, got, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces/"+sum.TraceID, nil)
	var entry FlightEntry
	if err := json.Unmarshal(got, &entry); err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(entry.Trace, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "fedcons" {
		t.Fatalf("sampled trace root = %+v", spans)
	}
}

// TestFlightRecorderDisabled: FlightRecorderSize < 0 turns the subsystem off;
// the endpoints answer but retain nothing.
func TestFlightRecorderDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, FlightRecorderSize: -1})
	c := ts.Client()
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri1")))
	_, _, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("tri2"))) // rejected
	status, list, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces", nil)
	if status != http.StatusOK || strings.TrimSpace(string(list)) != "" {
		t.Fatalf("disabled recorder retained entries: %d %q", status, list)
	}
	status, _, _ = doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces/"+hdr.Get("X-Trace-Id"), nil)
	if status != http.StatusNotFound {
		t.Fatalf("disabled recorder served a trace: %d", status)
	}
}

// TestFlightRingBounded: the ring holds exactly its capacity, evicting the
// oldest entries, and lookups of evicted IDs 404.
func TestFlightRingBounded(t *testing.T) {
	r := newFlightRing(4)
	for i := 0; i < 10; i++ {
		r.put(&FlightEntry{TraceID: fmt.Sprintf("t-%d", i)})
	}
	got := r.entries()
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("t-%d", 6+i); e.TraceID != want {
			t.Fatalf("entry %d = %s, want %s", i, e.TraceID, want)
		}
	}
	if r.find("t-0") != nil {
		t.Fatal("evicted entry still findable")
	}
	if r.find("t-9") == nil {
		t.Fatal("newest entry not findable")
	}
}

// TestFlightRecorderDuplicateHasNoTrace: a duplicate-name refusal, single or
// batch, is decided before any analysis runs, so even under ?trace=1 its
// retained entry carries no span tree and lists has_trace false.
func TestFlightRecorderDuplicateHasNoTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4, FlightSampleEvery: -1})
	c := ts.Client()

	if st, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("dup"))); st != http.StatusOK {
		t.Fatalf("seed admit: %d", st)
	}
	refusals := []struct {
		path string
		body []byte
	}{
		{"/v1/admit?trace=1", admitBody(t, example1Task("dup"))},
		{"/v1/admit/batch?trace=1", batchBody(t, example1Task("dup"))},
	}
	for _, r := range refusals {
		status, body, hdr := doJSON(t, c, http.MethodPost, ts.URL+r.path, r.body)
		if status != http.StatusConflict {
			t.Fatalf("%s: got %d %s, want a duplicate-name 409", r.path, status, body)
		}
		_, got, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces/"+hdr.Get("X-Trace-Id"), nil)
		var entry FlightEntry
		if err := json.Unmarshal(got, &entry); err != nil {
			t.Fatalf("%s: %v: %s", r.path, err, got)
		}
		if entry.Task != "dup" || entry.Status != http.StatusConflict || len(entry.Trace) != 0 {
			t.Fatalf("%s: retained entry %+v with trace %s, want a trace-less 409", r.path, entry, entry.Trace)
		}
	}
	_, list, _ := doJSON(t, c, http.MethodGet, ts.URL+"/debug/traces", nil)
	lines := strings.Split(strings.TrimSpace(string(list)), "\n")
	if len(lines) != len(refusals) {
		t.Fatalf("retained %d entries, want the %d refusals:\n%s", len(lines), len(refusals), list)
	}
	for _, line := range lines {
		var sum flightSummary
		if err := json.Unmarshal([]byte(line), &sum); err != nil {
			t.Fatal(err)
		}
		if sum.HasTrace {
			t.Fatalf("duplicate refusal lists has_trace: %s", line)
		}
	}
}

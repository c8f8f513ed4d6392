package service

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
)

// DefaultFlightEntries is the per-shard flight-recorder capacity when
// Config.FlightRecorderSize is 0.
const DefaultFlightEntries = 256

// DefaultFlightSampleEvery is the default admit-sampling period: one in this
// many untraced full-path admissions records its complete decision trace.
const DefaultFlightSampleEvery = 64

// FlightEntry is one retained admission decision: who asked, what was
// decided, and — when the decision was client-traced or sampled — the full
// FEDCONS span tree, byte-identical to the ?trace=1 inline verdict's "trace"
// field (both render from the same obs export call).
type FlightEntry struct {
	Seq       uint64          `json:"seq"`
	TraceID   string          `json:"trace_id"`
	Shard     int             `json:"shard"`
	Cluster   string          `json:"cluster,omitempty"`
	Op        string          `json:"op"`
	Task      string          `json:"task"`
	Status    int             `json:"status"`
	Sampled   bool            `json:"sampled"` // true when the shard speculatively traced this op
	UnixNs    int64           `json:"unix_ns"`
	LatencyNs int64           `json:"latency_ns"`
	Trace     json.RawMessage `json:"trace,omitempty"`
}

// flightRing is the shard's bounded flight recorder: a lock-free ring of the
// last N decision entries. There is exactly one writer — the shard's writer
// loop — so put needs no CAS; readers (the /debug/traces handlers) load the
// slots atomically and may observe a torn *window* (entries admitted while
// they scan) but never a torn entry.
type flightRing struct {
	slots []atomic.Pointer[FlightEntry]
	seq   atomic.Uint64
}

func newFlightRing(n int) *flightRing {
	return &flightRing{slots: make([]atomic.Pointer[FlightEntry], n)}
}

// put retains e, evicting the oldest entry once the ring is full. Writer-loop
// only. e must not be mutated afterwards.
func (r *flightRing) put(e *FlightEntry) {
	if r == nil {
		return
	}
	e.Seq = r.seq.Add(1)
	r.slots[(e.Seq-1)%uint64(len(r.slots))].Store(e)
}

// entries returns the retained entries in admission order (ascending Seq).
// Safe for concurrent use with put.
func (r *flightRing) entries() []*FlightEntry {
	if r == nil {
		return nil
	}
	out := make([]*FlightEntry, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// find returns the retained entry with the given trace ID, or nil.
func (r *flightRing) find(id string) *FlightEntry {
	if r == nil {
		return nil
	}
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.TraceID == id {
			return e
		}
	}
	return nil
}

// flightSummary is the list view of an entry: everything but the (possibly
// large) span tree, plus a flag saying whether one is retained.
type flightSummary struct {
	Seq       uint64 `json:"seq"`
	TraceID   string `json:"trace_id"`
	Shard     int    `json:"shard"`
	Cluster   string `json:"cluster,omitempty"`
	Op        string `json:"op"`
	Task      string `json:"task"`
	Status    int    `json:"status"`
	Sampled   bool   `json:"sampled"`
	UnixNs    int64  `json:"unix_ns"`
	LatencyNs int64  `json:"latency_ns"`
	HasTrace  bool   `json:"has_trace"`
}

// handleTraces serves GET /debug/traces: one JSON line per retained entry
// across every shard, oldest first within a shard, shards in index order.
// Deterministic given a quiescent recorder — the JSONL export format the
// daemon's end-to-end test lists on failure.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	enc := json.NewEncoder(w)
	for _, sh := range s.shards {
		for _, e := range sh.flight.entries() {
			enc.Encode(flightSummary{
				Seq: e.Seq, TraceID: e.TraceID, Shard: e.Shard, Cluster: e.Cluster,
				Op: e.Op, Task: e.Task, Status: e.Status, Sampled: e.Sampled,
				UnixNs: e.UnixNs, LatencyNs: e.LatencyNs, HasTrace: len(e.Trace) > 0,
			})
		}
	}
}

// handleTraceByID serves GET /debug/traces/{id}: the full retained entry,
// span tree included.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, sh := range s.shards {
		if e := sh.flight.find(id); e != nil {
			// MarshalIndent, deliberately: the Verdict encoder renders its
			// body (trace field included) in two-space-indent form, and both
			// paths embed the trace at the same nesting depth — so the
			// retained "trace" field here re-indents to the exact bytes the
			// ?trace=1 inline verdict carried. That byte-identity is pinned
			// by TestFlightRecorderRejectionByteIdentity and, against the
			// real daemon, by cmd/fedschedd's TestDaemonLifecycle.
			body, err := json.MarshalIndent(e, "", "  ")
			if err != nil {
				writeJSON(w, errResult(http.StatusInternalServerError, "encoding trace: "+err.Error()))
				return
			}
			writeJSON(w, opResult{status: http.StatusOK, body: append(body, '\n')})
			return
		}
	}
	writeJSON(w, errResult(http.StatusNotFound, "no retained trace with id "+id+" (evicted or never recorded)"))
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fedsched/internal/dag"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

// The end-to-end tests drive the real daemon as a child process over real
// HTTP, so SIGKILL and SIGTERM reach a separate process exactly as they do
// in production. The child is this test binary: with childEnv set, TestMain
// runs main() on the child's arguments instead of the tests.
const childEnv = "FEDSCHEDD_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var e2eClient = &http.Client{Timeout: 10 * time.Second}

// childCmd returns a command that runs fedschedd with args.
func childCmd(t *testing.T, ctx context.Context, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// Under -race a process sleeps 1s at exit unless told otherwise; the
	// children exit dozens of times per run.
	cmd.Env = append(os.Environ(), childEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
	return cmd
}

// runOnce runs fedschedd to completion (a -wal-dump, or a boot that must be
// refused) and returns its combined output and exit status.
func runOnce(t *testing.T, args ...string) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := childCmd(t, ctx, args...).CombinedOutput()
	return string(out), err
}

// syncBuffer collects a child's output while exec's copying goroutine is
// still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one fedschedd child process serving on ephemeral ports.
type daemon struct {
	cmd   *exec.Cmd
	out   *syncBuffer
	done  chan struct{} // closed once the process has exited
	err   error         // the exit status; read only after done
	base  string        // public API listener
	debug string        // pprof listener, when started with one
}

// startDaemon boots `fedschedd -m 8 args...` on 127.0.0.1:0, plus a pprof
// listener when withDebug is set, and waits until it has bound. The process
// is killed when the test ends.
func startDaemon(t *testing.T, withDebug bool, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrfile, debugfile := filepath.Join(dir, "addr"), filepath.Join(dir, "debugaddr")
	args = append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile, "-m", "8"}, args...)
	if withDebug {
		args = append(args, "-debug-addr", "127.0.0.1:0", "-debug-addrfile", debugfile)
	}
	d := &daemon{out: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = childCmd(t, context.Background(), args...)
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(d.kill9)
	d.base = d.waitAddr(t, addrfile)
	if withDebug {
		d.debug = d.waitAddr(t, debugfile)
	}
	return d
}

// waitAddr polls an addrfile until the daemon has bound, failing fast if the
// process exits first.
func (d *daemon) waitAddr(t *testing.T, path string) string {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return "http://" + string(b)
		}
		select {
		case <-d.done:
			t.Fatalf("daemon exited before binding: %v\n%s", d.err, d.out)
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never wrote %s\n%s", path, d.out)
	return ""
}

// kill9 delivers SIGKILL (no drain, no final snapshot) and reaps the process.
func (d *daemon) kill9() {
	d.cmd.Process.Kill()
	<-d.done
}

// term delivers SIGTERM and requires a clean drain and exit status 0.
func (d *daemon) term(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit within 15s of SIGTERM\n%s", d.out)
	}
	if d.err != nil || !strings.Contains(d.out.String(), "drained, bye") {
		t.Fatalf("no clean drain (exit %v)\n%s", d.err, d.out)
	}
}

// call sends one request and returns the status, headers and body.
func call(t *testing.T, method, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e2eClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, b
}

// get fetches url and requires a 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	status, _, body := call(t, http.MethodGet, url, nil)
	if status != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, status, body)
	}
	return body
}

// admitTask POSTs tk to /v1/admit; query is "" or "?trace=1".
func admitTask(t *testing.T, base, query string, tk *task.DAGTask) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	return call(t, http.MethodPost, base+"/v1/admit"+query, body)
}

// admitBatch POSTs tks to /v1/admit/batch and decodes the verdict, which
// both 200 and 409 carry.
func admitBatch(t *testing.T, base string, tks ...*task.DAGTask) (int, service.Verdict) {
	t.Helper()
	body, err := json.Marshal(service.BatchRequest{Tasks: tks})
	if err != nil {
		t.Fatal(err)
	}
	status, _, resp := call(t, http.MethodPost, base+"/v1/admit/batch", body)
	var v service.Verdict
	unmarshal(t, resp, &v)
	return status, v
}

// allocation returns the raw and decoded GET /v1/allocation.
func allocation(t *testing.T, base string) ([]byte, service.Verdict) {
	t.Helper()
	body := get(t, base+"/v1/allocation")
	var v service.Verdict
	unmarshal(t, body, &v)
	return body, v
}

func unmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("not the expected JSON: %v\n%s", err, data)
	}
}

// scrape reads /metrics and returns the page and its samples by series.
func scrape(t *testing.T, base string) (string, map[string]string) {
	t.Helper()
	page := string(get(t, base+"/metrics"))
	samples := map[string]string{}
	for _, line := range strings.Split(page, "\n") {
		if series, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[series] = val
		}
	}
	return page, samples
}

// wantSamples requires each series in want to carry exactly its value.
func wantSamples(t *testing.T, page string, samples, want map[string]string) {
	t.Helper()
	for series, val := range want {
		if samples[series] != val {
			t.Errorf("/metrics %s = %q, want %q", series, samples[series], val)
		}
	}
	if t.Failed() {
		t.Fatalf("page:\n%s", page)
	}
}

func example1(name string) *task.DAGTask {
	return task.MustNew(name, dag.Example1(), dag.Example1D, dag.Example1T)
}

// trijob is three independent 5-unit jobs with D = T = 5: δ = 3, so Phase 1
// grants it exactly 3 dedicated processors.
func trijob(name string) *task.DAGTask {
	return task.MustNew(name, dag.Independent(5, 5, 5), 5, 5)
}

// highProcs maps each high-density task of v to its dedicated processors.
func highProcs(v service.Verdict) map[string][]int {
	procs := map[string][]int{}
	for _, h := range v.High {
		procs[h.Task] = h.Procs
	}
	return procs
}

// TestDaemonLifecycle walks one daemon started with -v, -audit and
// -debug-addr from boot to SIGTERM. Each step builds on the state the
// earlier ones left, so the first failing step stops the walk.
func TestDaemonLifecycle(t *testing.T) {
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	d := startDaemon(t, true, "-v", "-audit", auditPath)
	var traceID, rejectID string
	var inlineTrace json.RawMessage
	steps := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"healthz", func(t *testing.T) { get(t, d.base+"/v1/healthz") }},
		{"metrics-at-zero", func(t *testing.T) {
			page, samples := scrape(t, d.base)
			for _, family := range []string{"admits_total counter", "rejects_total counter",
				"queue_depth gauge", "cache_hit_rate gauge", "admit_latency_seconds histogram"} {
				if !strings.Contains(page, "# TYPE fedschedd_"+family+"\n") {
					t.Fatalf("/metrics lacks the %s family; page:\n%s", family, page)
				}
			}
			wantSamples(t, page, samples, map[string]string{
				"fedschedd_admits_total":                            "0",
				`fedschedd_admit_latency_seconds_bucket{le="+Inf"}`: "0",
				"fedschedd_admit_latency_seconds_count":             "0",
			})
		}},
		// Example 1 is low-density (δ = 9/16): accepted into the shared
		// partition, with an inline decision trace whose root span is timed.
		{"traced-example1", func(t *testing.T) {
			status, hdr, body := admitTask(t, d.base, "?trace=1", example1("example1"))
			if traceID = hdr.Get("X-Trace-Id"); status != http.StatusOK || traceID == "" {
				t.Fatalf("traced admit: status %d, X-Trace-Id %q\n%s", status, traceID, body)
			}
			var v struct {
				Schedulable bool `json:"schedulable"`
				Trace       []struct {
					Name  string `json:"name"`
					DurNs *int64 `json:"dur_ns"`
				} `json:"trace"`
			}
			unmarshal(t, body, &v)
			if !v.Schedulable || len(v.Trace) == 0 || v.Trace[0].Name != "fedcons" || v.Trace[0].DurNs == nil {
				t.Fatalf("?trace=1 verdict lacks a timed fedcons span: %s", body)
			}
			if _, alloc := allocation(t, d.base); !alloc.Schedulable || alloc.Tasks != 1 {
				t.Fatalf("allocation after the admit: %+v", alloc)
			}
		}},
		{"metrics-advanced", func(t *testing.T) {
			page, samples := scrape(t, d.base)
			wantSamples(t, page, samples, map[string]string{
				"fedschedd_admits_total":                "1",
				"fedschedd_admit_latency_seconds_count": "1",
				"fedschedd_tasks":                       "1",
			})
		}},
		{"trijob-grant", func(t *testing.T) {
			status, _, body := admitTask(t, d.base, "", trijob("trijob"))
			var v service.Verdict
			unmarshal(t, body, &v)
			if status != http.StatusOK || len(highProcs(v)["trijob"]) != 3 {
				t.Fatalf("trijob: status %d, want 200 and 3 dedicated processors\n%s", status, body)
			}
		}},
		{"batch-accept", func(t *testing.T) {
			status, v := admitBatch(t, d.base, example1("batch-a"), example1("batch-b"))
			if status != http.StatusOK || !v.Schedulable || v.Tasks != 4 {
				t.Fatalf("batch: status %d, verdict %+v; want 200 with 4 tasks", status, v)
			}
		}},
		// Two more trijobs need 6 dedicated processors but only 5 remain:
		// the whole batch bounces and the 4 installed tasks stay.
		{"batch-atomic-409", func(t *testing.T) {
			status, v := admitBatch(t, d.base, trijob("trijob2"), trijob("trijob3"))
			if status != http.StatusConflict || v.Schedulable {
				t.Fatalf("infeasible batch: status %d, verdict %+v; want 409", status, v)
			}
			if _, after := allocation(t, d.base); !after.Schedulable || after.Tasks != 4 {
				t.Fatalf("the rejected batch mutated the system: %+v", after)
			}
		}},
		// A traced rejection is retained by the flight recorder: the
		// post-mortem view must be byte for byte what the client saw.
		{"retained-rejection", func(t *testing.T) {
			for i := 0; i < 3 && rejectID == ""; i++ {
				status, hdr, body := admitTask(t, d.base, "?trace=1", trijob(fmt.Sprintf("tri%d", i)))
				switch status {
				case http.StatusOK:
				case http.StatusConflict:
					var rv struct {
						Trace json.RawMessage `json:"trace"`
					}
					unmarshal(t, body, &rv)
					rejectID, inlineTrace = hdr.Get("X-Trace-Id"), rv.Trace
				default:
					t.Fatalf("admit tri%d: %d %s", i, status, body)
				}
			}
			if rejectID == "" || len(inlineTrace) == 0 {
				t.Fatalf("no traced rejection on the m=8 platform (id %q)", rejectID)
			}
			listing := get(t, d.base+"/debug/traces")
			entryBody := get(t, d.base+"/debug/traces/"+rejectID)
			var entry struct {
				TraceID string          `json:"trace_id"`
				Op      string          `json:"op"`
				Status  int             `json:"status"`
				Trace   json.RawMessage `json:"trace"`
			}
			unmarshal(t, entryBody, &entry)
			if entry.TraceID != rejectID || entry.Op != "admit" || entry.Status != http.StatusConflict ||
				!bytes.Equal(entry.Trace, inlineTrace) || !bytes.Contains(listing, []byte(rejectID)) {
				t.Fatalf("retained rejection %s differs from the inline verdict or is unlisted\nretained: %s\ninline:   %s\n/debug/traces:\n%s",
					rejectID, entryBody, inlineTrace, listing)
			}
		}},
		{"pprof-debug-only", func(t *testing.T) {
			if prof := get(t, d.debug+"/debug/pprof/goroutine?debug=1"); !bytes.Contains(prof, []byte("goroutine profile:")) {
				t.Fatalf("unexpected pprof payload:\n%.200s", prof)
			}
			if status, _, _ := call(t, http.MethodGet, d.base+"/debug/pprof/goroutine", nil); status == http.StatusOK {
				t.Fatal("pprof served on the public API listener")
			}
		}},
		{"drain", func(t *testing.T) {
			d.term(t)
			if log := d.out.String(); !strings.Contains(log, "listening on http://") || !strings.Contains(log, traceID) {
				t.Fatalf("output lacks the banner or the -v line for trace %s:\n%s", traceID, log)
			}
		}},
		// One incident, three cross-referenced views: the rejection the
		// flight recorder retained is in the audit trail under its trace ID.
		{"audit-records", func(t *testing.T) {
			data, err := os.ReadFile(auditPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			foundReject := false
			for i, line := range lines {
				var r struct {
					Time        string `json:"time"`
					TraceID     string `json:"trace_id"`
					Op          string `json:"op"`
					Task        string `json:"task"`
					Schedulable bool   `json:"schedulable"`
					LatencyNs   int64  `json:"latency_ns"`
				}
				unmarshal(t, []byte(line), &r)
				if i == 0 && (r.TraceID != traceID || r.Op != "admit" || r.Task != "example1" ||
					!r.Schedulable || r.LatencyNs <= 0 || r.Time == "") {
					t.Fatalf("first audit record is not the example1 admit: %s", line)
				}
				if r.TraceID == rejectID {
					foundReject = true
					if r.Schedulable || r.Op != "admit" {
						t.Fatalf("the rejection's audit record: %s", line)
					}
				}
			}
			if len(lines) < 2 || !foundReject {
				t.Fatalf("audit log lacks the rejection %s:\n%s", rejectID, data)
			}
		}},
	}
	for _, st := range steps {
		if !t.Run(st.name, st.run) {
			t.FailNow()
		}
	}
}

// TestDaemonRecovery runs one durable history per policy: feed admits four
// tasks, two of them content-identical high-density ones, and removes
// "doomed", so the WAL ends at seq 5. The daemon then stops either by
// kill -9 at -snapshot-every 2 (the cadence snapshotted through seq 4, so
// the removal survives only on the fsynced WAL) or by a SIGTERM drain at
// -snapshot-every 1. Either way a reboot under another policy (or, for the
// typed row, other per-type budgets) is refused,
// the same flags recover a byte-identical allocation at seq 5 (with the
// Phase-1 cache prewarmed, where the policy uses it), and the next warm
// admission matches a never-crashed twin fed the same history.
func TestDaemonRecovery(t *testing.T) {
	// splitTask is high-density with vol=7 > window=6 > len=4: semi grants
	// it 1 dedicated processor plus a server of budget 7 − 1·(6−4) = 5,
	// and reservation ⌈(7−4)/(6−4)⌉ = 2 servers of budget ⌈(7+4)/2⌉ = 6 and
	// no dedicated processor, where strict FEDCONS dedicates 2 whole
	// processors.
	splitTask := func(name string) *task.DAGTask { return task.MustNew(name, dag.Independent(4, 3), 6, 6) }
	// mixedHigh fills its window min(D,T) = 6 on one processor of each
	// type, so Phase 1 grants one from the a-block [0,4) and one from the
	// b-block [4,8).
	mixedHigh := func(name string) *task.DAGTask {
		return typedDaemonTask(name, []int{0, 0, 1, 1}, []task.Time{3, 3, 3, 3}, 6, 10)
	}
	rows := []struct {
		name   string
		policy []string
		feed   []*task.DAGTask
		shape  func(v service.Verdict) bool
		wrong  [][]string // policy or platform flags a reboot over this WAL must refuse
		warm   *task.DAGTask
		memo   bool // the policy analyzes through the Phase-1 cache
	}{
		{
			name: "fedcons",
			feed: []*task.DAGTask{example1("example1"), trijob("tri-a"), trijob("tri-b"), example1("doomed")},
			shape: func(v service.Verdict) bool {
				procs := highProcs(v)
				return v.Policy == "" && len(procs["tri-a"]) == 3 && len(procs["tri-b"]) == 3
			},
			wrong: [][]string{{"-policy", "semi"}},
			warm:  example1("post-crash-low"),
			memo:  true,
		},
		{
			name:   "semi",
			policy: []string{"-policy", "semi"},
			feed:   []*task.DAGTask{example1("example1"), splitTask("split-a"), splitTask("split-b"), example1("doomed")},
			shape: func(v service.Verdict) bool {
				budgets := map[string]task.Time{}
				for _, sv := range v.Servers {
					budgets[sv.Task] = sv.Budget
				}
				return v.Policy == "semi" && budgets["split-a#srv0"] == 5 && budgets["split-b#srv0"] == 5
			},
			wrong: [][]string{{}, {"-policy", "reservation"}},
			warm:  example1("post-crash-low"),
		},
		{
			name:   "reservation",
			policy: []string{"-policy", "reservation"},
			feed:   []*task.DAGTask{example1("example1"), splitTask("split-a"), splitTask("split-b"), example1("doomed")},
			shape: func(v service.Verdict) bool {
				budgets := map[string]task.Time{}
				for _, sv := range v.Servers {
					budgets[sv.Task] = sv.Budget
				}
				return v.Policy == "reservation" && len(v.High) == 0 && len(v.Servers) == 4 &&
					budgets["split-a#srv0"] == 6 && budgets["split-a#srv1"] == 6 &&
					budgets["split-b#srv0"] == 6 && budgets["split-b#srv1"] == 6
			},
			wrong: [][]string{{}, {"-policy", "semi"}},
			warm:  example1("post-crash-low"),
		},
		{
			name:   "typed",
			policy: []string{"-policy", "typed", "-m-types", "a:4,b:4"},
			feed: []*task.DAGTask{mixedHigh("mixed-a"), mixedHigh("mixed-b"),
				typedDaemonTask("low-b", []int{1}, []task.Time{2}, 8, 16),
				typedDaemonTask("doomed", []int{0}, []task.Time{2}, 8, 16)},
			shape: func(v service.Verdict) bool {
				procs := highProcs(v)
				spans := func(p []int) bool { return len(p) == 2 && p[0] < 4 && p[1] >= 4 }
				return v.Policy == "typed" && fmt.Sprint(v.MTypes) == "[4 4]" &&
					spans(procs["mixed-a"]) && spans(procs["mixed-b"])
			},
			wrong: [][]string{{}, {"-policy", "typed", "-m-types", "a:7,b:1"}},
			warm:  typedDaemonTask("post-crash-low", []int{1}, []task.Time{2}, 8, 16),
		},
	}
	feed := func(t *testing.T, base string, tks []*task.DAGTask) {
		t.Helper()
		for _, tk := range tks {
			if status, _, body := admitTask(t, base, "", tk); status != http.StatusOK {
				t.Fatalf("admit %s: %d %s", tk.Name, status, body)
			}
		}
		if status, _, body := call(t, http.MethodDelete, base+"/v1/tasks/doomed", nil); status != http.StatusOK {
			t.Fatalf("remove doomed: %d %s", status, body)
		}
	}
	for _, row := range rows {
		for _, stop := range []string{"kill9", "drain"} {
			t.Run(row.name+"/"+stop, func(t *testing.T) {
				walDir := filepath.Join(t.TempDir(), "wal")
				every := map[string]string{"kill9": "2", "drain": "1"}[stop]
				durable := func(dir string) []string {
					return append([]string{"-wal-dir", dir, "-snapshot-every", every}, row.policy...)
				}
				d := startDaemon(t, false, durable(walDir)...)
				feed(t, d.base, row.feed)
				before, v := allocation(t, d.base)
				if !v.Schedulable || !row.shape(v) {
					t.Fatalf("allocation lacks the %s shape:\n%s", row.name, before)
				}
				if stop == "drain" {
					d.term(t)
				} else {
					d.kill9()
					// Post-mortem of the dead daemon's log: only the removal
					// is past the last snapshot.
					dump, err := runOnce(t, "-wal-dump", walDir)
					var rec struct {
						Seq   uint64 `json:"seq"`
						Op    string `json:"op"`
						Name  string `json:"name"`
						Trace string `json:"trace"`
						CRC   string `json:"crc"`
					}
					if lines := strings.Split(strings.TrimSpace(dump), "\n"); err != nil || len(lines) != 1 {
						t.Fatalf("-wal-dump: %v, %d lines, want 1 record:\n%s", err, len(lines), dump)
					}
					unmarshal(t, []byte(dump), &rec)
					if rec.Seq != 5 || rec.Op != "remove" || rec.Name != "doomed" || rec.Trace == "" || rec.CRC != "ok" {
						t.Fatalf("-wal-dump record: %s", dump)
					}
				}
				for _, wrong := range row.wrong {
					args := append([]string{"-addr", "127.0.0.1:0", "-m", "8", "-wal-dir", walDir}, wrong...)
					if out, err := runOnce(t, args...); err == nil || !strings.Contains(out, "refusing to reinterpret") {
						t.Fatalf("reboot with %v over a %s WAL: exit %v, want a refusal:\n%s", wrong, row.name, err, out)
					}
				}

				d2 := startDaemon(t, false, durable(walDir)...)
				if after, _ := allocation(t, d2.base); !bytes.Equal(before, after) {
					t.Fatalf("allocation changed across %s + restart:\n--- before ---\n%s--- after ---\n%s", stop, before, after)
				}
				// Recovery re-analyzed the two identical high-density tasks:
				// under a memoized policy the second hit the cache the first
				// warmed, before any client traffic.
				page, samples := scrape(t, d2.base)
				hits, _ := strconv.Atoi(samples["fedschedd_cache_hits"])
				entries, _ := strconv.Atoi(samples["fedschedd_cache_entries"])
				if row.memo && (hits < 1 || entries < 1) || samples["fedschedd_wal_seq"] != "5" {
					t.Fatalf("recovery did not prewarm the cache or lost the WAL seq:\n%s", page)
				}

				twin := startDaemon(t, false, durable(filepath.Join(t.TempDir(), "wal-twin"))...)
				feed(t, twin.base, row.feed)
				s1, _, b1 := admitTask(t, d2.base, "", row.warm)
				s2, _, b2 := admitTask(t, twin.base, "", row.warm)
				if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(b1, b2) {
					t.Fatalf("warm admit after recovery diverged from the twin (%d vs %d):\n--- recovered ---\n%s--- twin ---\n%s", s1, s2, b1, b2)
				}
				if a1, _ := allocation(t, d2.base); !bytes.Equal(a1, get(t, twin.base+"/v1/allocation")) {
					t.Fatalf("allocation after the warm admit diverged from the twin:\n%s", a1)
				}
			})
		}
	}
}

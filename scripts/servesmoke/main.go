// Command servesmoke is the end-to-end smoke test for the fedschedd daemon,
// run by `make serve-smoke` (and CI). It exercises the real binary over real
// HTTP, not httptest:
//
//  1. builds ./cmd/fedschedd into a temp dir,
//  2. starts it on an ephemeral port (-addr 127.0.0.1:0 -addrfile),
//  3. waits for /v1/healthz,
//  4. admits the paper's Example 1 task and asserts it is accepted,
//  5. admits a 3-wide high-density task and asserts Phase 1 grants it
//     exactly 3 dedicated processors (Example 1 itself is low-density —
//     δ = 9/16 — so it can never receive a dedicated grant),
//  6. batch-admits two further low-density tasks atomically via
//     POST /v1/admit/batch and asserts both are installed,
//  7. batch-admits an infeasible pair (two more 3-wide tasks against the
//     5 remaining processors) and asserts the 409 leaves the installed
//     system untouched — the all-or-nothing contract,
//  8. sends SIGTERM and asserts a clean drain and exit code 0.
//
// It then runs the crash-recovery smoke: boots the daemon with -wal-dir,
// admits a mixed system, captures /v1/allocation, SIGKILLs the process (no
// drain, no snapshot), post-mortems the dead daemon's log with
// `fedschedd -wal-dump`, restarts it on the same -wal-dir, and asserts the
// recovered allocation is byte-identical and the Phase-1 cache came back
// warm (cache_hits > 0 before any new request). Finally it boots a
// never-crashed twin on a fresh -wal-dir, replays the same history, and
// asserts the next low-density admission — served by the recovered daemon's
// rebuilt incremental Phase-2 state — returns byte-identical verdict and
// allocation bodies on both daemons.
//
// Any failure exits non-zero with a diagnosis on stderr.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fedsched/internal/dag"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

func main() {
	if err := smoke(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: PASS")
	if err := crashRecoverySmoke(); err != nil {
		fmt.Fprintln(os.Stderr, "crash-recovery-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("crash-recovery-smoke: PASS")
	if err := policySmoke(); err != nil {
		fmt.Fprintln(os.Stderr, "policy-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("policy-smoke: PASS")
	if err := typedSmoke(); err != nil {
		fmt.Fprintln(os.Stderr, "typed-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("typed-smoke: PASS")
}

func smoke() error {
	tmp, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fedschedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building fedschedd: %w", err)
	}

	addrfile := filepath.Join(tmp, "addr")
	var out bytes.Buffer
	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrfile, "-m", "8")
	daemon.Stdout, daemon.Stderr = &out, &out
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting daemon: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill()

	base, err := waitForAddr(addrfile, exited, &out)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if err := get(client, base+"/v1/healthz"); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	// The paper's Example 1 task: low-density (δ = 9/16), accepted into the
	// shared partition.
	ex1 := task.MustNew("example1", dag.Example1(), dag.Example1D, dag.Example1T)
	v, err := admit(client, base, ex1)
	if err != nil {
		return fmt.Errorf("admit example1: %w", err)
	}
	if !v.Schedulable {
		return fmt.Errorf("example1 rejected: %s", v.Reason)
	}

	// Three independent 5-unit jobs with D = T = 5: δ = 3, and MINPROCS needs
	// all three processors — the asserted Phase-1 grant.
	tri := task.MustNew("trijob", dag.Independent(5, 5, 5), 5, 5)
	v, err = admit(client, base, tri)
	if err != nil {
		return fmt.Errorf("admit trijob: %w", err)
	}
	if !v.Schedulable {
		return fmt.Errorf("trijob rejected: %s", v.Reason)
	}
	granted := -1
	for _, h := range v.High {
		if h.Task == "trijob" {
			granted = len(h.Procs)
		}
	}
	if granted != 3 {
		return fmt.Errorf("trijob got %d dedicated processors, want 3; verdict: %+v", granted, v)
	}

	// Batch admission: two more low-density tasks, all-or-nothing. Both fit
	// on the shared partition next to example1.
	v, status, err := admitBatch(client, base,
		task.MustNew("batch-a", dag.Example1(), dag.Example1D, dag.Example1T),
		task.MustNew("batch-b", dag.Example1(), dag.Example1D, dag.Example1T))
	if err != nil {
		return fmt.Errorf("batch admit: %w", err)
	}
	if status != http.StatusOK || !v.Schedulable || v.Tasks != 4 {
		return fmt.Errorf("batch admit: status %d, verdict %+v; want 200 with 4 tasks", status, v)
	}

	// Atomic rejection: two more 3-wide tasks need 6 dedicated processors
	// but only 5 remain, so the whole batch must bounce with 409 and leave
	// the 4 installed tasks untouched.
	v, status, err = admitBatch(client, base,
		task.MustNew("trijob2", dag.Independent(5, 5, 5), 5, 5),
		task.MustNew("trijob3", dag.Independent(5, 5, 5), 5, 5))
	if err != nil {
		return fmt.Errorf("infeasible batch: %w", err)
	}
	if status != http.StatusConflict || v.Schedulable {
		return fmt.Errorf("infeasible batch: status %d, verdict %+v; want 409 unschedulable", status, v)
	}
	var after service.Verdict
	if err := getJSON(client, base+"/v1/allocation", &after); err != nil {
		return fmt.Errorf("allocation after batch reject: %w", err)
	}
	if !after.Schedulable || after.Tasks != 4 {
		return fmt.Errorf("batch rejection mutated the system: %+v", after)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sending SIGTERM: %w", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exited with %v; output:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit within 15s of SIGTERM; output:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("drained, bye")) {
		return fmt.Errorf("daemon did not report a clean drain; output:\n%s", out.String())
	}
	return nil
}

// crashRecoverySmoke is the kill -9 durability check: a daemon with -wal-dir
// must restart into the exact pre-crash state with a warm Phase-1 cache.
func crashRecoverySmoke() error {
	tmp, err := os.MkdirTemp("", "crashsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fedschedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building fedschedd: %w", err)
	}
	walDir := filepath.Join(tmp, "wal")
	client := &http.Client{Timeout: 5 * time.Second}

	boot := func(tag, dir string) (*exec.Cmd, chan error, string, *bytes.Buffer, error) {
		addrfile := filepath.Join(tmp, "addr-"+tag)
		var out bytes.Buffer
		daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-m", "8", "-wal-dir", dir, "-snapshot-every", "2")
		daemon.Stdout, daemon.Stderr = &out, &out
		if err := daemon.Start(); err != nil {
			return nil, nil, "", nil, fmt.Errorf("starting daemon (%s): %w", tag, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		base, err := waitForAddr(addrfile, exited, &out)
		if err != nil {
			daemon.Process.Kill()
			return nil, nil, "", nil, err
		}
		return daemon, exited, base, &out, nil
	}

	daemon, exited, base, out, err := boot("pre-crash", walDir)
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	// A mixed durable history: a low-density task plus two content-identical
	// high-density tasks (the second trijob is the recovery cache hit we
	// assert below), a removal so replay covers both record kinds. feed
	// drives the same history into any daemon, so the never-crashed twin
	// below sees exactly what the crashed one did.
	feed := func(base string) error {
		for _, tk := range []*task.DAGTask{
			task.MustNew("example1", dag.Example1(), dag.Example1D, dag.Example1T),
			task.MustNew("tri-a", dag.Independent(5, 5, 5), 5, 5),
			task.MustNew("tri-b", dag.Independent(5, 5, 5), 5, 5),
			task.MustNew("doomed", dag.Example1(), dag.Example1D, dag.Example1T),
		} {
			if v, err := admit(client, base, tk); err != nil || !v.Schedulable {
				return fmt.Errorf("admit %s: err=%v verdict=%+v", tk.Name, err, v)
			}
		}
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/tasks/doomed", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("remove doomed: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("remove doomed: %s", resp.Status)
		}
		return nil
	}
	if err := feed(base); err != nil {
		return err
	}
	before, err := getBody(client, base+"/v1/allocation")
	if err != nil {
		return err
	}

	// kill -9: no drain, no snapshot flush — recovery must come purely from
	// the fsynced WAL (plus any snapshot the cadence already wrote).
	if err := daemon.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	<-exited

	// Post-mortem before the restart: -wal-dump reads the dead daemon's log.
	// At -snapshot-every 2 the cadence snapshotted through seq 4 and reset
	// the WAL, so exactly the final removal is on the log — carrying its op,
	// task name, trace ID and a clean CRC.
	var dump bytes.Buffer
	dumpCmd := exec.Command(bin, "-wal-dump", walDir)
	dumpCmd.Stdout, dumpCmd.Stderr = &dump, &dump
	if err := dumpCmd.Run(); err != nil {
		return fmt.Errorf("-wal-dump after crash: %w\n%s", err, dump.String())
	}
	dumpLines := strings.Split(strings.TrimSpace(dump.String()), "\n")
	if len(dumpLines) != 1 {
		return fmt.Errorf("-wal-dump printed %d lines, want 1 (post-snapshot removal):\n%s", len(dumpLines), dump.String())
	}
	var dumped struct {
		Seq   uint64 `json:"seq"`
		Op    string `json:"op"`
		Name  string `json:"name"`
		Trace string `json:"trace"`
		CRC   string `json:"crc"`
	}
	if err := json.Unmarshal([]byte(dumpLines[0]), &dumped); err != nil {
		return fmt.Errorf("-wal-dump line not JSON: %v\n%s", err, dumpLines[0])
	}
	if dumped.Seq != 5 || dumped.Op != "remove" || dumped.Name != "doomed" || dumped.Trace == "" || dumped.CRC != "ok" {
		return fmt.Errorf("-wal-dump record fields wrong: %s", dumpLines[0])
	}

	daemon2, _, base2, out2, err := boot("post-crash", walDir)
	if err != nil {
		return fmt.Errorf("restart after crash: %w (first boot output:\n%s)", err, out.String())
	}
	defer daemon2.Process.Kill()

	after, err := getBody(client, base2+"/v1/allocation")
	if err != nil {
		return fmt.Errorf("allocation after restart: %w (output:\n%s)", err, out2.String())
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("allocation changed across kill -9 + restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// The recovery replay re-analyzed tri-a and tri-b (identical content):
	// the second one must have hit the memo the first one warmed, before any
	// client traffic.
	var vars struct {
		CacheHits    int64 `json:"cache_hits"`
		CacheEntries int64 `json:"cache_entries"`
		WALSeq       int64 `json:"wal_seq"`
	}
	if err := getJSON(client, base2+"/debug/vars", &vars); err != nil {
		return fmt.Errorf("vars after restart: %w", err)
	}
	if vars.CacheHits < 1 || vars.CacheEntries < 1 {
		return fmt.Errorf("recovery did not prewarm the Phase-1 cache: hits=%d entries=%d", vars.CacheHits, vars.CacheEntries)
	}
	if vars.WALSeq != 5 {
		return fmt.Errorf("recovered wal_seq = %d, want 5 (4 admits + 1 remove)", vars.WALSeq)
	}

	// Recovery also rebuilt the incremental Phase-2 partition state. The next
	// low-density admission rides it — and must be byte-identical to a
	// never-crashed twin daemon fed the same history.
	twin, _, baseTwin, outTwin, err := boot("twin", filepath.Join(tmp, "wal-twin"))
	if err != nil {
		return fmt.Errorf("booting never-crashed twin: %w", err)
	}
	defer twin.Process.Kill()
	if err := feed(baseTwin); err != nil {
		return fmt.Errorf("replaying history into twin: %w (output:\n%s)", err, outTwin.String())
	}
	postLow := func() *task.DAGTask {
		return task.MustNew("post-crash-low", dag.Example1(), dag.Example1D, dag.Example1T)
	}
	s1, b1, err := admitRaw(client, base2, postLow())
	if err != nil {
		return fmt.Errorf("post-crash warm admit: %w", err)
	}
	s2, b2, err := admitRaw(client, baseTwin, postLow())
	if err != nil {
		return fmt.Errorf("twin warm admit: %w", err)
	}
	if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(b1, b2) {
		return fmt.Errorf("warm admission after recovery diverged from twin (%d vs %d):\n--- recovered ---\n%s--- twin ---\n%s", s1, s2, b1, b2)
	}
	allocRec, err := getBody(client, base2+"/v1/allocation")
	if err != nil {
		return err
	}
	allocTwin, err := getBody(client, baseTwin+"/v1/allocation")
	if err != nil {
		return err
	}
	if !bytes.Equal(allocRec, allocTwin) {
		return fmt.Errorf("allocation after warm admission diverged from twin:\n--- recovered ---\n%s--- twin ---\n%s", allocRec, allocTwin)
	}
	twin.Process.Kill()
	daemon2.Process.Kill()
	return nil
}

// policySmoke is the -policy=semi durability pass: a daemon running the
// semi-federated policy admits a system whose high-density tasks take
// fractional grants (one dedicated processor plus a reservation server each,
// where strict FEDCONS would round up to two whole processors), survives
// kill -9 with a byte-identical allocation, refuses to reboot under a
// different policy (the snapshot header pins it), and serves warm admissions
// byte-identical to a never-crashed twin.
func policySmoke() error {
	tmp, err := os.MkdirTemp("", "policysmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fedschedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building fedschedd: %w", err)
	}
	walDir := filepath.Join(tmp, "wal")
	client := &http.Client{Timeout: 5 * time.Second}

	boot := func(tag, dir, policy string) (*exec.Cmd, chan error, string, *bytes.Buffer, error) {
		addrfile := filepath.Join(tmp, "addr-"+tag)
		var out bytes.Buffer
		args := []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-m", "8", "-wal-dir", dir, "-snapshot-every", "2"}
		if policy != "" {
			args = append(args, "-policy", policy)
		}
		daemon := exec.Command(bin, args...)
		daemon.Stdout, daemon.Stderr = &out, &out
		if err := daemon.Start(); err != nil {
			return nil, nil, "", nil, fmt.Errorf("starting daemon (%s): %w", tag, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		base, err := waitForAddr(addrfile, exited, &out)
		if err != nil {
			daemon.Process.Kill()
			return nil, nil, "", nil, err
		}
		return daemon, exited, base, &out, nil
	}

	// splitTask is high-density with vol=7 > window=6 > len=4: the semi
	// policy grants it ⌈(7−6)/(6−4)⌉ = 1 dedicated processor plus a server
	// of budget 7 − 1·(6−4) = 5, where strict FEDCONS dedicates 2 whole
	// processors.
	splitTask := func(name string) *task.DAGTask {
		return task.MustNew(name, dag.Independent(4, 3), 6, 6)
	}
	feed := func(base string) error {
		for _, tk := range []*task.DAGTask{
			task.MustNew("example1", dag.Example1(), dag.Example1D, dag.Example1T),
			splitTask("split-a"),
			splitTask("split-b"),
			task.MustNew("doomed", dag.Example1(), dag.Example1D, dag.Example1T),
		} {
			if v, err := admit(client, base, tk); err != nil || !v.Schedulable {
				return fmt.Errorf("admit %s: err=%v verdict=%+v", tk.Name, err, v)
			}
		}
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/tasks/doomed", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("remove doomed: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("remove doomed: %s", resp.Status)
		}
		return nil
	}

	daemon, exited, base, out, err := boot("pre-crash", walDir, "semi")
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()
	if err := feed(base); err != nil {
		return err
	}

	// The installed allocation must carry the fractional shape: the semi
	// policy tag and one budget-5 server per split task.
	var v service.Verdict
	if err := getJSON(client, base+"/v1/allocation", &v); err != nil {
		return err
	}
	if v.Policy != "semi" {
		return fmt.Errorf("allocation policy = %q, want semi: %+v", v.Policy, v)
	}
	servers := map[string]task.Time{}
	for _, sv := range v.Servers {
		servers[sv.Task] = sv.Budget
	}
	if servers["split-a#srv0"] != 5 || servers["split-b#srv0"] != 5 {
		return fmt.Errorf("expected budget-5 servers for split-a and split-b, got %+v", v.Servers)
	}

	before, err := getBody(client, base+"/v1/allocation")
	if err != nil {
		return err
	}
	if err := daemon.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	<-exited

	// A reboot under a different policy must refuse the directory.
	for _, wrong := range []string{"", "reservation"} {
		mismatch := exec.Command(bin, "-addr", "127.0.0.1:0", "-m", "8", "-wal-dir", walDir)
		if wrong != "" {
			mismatch.Args = append(mismatch.Args, "-policy", wrong)
		}
		var mout bytes.Buffer
		mismatch.Stdout, mismatch.Stderr = &mout, &mout
		if err := mismatch.Run(); err == nil {
			mismatch.Process.Kill()
			return fmt.Errorf("reboot with policy %q over a semi WAL succeeded, want refusal", wrong)
		}
		if !bytes.Contains(mout.Bytes(), []byte("refusing to reinterpret")) {
			return fmt.Errorf("policy-mismatch reboot (%q) failed without the refusal diagnostic:\n%s", wrong, mout.String())
		}
	}

	daemon2, _, base2, out2, err := boot("post-crash", walDir, "semi")
	if err != nil {
		return fmt.Errorf("restart after crash: %w (first boot output:\n%s)", err, out.String())
	}
	defer daemon2.Process.Kill()
	after, err := getBody(client, base2+"/v1/allocation")
	if err != nil {
		return fmt.Errorf("allocation after restart: %w (output:\n%s)", err, out2.String())
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("semi allocation changed across kill -9 + restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// Warm admissions after recovery must match a never-crashed twin.
	twin, _, baseTwin, outTwin, err := boot("twin", filepath.Join(tmp, "wal-twin"), "semi")
	if err != nil {
		return fmt.Errorf("booting never-crashed twin: %w", err)
	}
	defer twin.Process.Kill()
	if err := feed(baseTwin); err != nil {
		return fmt.Errorf("replaying history into twin: %w (output:\n%s)", err, outTwin.String())
	}
	postLow := func() *task.DAGTask {
		return task.MustNew("post-crash-low", dag.Example1(), dag.Example1D, dag.Example1T)
	}
	s1, b1, err := admitRaw(client, base2, postLow())
	if err != nil {
		return fmt.Errorf("post-crash warm admit: %w", err)
	}
	s2, b2, err := admitRaw(client, baseTwin, postLow())
	if err != nil {
		return fmt.Errorf("twin warm admit: %w", err)
	}
	if s1 != http.StatusOK || s2 != http.StatusOK || !bytes.Equal(b1, b2) {
		return fmt.Errorf("semi warm admission after recovery diverged from twin (%d vs %d):\n--- recovered ---\n%s--- twin ---\n%s", s1, s2, b1, b2)
	}
	twin.Process.Kill()
	daemon2.Process.Kill()
	return nil
}

// typedSmoke is the -policy=typed durability pass: a daemon declaring a
// heterogeneous platform (-m-types a:4,b:4) admits a mixed-type high-density
// task (one dedicated processor from each type block) and a uniformly
// type-b low task over HTTP, survives kill -9 with a byte-identical
// allocation, and refuses to reboot under the default policy (the snapshot
// header pins "typed").
func typedSmoke() error {
	tmp, err := os.MkdirTemp("", "typedsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fedschedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building fedschedd: %w", err)
	}
	walDir := filepath.Join(tmp, "wal")
	client := &http.Client{Timeout: 5 * time.Second}

	boot := func(tag string) (*exec.Cmd, chan error, string, *bytes.Buffer, error) {
		addrfile := filepath.Join(tmp, "addr-"+tag)
		var out bytes.Buffer
		daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-m", "8", "-policy", "typed", "-m-types", "a:4,b:4",
			"-wal-dir", walDir, "-snapshot-every", "2")
		daemon.Stdout, daemon.Stderr = &out, &out
		if err := daemon.Start(); err != nil {
			return nil, nil, "", nil, fmt.Errorf("starting daemon (%s): %w", tag, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- daemon.Wait() }()
		base, err := waitForAddr(addrfile, exited, &out)
		if err != nil {
			daemon.Process.Kill()
			return nil, nil, "", nil, err
		}
		return daemon, exited, base, &out, nil
	}

	// typedTask builds an independent-vertex DAG with per-vertex types.
	typedTask := func(name string, types []int, wcets []task.Time, d, t task.Time) *task.DAGTask {
		b := dag.NewBuilder(len(types))
		for i, ty := range types {
			b.AddTypedVertex("", wcets[i], ty)
		}
		return task.MustNew(name, b.MustBuild(), d, t)
	}

	daemon, exited, base, out, err := boot("pre-crash")
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	// A mixed-type high task: per type, vol = 6 fills window min(D,T) = 6 on
	// one processor, so Phase 1 must grant exactly one processor per type —
	// one from the type-a block [0,4) and one from the type-b block [4,8).
	// The low task is uniformly type b, partitioned on a type-b shared
	// processor; "doomed" exercises the removal record kind.
	mixed := typedTask("mixed-high", []int{0, 0, 1, 1}, []task.Time{3, 3, 3, 3}, 6, 10)
	for _, tk := range []*task.DAGTask{
		mixed,
		typedTask("low-b", []int{1}, []task.Time{2}, 8, 16),
		typedTask("doomed", []int{0}, []task.Time{2}, 8, 16),
	} {
		if v, err := admit(client, base, tk); err != nil || !v.Schedulable {
			return fmt.Errorf("admit %s: err=%v verdict=%+v", tk.Name, err, v)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/tasks/doomed", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("remove doomed: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remove doomed: %s", resp.Status)
	}

	// The installed allocation must carry the typed shape — and the mixed
	// task's grant must actually span both declared type blocks.
	var v service.Verdict
	if err := getJSON(client, base+"/v1/allocation", &v); err != nil {
		return err
	}
	if v.Policy != "typed" || len(v.MTypes) != 2 || v.MTypes[0] != 4 || v.MTypes[1] != 4 {
		return fmt.Errorf("allocation policy/mtypes = %q/%v, want typed/[4 4]: %+v", v.Policy, v.MTypes, v)
	}
	for _, h := range v.High {
		if h.Task != "mixed-high" {
			continue
		}
		if len(h.Procs) != 2 || h.Procs[0] >= 4 || h.Procs[1] < 4 {
			return fmt.Errorf("mixed-high grant %v does not span the type blocks [0,4)+[4,8)", h.Procs)
		}
	}

	before, err := getBody(client, base+"/v1/allocation")
	if err != nil {
		return err
	}
	if err := daemon.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	<-exited

	// A default-policy reboot must refuse the typed directory.
	mismatch := exec.Command(bin, "-addr", "127.0.0.1:0", "-m", "8", "-wal-dir", walDir)
	var mout bytes.Buffer
	mismatch.Stdout, mismatch.Stderr = &mout, &mout
	if err := mismatch.Run(); err == nil {
		mismatch.Process.Kill()
		return fmt.Errorf("default-policy reboot over a typed WAL succeeded, want refusal")
	}
	if !bytes.Contains(mout.Bytes(), []byte("refusing to reinterpret")) {
		return fmt.Errorf("policy-mismatch reboot failed without the refusal diagnostic:\n%s", mout.String())
	}

	daemon2, _, base2, out2, err := boot("post-crash")
	if err != nil {
		return fmt.Errorf("restart after crash: %w (first boot output:\n%s)", err, out.String())
	}
	defer daemon2.Process.Kill()
	after, err := getBody(client, base2+"/v1/allocation")
	if err != nil {
		return fmt.Errorf("allocation after restart: %w (output:\n%s)", err, out2.String())
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("typed allocation changed across kill -9 + restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// A further typed admission on the recovered daemon rides the per-type
	// partition banks rebuilt on recovery (the warm path) and must land on a
	// type-b shared processor, keeping the allocation verifiable end to end.
	s, _, err := admitRaw(client, base2, typedTask("post-crash-low", []int{1}, []task.Time{2}, 8, 16))
	if err != nil {
		return fmt.Errorf("post-crash typed admit: %w", err)
	}
	if s != http.StatusOK {
		return fmt.Errorf("post-crash typed admit: status %d, want 200", s)
	}
	daemon2.Process.Kill()
	return nil
}

// admitRaw POSTs tk to /v1/admit and returns the raw status and body bytes
// for byte-level comparison.
func admitRaw(client *http.Client, base string, tk *task.DAGTask) (int, []byte, error) {
	body, err := json.Marshal(tk)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(base+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getBody GETs url and returns the raw body on 200.
func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// waitForAddr polls the -addrfile until the daemon binds, failing fast if the
// process dies first.
func waitForAddr(path string, exited <-chan error, out *bytes.Buffer) (string, error) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return "", fmt.Errorf("daemon exited before binding: %v; output:\n%s", err, out.String())
		default:
		}
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return "http://" + string(b), nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("daemon never wrote %s; output:\n%s", path, out.String())
}

func get(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// admitBatch POSTs tks to /v1/admit/batch and decodes the verdict (200 and
// 409 both carry one), reporting the status for the caller to assert on.
func admitBatch(client *http.Client, base string, tks ...*task.DAGTask) (service.Verdict, int, error) {
	var v service.Verdict
	body, err := json.Marshal(service.BatchRequest{Tasks: tks})
	if err != nil {
		return v, 0, err
	}
	resp, err := client.Post(base+"/v1/admit/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return v, resp.StatusCode, fmt.Errorf("POST /v1/admit/batch: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, resp.StatusCode, fmt.Errorf("decoding batch verdict: %w", err)
	}
	return v, resp.StatusCode, nil
}

// getJSON GETs url and decodes the body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// admit POSTs tk and decodes the verdict (200 and 409 both carry one).
func admit(client *http.Client, base string, tk *task.DAGTask) (service.Verdict, error) {
	var v service.Verdict
	body, err := json.Marshal(tk)
	if err != nil {
		return v, err
	}
	resp, err := client.Post(base+"/v1/admit", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return v, fmt.Errorf("POST /v1/admit: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decoding verdict: %w", err)
	}
	return v, nil
}

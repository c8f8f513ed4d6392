package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fedsched/internal/dag"
	"fedsched/internal/task"
)

// typedDaemonTask builds a DAG task with per-vertex types for the daemon
// tests: independent vertices, types[i] and wcets[i] per vertex.
func typedDaemonTask(name string, types []int, wcets []task.Time, d, t task.Time) *task.DAGTask {
	b := dag.NewBuilder(len(types))
	for i, ty := range types {
		b.AddTypedVertex("", wcets[i], ty)
	}
	return task.MustNew(name, b.MustBuild(), d, t)
}

// TestTypedFlagValidationDaemon: -m-types demands -policy=typed and a
// well-formed spec, both refused before a port is bound; a typed boot
// announces the policy in the startup banner.
func TestTypedFlagValidationDaemon(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"mtypes-without-typed", []string{"-m-types", "a:8"}, "-m-types requires -policy=typed"},
		{"mtypes-with-semi", []string{"-policy", "semi", "-m-types", "a:8"}, "-m-types requires -policy=typed"},
		{"bad-spec", []string{"-policy", "typed", "-m-types", "a8"}, "want <type>:<count>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}

	addrfile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-m", "8", "-policy", "typed", "-m-types", "a:4,b:4"}, &out)
	}()
	waitForAddr(t, addrfile)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if log := out.String(); !strings.Contains(log, " typed/ls-scan/insertion/first-fit/dbf-approx listening") {
		t.Errorf("banner does not announce the typed policy:\n%s", log)
	}
}

// TestTypedRecoveryByteIdentity pins the durability contract of the typed
// policy: a WAL directory written under -policy=typed with per-type budgets
// recovers to a byte-identical /v1/allocation under the same flags, and a
// reboot under the default policy refuses the directory.
func TestTypedRecoveryByteIdentity(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	client := &http.Client{Timeout: 5 * time.Second}

	// A mixed-type high-density task (needs one processor of each type) and
	// a uniformly type-b low task (partitioned on a type-b shared processor).
	high := typedDaemonTask("ht", []int{0, 0, 1, 1}, []task.Time{3, 3, 3, 3}, 6, 10)
	low := typedDaemonTask("lb", []int{1}, []task.Time{2}, 8, 16)

	boot := func(addrname string) (context.CancelFunc, chan error, string) {
		addrfile := filepath.Join(dir, addrname)
		ctx, cancel := context.WithCancel(context.Background())
		var out syncBuffer
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
				"-m", "8", "-policy", "typed", "-m-types", "a:4,b:4",
				"-wal-dir", wal, "-snapshot-every", "1"}, &out)
		}()
		return cancel, done, addrfile
	}

	// First life: admit both tasks, record the allocation bytes, drain.
	cancel, done, addrfile := boot("addr1")
	base := "http://" + waitForAddr(t, addrfile)
	for _, tk := range []*task.DAGTask{high, low} {
		body, err := json.Marshal(tk)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := post(context.Background(), client, base+"/v1/admit", body); err != nil || status != http.StatusOK {
			t.Fatalf("admit %s: status %d, err %v", tk.Name, status, err)
		}
	}
	before, err := getOK(client, base+"/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Schedulable bool   `json:"schedulable"`
		Policy      string `json:"policy"`
		MTypes      []int  `json:"mtypes"`
	}
	if err := json.Unmarshal(before, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable || v.Policy != "typed" || len(v.MTypes) != 2 || v.MTypes[0] != 4 || v.MTypes[1] != 4 {
		t.Fatalf("first-life verdict = %s", before)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first life: %v", err)
	}

	// A default-policy reboot must refuse the typed directory.
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-m", "8", "-wal-dir", wal}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "refusing to reinterpret") {
		t.Fatalf("default-policy reboot over a typed WAL: err = %v, want refusal", err)
	}

	// Same flags recover a byte-identical allocation.
	cancel, done, addrfile = boot("addr2")
	base = "http://" + waitForAddr(t, addrfile)
	after, err := getOK(client, base+"/v1/allocation")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("allocation changed across recovery:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("second life: %v", err)
	}
}

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

// TestPolicyFlagValidation: the daemon refuses unknown -policy values before
// binding a port, and accepts the three known ones (checked here by booting
// with each and asserting the startup banner, which names non-default
// policies and stays byte-identical to earlier releases for the default).
func TestPolicyFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown", []string{"-policy", "quantum"}, "unknown -policy"},
		{"empty-vocab", []string{"-policy", "rate-monotonic"}, "unknown -policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}

	for _, tc := range []struct {
		policy     string
		wantBanner string
	}{
		{"fedcons", " ls-scan/insertion/first-fit/dbf-approx listening"},
		{"semi", " semi/ls-scan/insertion/first-fit/dbf-approx listening"},
		{"reservation", " reservation/ls-scan/insertion/first-fit/dbf-approx listening"},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			addrfile := filepath.Join(t.TempDir(), "addr")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out syncBuffer
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile, "-m", "8", "-policy", tc.policy}, &out)
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
			if log := out.String(); !strings.Contains(log, tc.wantBanner) {
				t.Errorf("banner missing %q:\n%s", tc.wantBanner, log)
			}
		})
	}
}

// TestPolicyRecoveryMismatch pins the durability contract of -policy: a WAL
// directory written under one policy refuses to boot under another (the
// snapshot header records the policy), while rebooting under the same policy
// recovers the admitted system.
func TestPolicyRecoveryMismatch(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	client := &http.Client{Timeout: 5 * time.Second}
	tk := task.MustNew("ex1", dag.Example1(), dag.Example1D, dag.Example1T)
	body, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}

	boot := func(policy, addrname string) (context.CancelFunc, chan error, string) {
		addrfile := filepath.Join(dir, addrname)
		ctx, cancel := context.WithCancel(context.Background())
		var out syncBuffer
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
				"-m", "8", "-policy", policy, "-wal-dir", wal, "-snapshot-every", "1"}, &out)
		}()
		return cancel, done, addrfile
	}

	// First life: admit under -policy=semi, snapshot, drain.
	cancel, done, addrfile := boot("semi", "addr1")
	base := "http://" + waitForAddr(t, addrfile)
	if status, err := post(context.Background(), client, base+"/v1/admit", body); err != nil || status != http.StatusOK {
		t.Fatalf("admit: status %d, err %v", status, err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first life: %v", err)
	}

	// Rebooting under the default policy must refuse the directory.
	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-m", "8", "-wal-dir", wal}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "refusing to reinterpret") {
		t.Fatalf("default-policy reboot over a semi WAL: err = %v, want refusal", err)
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-m", "8",
		"-wal-dir", wal, "-policy", "reservation"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "refusing to reinterpret") {
		t.Fatalf("reservation reboot over a semi WAL: err = %v, want refusal", err)
	}

	// Same policy recovers the task.
	cancel, done, addrfile = boot("semi", "addr2")
	base = "http://" + waitForAddr(t, addrfile)
	alloc, err := getOK(client, base+"/v1/allocation")
	if err != nil {
		t.Fatalf("allocation after recovery: %v", err)
	}
	var v struct {
		Schedulable bool `json:"schedulable"`
		Tasks       int  `json:"tasks"`
	}
	if err := json.Unmarshal(alloc, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable || v.Tasks != 1 {
		t.Fatalf("recovered verdict = %s", alloc)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("second life: %v", err)
	}
}

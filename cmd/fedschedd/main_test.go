package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsched/internal/dag"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

// syncBuffer lets the test read run's output while the daemon goroutine is
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

// post sends body as JSON to url and returns the response status.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// getOK fetches url and returns its body, failing on any status but 200.
func getOK(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// waitForAddr polls the addrfile written by -addrfile until the daemon binds.
func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address file")
	return ""
}

// TestServeLifecycle boots the daemon on an ephemeral port, exercises the API
// over real HTTP, and checks that cancelling the signal context drains and
// exits cleanly — the same path a SIGTERM takes in production.
func TestServeLifecycle(t *testing.T) {
	addrfile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile, "-m", "8"}, &out)
	}()

	base := "http://" + waitForAddr(t, addrfile)
	client := &http.Client{Timeout: 5 * time.Second}

	if _, err := getOK(client, base+"/v1/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	tk := task.MustNew("ex1", dag.Example1(), dag.Example1D, dag.Example1T)
	body, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	status, err := post(ctx, client, base+"/v1/admit", body)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("admit Example 1: status %d", status)
	}

	alloc, err := getOK(client, base+"/v1/allocation")
	if err != nil {
		t.Fatalf("allocation: %v", err)
	}
	var v service.Verdict
	if err := json.Unmarshal(alloc, &v); err != nil {
		t.Fatalf("allocation is not a Verdict: %v", err)
	}
	if !v.Schedulable || v.Tasks != 1 {
		t.Fatalf("unexpected verdict after admit: %s", alloc)
	}

	cancel() // same as delivering SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after context cancel")
	}
	log := out.String()
	for _, want := range []string{"listening on http://", "drained, bye"} {
		if !strings.Contains(log, want) {
			t.Errorf("output missing %q:\n%s", want, log)
		}
	}
}

// TestRunFlagErrors pins the CLI error surface.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-minprocs", "quantum"},         // unknown MINPROCS variant
		{"-partition", "worst-first"},    // unknown heuristic
		{"-m", "0"},                      // invalid platform
		{"-loadgen"},                     // undefined flag (the load generator lives in bench/)
		{"extra-positional"},             // stray argument
		{"-addr", "256.0.0.1:bad:extra"}, // unparseable listen address
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestParFlagValidation: the daemon rejects worker-pool sizes below 1 with a
// clear error instead of silently falling back to sequential analysis.
func TestParFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero", []string{"-par", "0"}, "-par must be ≥ 1"},
		{"negative", []string{"-par", "-2"}, "-par must be ≥ 1"},
		{"unparseable", []string{"-par", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestShardFlagValidation mirrors TestParFlagValidation for the sharding and
// durability flags: each bad value is refused before the daemon binds a port.
func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"shards-zero", []string{"-shards", "0"}, "-shards must be ≥ 1"},
		{"shards-negative", []string{"-shards", "-4"}, "-shards must be ≥ 1"},
		{"shards-unparseable", []string{"-shards", "lots"}, "invalid value"},
		{"snapshot-negative", []string{"-snapshot-every", "-1"}, "-snapshot-every must be ≥ 0"},
		{"snapshot-without-wal", []string{"-snapshot-every", "64"}, "-snapshot-every requires -wal-dir"},
		{"snapshot-unparseable", []string{"-snapshot-every", "often"}, "invalid value"},
		{"fleet-empty-member", []string{"-fleet", "http://a:8080,,http://b:8080"}, "empty member"},
		{"fleet-self-out-of-range", []string{"-fleet", "http://a:8080,http://b:8080", "-fleet-self", "2"}, "out of range"},
		{"fleet-self-without-fleet", []string{"-fleet-self", "1"}, "-fleet-self requires -fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestShardedServeLifecycle boots a multi-shard durable daemon, admits into
// two clusters, and checks the banner names the topology.
func TestShardedServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrfile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addrfile", addrfile,
			"-m", "8", "-shards", "4", "-wal-dir", filepath.Join(dir, "wal"), "-snapshot-every", "2"}, &out)
	}()

	base := "http://" + waitForAddr(t, addrfile)
	client := &http.Client{Timeout: 5 * time.Second}
	tk := task.MustNew("ex1", dag.Example1(), dag.Example1D, dag.Example1T)
	body, err := json.Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	for _, cluster := range []string{"alpha", "beta"} {
		status, err := post(ctx, client, base+"/v1/clusters/"+cluster+"/admit", body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("admit into %s: status %d, err %v", cluster, status, err)
		}
	}
	if _, err := getOK(client, base+"/v1/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if log := out.String(); !strings.Contains(log, "shards=4") || !strings.Contains(log, "wal-dir=") {
		t.Errorf("banner does not name the topology:\n%s", log)
	}
	// The durable layout exists: at least the shards that saw mutations have
	// WALs on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "wal", "shard-*", "wal.log"))
	if err != nil || len(matches) == 0 {
		t.Errorf("no per-shard WALs under -wal-dir: %v (%v)", matches, err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagErrors pins the CLI error surface. The context is already
// cancelled, so a wrongly accepted flag set boots, drains at once and
// returns nil instead of serving forever.
func TestRunFlagErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := [][]string{
		{"-minprocs", "quantum"},                          // unknown MINPROCS variant
		{"-partition", "worst-first"},                     // unknown heuristic
		{"-m", "0"},                                       // invalid platform
		{"-loadgen"},                                      // undefined flag (the load generator lives in bench/)
		{"extra-positional"},                              // stray argument
		{"-addr", "256.0.0.1:bad:extra"},                  // unparseable listen address
		{"-addr", "127.0.0.1:0", "-admit-timeout", "-1s"}, // every admit would answer 504
		{"-addr", "127.0.0.1:0", "-drain-timeout", "-1s"}, // shutdown could never drain
	}
	for _, args := range cases {
		if err := run(ctx, args, &bytes.Buffer{}); err == nil {
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
	walDir := filepath.Join(t.TempDir(), "wal")
	d := startDaemon(t, false, "-shards", "4", "-wal-dir", walDir, "-snapshot-every", "2")
	body, err := json.Marshal(example1("ex1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cluster := range []string{"alpha", "beta"} {
		if status, _, resp := call(t, http.MethodPost, d.base+"/v1/clusters/"+cluster+"/admit", body); status != http.StatusOK {
			t.Fatalf("admit into %s: status %d %s", cluster, status, resp)
		}
	}
	get(t, d.base+"/v1/healthz")
	d.term(t)
	if log := d.out.String(); !strings.Contains(log, "shards=4") || !strings.Contains(log, "wal-dir=") {
		t.Errorf("banner does not name the topology:\n%s", log)
	}
	// The durable layout exists: at least the shards that saw mutations have
	// WALs on disk.
	matches, err := filepath.Glob(filepath.Join(walDir, "shard-*", "wal.log"))
	if err != nil || len(matches) == 0 {
		t.Errorf("no per-shard WALs under -wal-dir: %v (%v)", matches, err)
	}
}

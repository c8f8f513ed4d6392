package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

// dumpLines runs -wal-dump and parses its JSONL output.
func dumpLines(t *testing.T, path string) []map[string]any {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-wal-dump", path}, &out); err != nil {
		t.Fatalf("-wal-dump %s: %v", path, err)
	}
	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if raw == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("-wal-dump line not JSON: %v\n%s", err, raw)
		}
		lines = append(lines, m)
	}
	return lines
}

// TestWALDump drives a durable server through an admit+remove, then dumps
// its WAL three ways — file, shard dir, wal-dir root — and checks each
// record line carries the mutation's op, cluster, trace ID and CRC status.
func TestWALDump(t *testing.T) {
	walDir := t.TempDir()
	svc, err := service.New(service.Config{M: 8, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	tk := task.MustNew("dump-me", dag.Example1(), dag.Example1D, dag.Example1T)
	ctx := context.Background()
	if status, _ := svc.ShardFor("").AdmitTrace(ctx, tk, "trace-admit-1", nil); status != 200 {
		t.Fatalf("admit = %d", status)
	}
	if status, _ := svc.ShardFor("").RemoveTrace(ctx, "dump-me", "trace-remove-1"); status != 200 {
		t.Fatalf("remove = %d", status)
	}
	svc.Close()

	walFile := filepath.Join(walDir, "shard-0", "wal.log")
	for _, path := range []string{walFile, filepath.Join(walDir, "shard-0"), walDir} {
		lines := dumpLines(t, path)
		if len(lines) != 2 {
			t.Fatalf("dump of %s has %d lines, want 2:\n%v", path, len(lines), lines)
		}
		admit, remove := lines[0], lines[1]
		if admit["op"] != "admit" || admit["trace"] != "trace-admit-1" || admit["crc"] != "ok" {
			t.Errorf("admit line = %v", admit)
		}
		if names, _ := admit["tasks"].([]any); len(names) != 1 || names[0] != "dump-me" {
			t.Errorf("admit line task names = %v", admit["tasks"])
		}
		if remove["op"] != "remove" || remove["name"] != "dump-me" || remove["trace"] != "trace-remove-1" {
			t.Errorf("remove line = %v", remove)
		}
		if admit["seq"].(float64) != 1 || remove["seq"].(float64) != 2 {
			t.Errorf("seqs = %v, %v, want 1, 2", admit["seq"], remove["seq"])
		}
	}
}

// TestWALDumpTornTail appends garbage to a valid WAL and checks the dump
// reports the torn tail without dropping the valid prefix — and that the
// file is left untouched (the dump must be safe on a live shard's log).
func TestWALDumpTornTail(t *testing.T) {
	walDir := t.TempDir()
	svc, err := service.New(service.Config{M: 8, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	tk := task.MustNew("t1", dag.Example1(), dag.Example1D, dag.Example1T)
	if status, _ := svc.ShardFor("").Admit(context.Background(), tk); status != 200 {
		t.Fatal("admit failed")
	}
	svc.Close()

	walFile := filepath.Join(walDir, "shard-0", "wal.log")
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}

	lines := dumpLines(t, walFile)
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want record + torn report:\n%v", len(lines), lines)
	}
	if lines[0]["crc"] != "ok" || lines[0]["op"] != "admit" {
		t.Errorf("valid prefix not dumped: %v", lines[0])
	}
	if lines[1]["crc"] != "torn" || lines[1]["torn_bytes"].(float64) != float64(len("torn-mid-append")) {
		t.Errorf("torn tail not reported: %v", lines[1])
	}
	after, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("dump changed the WAL size %d → %d; it must be read-only", before.Size(), after.Size())
	}
}

// TestWALDumpErrors pins the failure surface: missing paths, directories
// with no WAL, and files that were never a fedschedd WAL.
func TestWALDumpErrors(t *testing.T) {
	notWAL := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(notWAL, []byte("GARBAGE0 and then some"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(t.TempDir(), "absent"),
		t.TempDir(), // directory with no wal.log anywhere
		notWAL,
	} {
		if err := run(context.Background(), []string{"-wal-dump", path}, &bytes.Buffer{}); err == nil {
			t.Errorf("-wal-dump %s succeeded, want error", path)
		}
	}
}

// TestObsFlagValidation covers the new observability flags' validation and
// pass-through: bad values are refused, good values reach the service.
func TestObsFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-slo-latency", "-5ms"}, "-slo-latency must be ≥ 0"},
		{[]string{"-slo-window", "-1m"}, "-slo-window must be ≥ 0"},
		{[]string{"-flight-recorder", "lots"}, "invalid value"},
		{[]string{"-flight-sample", "some"}, "invalid value"},
	} {
		err := run(context.Background(), tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
}

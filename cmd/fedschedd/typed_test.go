package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

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

// TestTypedFlagValidationDaemon: -m-types demands -policy=typed, a
// well-formed spec and budgets summing to -m, all refused before a port is
// bound; a typed boot announces the policy in the startup banner. The
// context is cancelled up front, so a wrongly accepted flag set boots,
// drains and returns nil instead of serving forever.
func TestTypedFlagValidationDaemon(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"mtypes-without-typed", []string{"-m-types", "a:8"}, "-m-types requires -policy=typed"},
		{"mtypes-with-semi", []string{"-policy", "semi", "-m-types", "a:8"}, "-m-types requires -policy=typed"},
		{"bad-spec", []string{"-policy", "typed", "-m-types", "a8"}, "want <type>:<count>"},
		{"budgets-mismatch-m", []string{"-addr", "127.0.0.1:0", "-policy", "typed", "-m", "8", "-m-types", "a:2,b:2"},
			"per-type budgets a:2,b:2 sum to 4, want m=8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(ctx, tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}

	d := startDaemon(t, false, "-policy", "typed", "-m-types", "a:4,b:4")
	d.term(t)
	if log := d.out.String(); !strings.Contains(log, " typed/ls-scan/insertion/first-fit/dbf-approx listening") {
		t.Errorf("banner does not announce the typed policy:\n%s", log)
	}
}

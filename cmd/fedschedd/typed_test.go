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

	d := startDaemon(t, false, "-policy", "typed", "-m-types", "a:4,b:4")
	d.term(t)
	if log := d.out.String(); !strings.Contains(log, " typed/ls-scan/insertion/first-fit/dbf-approx listening") {
		t.Errorf("banner does not announce the typed policy:\n%s", log)
	}
}

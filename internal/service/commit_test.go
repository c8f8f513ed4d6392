package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/task"
)

// TestShardWALFailureLeavesStateUnchanged injects a WAL failure into every
// mutation shape the writer loop commits — warm and full admits, a batch,
// warm and full removes — by closing the shard's store under it, so every
// append fails. Each must answer 500 and leave the installed allocation,
// the task hashes, the WAL sequence and the warm path's partition state
// exactly as they were (a warm step's state mutation is rolled back), count
// one error, and retain a flight entry under its trace ID. The full arm
// runs the same script with Config.FullRepartition, where every op is full.
func TestShardWALFailureLeavesStateUnchanged(t *testing.T) {
	for _, full := range []bool{false, true} {
		t.Run(fmt.Sprintf("full-repartition=%v", full), func(t *testing.T) {
			svc, err := New(Config{M: 8, WALDir: t.TempDir(), FullRepartition: full})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(svc.Close)
			sh := svc.ShardFor("")
			ctx := context.Background()
			// The high-density admit comes last, so the live partition
			// state is one the full path just re-derived.
			for _, tk := range []*task.DAGTask{example1Task("low1"), example1Task("low2"), trijob("hi")} {
				if status, body := sh.Admit(ctx, tk); status != http.StatusOK {
					t.Fatalf("seed admit %s: %d %s", tk.Name, status, body)
				}
			}

			_, alloc0 := allocationBytes(t, svc)
			hashes0 := slices.Clone(sh.sysHashes)
			seq0 := sh.store.Seq()
			sh.store.Close()

			ops := []struct {
				name string
				warm bool // served by the warm step unless full
				run  func(traceID string) (int, []byte)
			}{
				{"warm admit", true, func(id string) (int, []byte) { return sh.AdmitTrace(ctx, example1Task("w"), id, nil) }},
				{"full admit", false, func(id string) (int, []byte) { return sh.AdmitTrace(ctx, trijob("hi2"), id, nil) }},
				{"batch", false, func(id string) (int, []byte) {
					return sh.AdmitBatchTrace(ctx, []*task.DAGTask{example1Task("b1"), example1Task("b2")}, id, nil)
				}},
				{"warm remove", true, func(id string) (int, []byte) { return sh.RemoveTrace(ctx, "low1", id) }},
				{"full remove", false, func(id string) (int, []byte) { return sh.RemoveTrace(ctx, "hi", id) }},
			}
			for i, op := range ops {
				errs0 := sh.met.errors.Value()
				st0 := sh.pstate
				id := fmt.Sprintf("wal-fail-%d", i)
				status, body := op.run(id)
				if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("write-ahead log append failed")) {
					t.Fatalf("%s: got %d %s, want a 500 WAL failure", op.name, status, body)
				}
				if _, alloc := allocationBytes(t, svc); !bytes.Equal(alloc, alloc0) {
					t.Fatalf("%s changed the installed allocation:\n%s\nwant\n%s", op.name, alloc, alloc0)
				}
				if !slices.Equal(sh.sysHashes, hashes0) {
					t.Fatalf("%s changed the task hashes: %v, want %v", op.name, sh.sysHashes, hashes0)
				}
				if seq := sh.store.Seq(); seq != seq0 {
					t.Fatalf("%s moved the WAL sequence to %d, want %d", op.name, seq, seq0)
				}
				want, err := core.NewLowState(sh.sys, sh.alloc, sh.cfg.Options.Partition)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sh.pstate, want) {
					t.Fatalf("%s left a partition state that does not mirror the installed allocation (%d entries, want %d)",
						op.name, sh.pstate.Len(), want.Len())
				}
				if rolledBack := sh.pstate != st0; rolledBack != (op.warm && !full) {
					t.Errorf("%s: state re-derived = %v, want %v (only a warm step's mutation is rolled back)", op.name, rolledBack, op.warm && !full)
				}
				if got := sh.met.errors.Value() - errs0; got != 1 {
					t.Errorf("%s counted %d errors, want 1", op.name, got)
				}
				if e := sh.flight.find(id); e == nil || e.Status != http.StatusInternalServerError {
					t.Errorf("%s: flight entry %+v, want a retained 500", op.name, e)
				}
			}
		})
	}
}

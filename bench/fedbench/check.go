package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fedsched/internal/core"
	"fedsched/internal/service"
	"fedsched/internal/store"
)

// checks collects correctness failures; a run with any is not correct.
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// shardCluster returns, per shard, a cluster it owns: the cluster of the
// sender pinned to it.
func shardCluster(p *plan, shards int) []string {
	out := make([]string, shards)
	for s, c := range p.clusters {
		out[s%shards] = c
	}
	return out
}

// allocations reads GET /v1/allocation for each shard's cluster.
func allocations(t *target, clusters []string) ([][]byte, error) {
	out := make([][]byte, len(clusters))
	for i, c := range clusters {
		body, err := t.get("/v1/allocation", c)
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// checkAccounting holds the client's count of mutations answered 200 against
// the daemon's WAL appends: every acknowledged mutation is one record, and so
// is the seed batch.
func (c *checks) checkAccounting(ok200, seedRecords int, vars []shardVars) {
	var appends int64
	for _, v := range vars {
		appends += v.WALAppends
	}
	if want := int64(ok200 + seedRecords); appends != want {
		c.failf("accounting: %d mutations answered 200 plus %d seed record(s), but the WAL took %d appends", ok200, seedRecords, appends)
	}
}

// checkOracle recomputes each shard's allocation from its durable state and
// the batch algorithm: store.Open on a copy of the shard's WAL directory gives
// the installed system, core.Schedule its allocation, and the encoded verdict
// must equal the bytes the daemon serves.
func (c *checks) checkOracle(w *workload, walDir, copies string, served [][]byte) error {
	opt, err := w.options()
	if err != nil {
		return err
	}
	for i, got := range served {
		dir := filepath.Join(copies, fmt.Sprintf("shard-%d", i))
		if err := copyDir(filepath.Join(walDir, fmt.Sprintf("shard-%d", i)), dir); err != nil {
			return err
		}
		st, rec, err := store.Open(dir, 0)
		if err != nil {
			c.failf("oracle: shard %d: store.Open on the WAL copy: %v", i, err)
			continue
		}
		st.Close()
		var alloc *core.Allocation
		if len(rec.Tasks) > 0 {
			if alloc, err = core.Schedule(rec.Tasks, w.m, opt); err != nil {
				c.failf("oracle: shard %d: the recovered system of %d tasks does not schedule: %v", i, len(rec.Tasks), err)
				continue
			}
		}
		want, err := service.NewVerdict(rec.Tasks, w.m, alloc, nil).Encode()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			c.failf("oracle: shard %d serves an allocation (%d bytes) that differs from core.Schedule on its WAL (%d bytes)", i, len(got), len(want))
		}
	}
	return nil
}

// checkSame requires two allocation reads to be byte-identical.
func (c *checks) checkSame(what string, before, after [][]byte) {
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			c.failf("%s: shard %d allocation changed (%d → %d bytes)", what, i, len(before[i]), len(after[i]))
		}
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

package service

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fedsched/internal/task"
)

// restartServer closes svc and starts a fresh one on the same Config — the
// in-process equivalent of kill -9 + restart, since Close takes no snapshot
// and recovery always goes through snapshot+WAL replay.
func restartServer(t *testing.T, svc *Server, cfg Config) (*Server, []byte) {
	t.Helper()
	svc.Close()
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	_, alloc := allocationBytes(t, again)
	return again, alloc
}

// allocationBytes renders the server's /v1/allocation body via the handler,
// the same bytes an HTTP client would read.
func allocationBytes(t *testing.T, svc *Server) (int, []byte) {
	t.Helper()
	sys, alloc := svc.ShardFor("").Snapshot()
	res := verdictResult(http.StatusOK, NewVerdict(sys, svc.cfg.M, alloc, nil))
	return res.status, res.body
}

// TestRecoveryByteIdenticalAllocation is the core durability contract: after
// admits (single and batch) and a removal, a restart from the WAL directory
// reproduces the exact allocation bytes the pre-crash server served, and the
// Phase-1 memo cache comes back warm from re-analysis of the logged system.
func TestRecoveryByteIdenticalAllocation(t *testing.T) {
	cfg := Config{M: 12, WALDir: t.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sh := svc.ShardFor("")
	for _, tk := range []string{"ex1", "ex2"} {
		if status, body := sh.Admit(ctx, example1Task(tk)); status != http.StatusOK {
			t.Fatalf("admit %s = %d: %s", tk, status, body)
		}
	}
	// Two high-density tasks with identical DAG content: the Phase-1 memo is
	// what recovery must rebuild.
	for _, tk := range []string{"tri1", "tri2"} {
		if status, _ := sh.Admit(ctx, trijob(tk)); status != http.StatusOK {
			t.Fatalf("admit %s failed", tk)
		}
	}
	if status, body := sh.AdmitBatch(ctx, []*task.DAGTask{example1Task("b1"), example1Task("b2")}); status != http.StatusOK {
		t.Fatalf("batch = %d: %s", status, body)
	}
	if status, _ := sh.Remove(ctx, "ex2"); status != http.StatusOK {
		t.Fatal("remove failed")
	}
	_, before := allocationBytes(t, svc)

	again, after := restartServer(t, svc, cfg)
	ash := again.ShardFor("")
	if !bytes.Equal(before, after) {
		t.Errorf("allocation changed across restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	// Recovery re-analyzed [ex1, tri1, tri2, b1, b2]: tri1 and tri2 share DAG
	// content, so the replay itself must have hit the freshly warmed memo
	// (only high-density tasks run Phase-1 MINPROCS and touch it).
	hits, _ := ash.Cache().Stats()
	if hits < 1 {
		t.Errorf("cache hits after recovery = %d; replay did not prewarm the memo", hits)
	}
	// And a re-admission of known content is a pure hit: the trial analysis
	// re-runs Phase-1 for tri1, tri2 and the newcomer, all memoized.
	h0, m0 := ash.Cache().Stats()
	if status, body := ash.Admit(context.Background(), trijob("fresh")); status != http.StatusOK {
		t.Fatalf("post-recovery admit = %d: %s", status, body)
	}
	h1, m1 := ash.Cache().Stats()
	if m1 != m0 || h1 <= h0 {
		t.Errorf("post-recovery admit of cached content: hits %d→%d misses %d→%d, want pure hits", h0, h1, m0, m1)
	}
}

// TestRecoveryRebuildsPartitionState: a kill-9 replay must leave the shard
// with a live incremental Phase-2 state, and the next low-density mutations
// must run warm (state mutated in place, not rebuilt) while staying
// byte-identical to a never-crashed daemon fed the same history.
func TestRecoveryRebuildsPartitionState(t *testing.T) {
	cfg := Config{M: 10, WALDir: t.TempDir()}
	crash, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Config{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(twin.Close)
	ctx := context.Background()
	apply := func(label string, op func(s *Server) (int, []byte)) {
		t.Helper()
		s1, b1 := op(crash)
		s2, b2 := op(twin)
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Fatalf("%s: daemons diverged before the crash (%d vs %d)\n%s\nvs\n%s", label, s1, s2, b1, b2)
		}
		if s1 != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, s1, b1)
		}
	}
	for _, n := range []string{"low1", "low2", "low3"} {
		n := n
		apply("admit "+n, func(s *Server) (int, []byte) { return s.ShardFor("").Admit(ctx, example1Task(n)) })
	}
	apply("admit hi", func(s *Server) (int, []byte) { return s.ShardFor("").Admit(ctx, trijob("hi")) })
	apply("remove low2", func(s *Server) (int, []byte) { return s.ShardFor("").Remove(ctx, "low2") })

	again, after := restartServer(t, crash, cfg)
	_, want := allocationBytes(t, twin)
	if !bytes.Equal(after, want) {
		t.Fatalf("recovered allocation differs from never-crashed twin:\n--- recovered ---\n%s--- twin ---\n%s", after, want)
	}
	st := again.ShardFor("").pstate
	if st == nil {
		t.Fatal("recovery did not rebuild the incremental partition state")
	}
	step := func(label string, op func(s *Server) (int, []byte)) {
		t.Helper()
		s1, b1 := op(again)
		s2, b2 := op(twin)
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Fatalf("%s diverged from twin (%d vs %d)\n%s\nvs\n%s", label, s1, s2, b1, b2)
		}
		if s1 != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, s1, b1)
		}
		if again.ShardFor("").pstate != st {
			t.Errorf("%s rebuilt the partition state; warm path not taken", label)
		}
	}
	step("post-recovery admit", func(s *Server) (int, []byte) { return s.ShardFor("").Admit(ctx, example1Task("post")) })
	step("post-recovery remove", func(s *Server) (int, []byte) { return s.ShardFor("").Remove(ctx, "low3") })
	_, a1 := allocationBytes(t, again)
	_, a2 := allocationBytes(t, twin)
	if !bytes.Equal(a1, a2) {
		t.Errorf("final allocations diverged:\n--- recovered ---\n%s--- twin ---\n%s", a1, a2)
	}
}

// TestRecoveryAcrossSnapshots drives enough mutations to cross the snapshot
// cadence, so recovery exercises snapshot+WAL rather than WAL alone.
func TestRecoveryAcrossSnapshots(t *testing.T) {
	cfg := Config{M: 8, WALDir: t.TempDir(), SnapshotEvery: 2}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		if status, _ := svc.ShardFor("").Admit(ctx, example1Task(n)); status != http.StatusOK {
			t.Fatalf("admit %s failed", n)
		}
	}
	if status, _ := svc.ShardFor("").Remove(ctx, "c"); status != http.StatusOK {
		t.Fatal("remove failed")
	}
	_, before := allocationBytes(t, svc)

	_, after := restartServer(t, svc, cfg)
	if !bytes.Equal(before, after) {
		t.Errorf("snapshot+wal recovery drifted:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// TestRecoveryEmptyAfterRemoveAll: a fully drained system is a legal durable
// state and restarts to the empty allocation.
func TestRecoveryEmptyAfterRemoveAll(t *testing.T) {
	cfg := Config{M: 4, WALDir: t.TempDir(), SnapshotEvery: 1}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if status, _ := svc.ShardFor("").Admit(ctx, example1Task("only")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	if status, _ := svc.ShardFor("").Remove(ctx, "only"); status != http.StatusOK {
		t.Fatal("remove failed")
	}
	again, _ := restartServer(t, svc, cfg)
	sys, alloc := again.ShardFor("").Snapshot()
	if len(sys) != 0 || alloc != nil {
		t.Errorf("restart of drained system recovered %d tasks", len(sys))
	}
}

// TestRecoveryRefusesMismatchedM: state admitted against one platform size
// must not be reinterpreted on another — the recovered allocation would
// silently disagree with every verdict the shard served.
func TestRecoveryRefusesMismatchedM(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{M: 8, WALDir: dir, SnapshotEvery: 1} // snapshot records M
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := svc.ShardFor("").Admit(context.Background(), example1Task("a")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	svc.Close()
	if _, err := New(Config{M: 4, WALDir: dir, SnapshotEvery: 1}); err == nil {
		t.Fatal("New accepted a WAL directory recorded against a different m")
	}
}

// TestRecoveryPerShardIsolation: each shard recovers exactly its own
// mutations from its own WAL subdirectory.
func TestRecoveryPerShardIsolation(t *testing.T) {
	cfg := Config{M: 4, Shards: 4, WALDir: t.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters := distinctClusters(t, svc, 3)
	ctx := context.Background()
	for i, cl := range clusters {
		sh := svc.ShardFor(cl)
		if status, _ := sh.Admit(ctx, example1Task(clusters[i])); status != http.StatusOK {
			t.Fatalf("admit into %s failed", cl)
		}
	}
	svc.Close()

	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for _, cl := range clusters {
		sys, _ := again.ShardFor(cl).Snapshot()
		if len(sys) != 1 || sys[0].Name != cl {
			t.Errorf("shard for %s recovered %d tasks", cl, len(sys))
		}
	}
	// The on-disk layout really is one subdirectory per shard.
	for _, cl := range clusters {
		dir := filepath.Join(cfg.WALDir, "shard-"+strconv.Itoa(again.ShardFor(cl).ID()))
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
			t.Errorf("shard owning %s has no WAL at %s: %v", cl, dir, err)
		}
	}
}

package service

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/task"
)

// benchSystem draws the 50-task admission workload: tight constrained
// deadlines (β ≤ 0.3 puts D near len, so nearly every task is high-density)
// and DAGs large enough that Phase-1 MINPROCS list-scheduling scans dominate
// a cold analysis — the regime the memo cache exists for.
func benchSystem(b *testing.B) (task.System, int) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	p := gen.DefaultParams(50, 50)
	p.MinVerts, p.MaxVerts = 150, 250
	p.BetaMin, p.BetaMax = 0.1, 0.3
	sys, err := gen.System(r, p)
	if err != nil {
		b.Fatal(err)
	}
	for m := 8; m <= 4096; m *= 2 {
		if _, err := core.Schedule(sys, m, core.Options{}); err == nil {
			return sys, m
		}
	}
	b.Fatal("benchmark system unschedulable at every platform size")
	return nil, 0
}

// probe is the paper's Example 1 task, admitted and removed online.
func probe() *task.DAGTask {
	return task.MustNew("probe", dag.Example1(), dag.Example1D, dag.Example1T)
}

// seededServer starts a server with cfg, admits every task of sys into its
// default shard, then runs one probe admit+remove warmup round so later
// iterations hit steady state. It returns that default shard.
func seededServer(b *testing.B, cfg Config, sys task.System) *Shard {
	b.Helper()
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	svc := srv.ShardFor("")
	ctx := context.Background()
	for i, tk := range sys {
		if status, body := svc.Admit(ctx, tk); status != http.StatusOK {
			b.Fatalf("seed admit %d: %d %s", i, status, body)
		}
	}
	if status, _ := svc.Admit(ctx, probe()); status != http.StatusOK {
		b.Fatal("probe warmup rejected")
	}
	if status, _ := svc.Remove(ctx, "probe"); status != http.StatusOK {
		b.Fatal("probe warmup removal failed")
	}
	return svc
}

// BenchmarkAdmit quantifies the daemon's single-task admission cost against a
// live 50-task system, across the three generations of the warm path:
//
//   - cold-full-fedcons: what every admission would cost with no state at all
//     (one complete two-phase FEDCONS run over all 51 tasks);
//   - warm-full-repartition: one admit + one remove through a server running
//     with Config.FullRepartition — Phase-1 analyses memoized, but every
//     mutation re-runs Phase 2 from scratch;
//   - warm-cache: the same pair through the default server — the low-density
//     probe is served from the incremental partition.State, no batch
//     re-analysis at all.
//
// The acceptance bar (results/timing_admission.json) is the incremental warm
// pair ≥ 10× faster than the full-repartition pair it replaced.
func BenchmarkAdmit(b *testing.B) {
	sys, m := benchSystem(b)
	full := append(sys.Clone(), probe())

	b.Run("cold-full-fedcons", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Schedule(full, m, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	pair := func(cfg Config) func(*testing.B) {
		return func(b *testing.B) {
			svc := seededServer(b, cfg, sys)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, body := svc.Admit(ctx, probe()); status != http.StatusOK {
					b.Fatalf("warm admit: %d %s", status, body)
				}
				if status, _ := svc.Remove(ctx, "probe"); status != http.StatusOK {
					b.Fatal("warm remove failed")
				}
			}
		}
	}
	b.Run("warm-full-repartition", pair(Config{M: m, QueueBound: 4, FullRepartition: true}))
	b.Run("warm-cache", pair(Config{M: m, QueueBound: 4}))
}

// BenchmarkRemove isolates the removal half of the warm pair: each iteration
// times exactly one Remove of a live low-density task. The removable
// population is replenished in chunks with the timer stopped, so re-admission
// cost never pollutes the removal number.
func BenchmarkRemove(b *testing.B) {
	sys, m := benchSystem(b)
	const chunk = 64
	names := make([]string, chunk)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	run := func(cfg Config) func(*testing.B) {
		return func(b *testing.B) {
			svc := seededServer(b, cfg, sys)
			ctx := context.Background()
			admitAll := func() {
				for _, n := range names {
					tk := task.MustNew(n, dag.Example1(), dag.Example1D, dag.Example1T)
					if status, body := svc.Admit(ctx, tk); status != http.StatusOK {
						b.Fatalf("refill admit %s: %d %s", n, status, body)
					}
				}
			}
			admitAll()
			removed := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if removed == chunk {
					b.StopTimer()
					admitAll()
					removed = 0
					b.StartTimer()
				}
				if status, _ := svc.Remove(ctx, names[removed]); status != http.StatusOK {
					b.Fatalf("remove %s failed", names[removed])
				}
				removed++
			}
		}
	}
	b.Run("warm-full-repartition", run(Config{M: m, QueueBound: 4, FullRepartition: true}))
	b.Run("warm-incremental", run(Config{M: m, QueueBound: 4}))
}

// BenchmarkAdmitBatch measures the analysis core of POST /v1/admit/batch — a
// full FEDCONS run through the AnalysisCache, exactly what the writer loop's
// commit runs for a batch — in the three regimes that matter:
//
//   - cold-seq: empty cache, sequential Phase 1 (Par = 1);
//   - cold-par: empty cache, Phase-1 scans fanned out on the worker pool —
//     the batch endpoint's cold path;
//   - warm: every Phase-1 analysis served from the content-addressed memo.
//
// Verdicts are identical across all three (TestAdmitBatchParMatchesSequential);
// the deltas are recorded in results/timing_parallel_phase1.json.
func BenchmarkAdmitBatch(b *testing.B) {
	sys, m := benchSystem(b)

	cold := func(par int) func(*testing.B) {
		return func(b *testing.B) {
			opt := core.Options{Par: par}
			for i := 0; i < b.N; i++ {
				if _, err := NewAnalysisCache().Schedule(sys, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cold-seq", cold(1))
	b.Run("cold-par", cold(runtime.GOMAXPROCS(0)))

	b.Run("warm", func(b *testing.B) {
		c := NewAnalysisCache()
		opt := core.Options{Par: runtime.GOMAXPROCS(0)}
		if _, err := c.Schedule(sys, m, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Schedule(sys, m, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulePolicy compares the admission cost of the -policy values
// on the same workload, cold and warm (`make policy-bench`):
//
//   - cold/<policy>: one complete batch analysis with an empty memo. The
//     split policies pay their fractional-sizing pass plus the combined
//     servers+low partition, and — when the split attempt fails — the strict
//     fallback on top, so this bounds the policy layer's overhead over the
//     paper's algorithm.
//   - warm/<policy>: one admit+remove pair of a low-density probe through a
//     live server running the policy. Split shapes ride the same incremental
//     Phase-2 partition state as the strict shape, but over the combined
//     servers+low system — many more partitioned tasks on this workload —
//     and a delta the state cannot absorb declines to the full analysis, so
//     the warm column quantifies what the fractional shapes pay online.
//
// The typed arms run typedBenchSystem on its two-type platform (untyped
// input would degenerate to strict FEDCONS); the probe is type a, so its
// warm pair touches type a's bank only.
func BenchmarkSchedulePolicy(b *testing.B) {
	sys, m := benchSystem(b)
	for _, pol := range []string{"", core.PolicySemi, core.PolicyReservation} {
		benchPolicy(b, policyLabel(pol), sys, m, core.Options{Policy: pol})
	}
	tsys, mtypes := typedBenchSystem(b)
	benchPolicy(b, core.PolicyTyped, tsys, mtypes[0]+mtypes[1], core.Options{Policy: core.PolicyTyped, MTypes: mtypes})
}

// benchPolicy runs the cold/<label> and warm/<label> arms of
// BenchmarkSchedulePolicy for sys on m processors under opt.
func benchPolicy(b *testing.B, label string, sys task.System, m int, opt core.Options) {
	b.Run("cold/"+label, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewAnalysisCache().Schedule(sys, m, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm/"+label, func(b *testing.B) {
		svc := seededServer(b, Config{M: m, QueueBound: 4, Options: opt}, sys)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status, body := svc.Admit(ctx, probe()); status != http.StatusOK {
				b.Fatalf("warm admit: %d %s", status, body)
			}
			if status, _ := svc.Remove(ctx, "probe"); status != http.StatusOK {
				b.Fatal("warm remove failed")
			}
		}
	})
}

// typedBenchSystem is benchSystem's workload with each vertex type b with
// probability 0.3, so nearly every task needs dedicated processors of both
// types, on the smallest two-type platform (two thirds type a) that admits
// it with room for the probe.
func typedBenchSystem(b *testing.B) (task.System, []int) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	p := gen.DefaultParams(50, 50)
	p.MinVerts, p.MaxVerts = 150, 250
	p.BetaMin, p.BetaMax = 0.1, 0.3
	p.TypeProb = 0.3
	sys, err := gen.System(r, p)
	if err != nil {
		b.Fatal(err)
	}
	for m := 12; m <= 6144; m *= 2 {
		mtypes := []int{2 * m / 3, m - 2*m/3}
		opt := core.Options{Policy: core.PolicyTyped, MTypes: mtypes}
		if _, err := core.Schedule(append(sys.Clone(), probe()), m, opt); err == nil {
			return sys, mtypes
		}
	}
	b.Fatal("typed benchmark system unschedulable at every platform size")
	return nil, nil
}

package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

func lowTask(name string, c, d, t Time) *task.DAGTask {
	return task.MustNew(name, dag.Singleton(c), d, t)
}

// highTask builds a high-density parallel task: k independent jobs of WCET w
// with deadline d and period t; δ = k·w/min(d,t).
func highTask(name string, k int, w, d, t Time) *task.DAGTask {
	wcets := make([]Time, k)
	for i := range wcets {
		wcets[i] = w
	}
	return task.MustNew(name, dag.Independent(wcets...), d, t)
}

func TestMinprocsSingleProcessorSuffices(t *testing.T) {
	// δ = 1 with vol ≤ D: one processor is enough.
	tk := task.MustNew("x", dag.Singleton(10), 10, 10)
	mu, tmpl, ok := Minprocs(tk, 4, nil)
	if !ok || mu != 1 {
		t.Fatalf("Minprocs = %d,%v, want 1,true", mu, ok)
	}
	if tmpl.Makespan != 10 {
		t.Errorf("template makespan = %d, want 10", tmpl.Makespan)
	}
}

func TestMinprocsParallelTask(t *testing.T) {
	// 4 independent jobs of 5, D = 10: needs exactly 2 processors.
	tk := highTask("p", 4, 5, 10, 10)
	mu, tmpl, ok := Minprocs(tk, 8, nil)
	if !ok || mu != 2 {
		t.Fatalf("Minprocs = %d,%v, want 2,true", mu, ok)
	}
	if tmpl.Makespan > 10 {
		t.Errorf("template makespan = %d > D", tmpl.Makespan)
	}
}

func TestMinprocsStartsAtCeilDensity(t *testing.T) {
	// vol = 20, D = 5 ⇒ δ = 4: scan starts at 4, and with 4 independent
	// jobs of 5 the answer is exactly 4.
	tk := highTask("q", 4, 5, 5, 5)
	mu, _, ok := Minprocs(tk, 8, nil)
	if !ok || mu != 4 {
		t.Fatalf("Minprocs = %d,%v, want 4,true", mu, ok)
	}
}

func TestMinprocsInfeasibleCriticalPath(t *testing.T) {
	// len = 12 > D = 10: no processor count helps (paper: return ∞).
	tk := task.MustNew("c", dag.Chain(6, 6), 10, 20)
	if _, _, ok := Minprocs(tk, 64, nil); ok {
		t.Fatal("Minprocs accepted len > D")
	}
}

func TestMinprocsExhaustsBudget(t *testing.T) {
	// Needs 4 processors but only 3 remain: ∞.
	tk := highTask("q", 4, 5, 5, 5)
	if _, _, ok := Minprocs(tk, 3, nil); ok {
		t.Fatal("Minprocs exceeded the remaining-processor budget")
	}
}

func TestMinprocsAnalyticNeverSmallerCapacity(t *testing.T) {
	// Analytic sizing must be ≥ the LS-scan answer (it's derived from an
	// upper bound on LS makespan) and always meet the deadline.
	r := rand.New(rand.NewSource(31))
	compared := 0
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(15)
		b := dag.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddJob(Time(1 + r.Intn(8)))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.2 {
					b.AddEdge(i, j)
				}
			}
		}
		g := b.MustBuild()
		// Deadline strictly between len and vol makes the task high-density
		// with real parallel slack.
		if g.Volume() <= g.LongestChain()+1 {
			continue
		}
		d := g.LongestChain() + 1 + Time(r.Intn(int(g.Volume()-g.LongestChain())))
		tk := task.MustNew("r", g, d, d)
		muScan, _, okScan := Minprocs(tk, 64, nil)
		muAna, tmplAna, okAna := MinprocsAnalytic(tk, 64, nil)
		if !okScan {
			t.Fatalf("scan failed with huge budget for feasible task %s", tk)
		}
		if !okAna {
			t.Fatalf("analytic failed with huge budget for %s", tk)
		}
		compared++
		if muAna < muScan {
			t.Fatalf("analytic %d < scan %d for %s", muAna, muScan, tk)
		}
		if tmplAna.Makespan > tk.D {
			t.Fatalf("analytic template misses deadline for %s", tk)
		}
	}
	if compared == 0 {
		t.Fatal("test vacuous")
	}
}

func TestScheduleLowDensityOnly(t *testing.T) {
	sys := task.System{
		task.MustNew("e1", dag.Example1(), dag.Example1D, dag.Example1T),
		lowTask("a", 2, 8, 16),
		lowTask("b", 3, 12, 24),
	}
	alloc, err := Schedule(sys, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.High) != 0 {
		t.Errorf("no high-density tasks expected, got %d", len(alloc.High))
	}
	if len(alloc.SharedProcs) != 2 {
		t.Errorf("all processors should be shared, got %d", len(alloc.SharedProcs))
	}
	if err := Verify(sys, 2, alloc); err != nil {
		t.Error(err)
	}
}

func TestScheduleMixedSystem(t *testing.T) {
	sys := task.System{
		highTask("h1", 4, 5, 10, 10), // needs 2 processors
		lowTask("l1", 2, 8, 16),
		highTask("h2", 3, 4, 6, 12), // vol=12, D=6: δ=2, needs 2 (LS: 4,4 | 4)
		lowTask("l2", 3, 12, 24),
	}
	alloc, err := Schedule(sys, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.High) != 2 {
		t.Fatalf("want 2 high assignments, got %d", len(alloc.High))
	}
	if err := Verify(sys, 6, alloc); err != nil {
		t.Fatal(err)
	}
	ded, shared := alloc.ProcessorsUsed()
	if ded+shared != 6 {
		t.Errorf("processors: %d dedicated + %d shared != 6", ded, shared)
	}
	// Order preserved and indices correct.
	if alloc.High[0].TaskIndex != 0 || alloc.High[1].TaskIndex != 2 {
		t.Errorf("high task order: %d, %d", alloc.High[0].TaskIndex, alloc.High[1].TaskIndex)
	}
	if len(alloc.LowIndices) != 2 || alloc.LowIndices[0] != 1 || alloc.LowIndices[1] != 3 {
		t.Errorf("low indices = %v", alloc.LowIndices)
	}
}

func TestScheduleFailsWhenHighTasksExhaustPlatform(t *testing.T) {
	sys := task.System{
		highTask("h1", 4, 5, 10, 10), // 2 procs
		highTask("h2", 4, 5, 10, 10), // 2 procs
	}
	_, err := Schedule(sys, 3, Options{})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("want FailureError, got %v", err)
	}
	if fe.Phase != PhaseHighDensity {
		t.Errorf("phase = %v, want high-density", fe.Phase)
	}
	if fe.TaskIndex != 1 {
		t.Errorf("failing task = %d, want 1", fe.TaskIndex)
	}
}

func TestScheduleFailsInPartitionPhase(t *testing.T) {
	sys := task.System{
		highTask("h", 4, 5, 10, 10), // takes 2 of 3 processors
		lowTask("l1", 4, 5, 100),
		lowTask("l2", 4, 5, 100), // cannot share the single leftover
	}
	_, err := Schedule(sys, 3, Options{})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("want FailureError, got %v", err)
	}
	if fe.Phase != PhaseLowDensity {
		t.Errorf("phase = %v, want low-density", fe.Phase)
	}
	// TaskIndex must refer to the original system (1 or 2, not 0).
	if fe.TaskIndex != 1 && fe.TaskIndex != 2 {
		t.Errorf("failing task index = %d, want a low task", fe.TaskIndex)
	}
	// On 4 processors it works.
	alloc, err := Schedule(sys, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 4, alloc); err != nil {
		t.Error(err)
	}
}

func TestScheduleRejectsInvalidInput(t *testing.T) {
	if _, err := Schedule(nil, 4, Options{}); err == nil {
		t.Error("accepted empty system")
	}
	sys := task.System{lowTask("a", 1, 2, 3)}
	if _, err := Schedule(sys, 0, Options{}); err == nil {
		t.Error("accepted m=0")
	}
}

func TestExample2SystemBehaviour(t *testing.T) {
	// Paper Example 2: n singleton tasks (C=1, D=1, T=n). Every task is
	// high-density (δ = 1), so FEDCONS gives each a dedicated processor:
	// schedulable iff m ≥ n. This matches the optimal federated scheduler —
	// the example's point is about capacity augmentation, not FEDCONS.
	n := 5
	var sys task.System
	for i := 0; i < n; i++ {
		sys = append(sys, task.MustNew("e", dag.Singleton(1), 1, Time(n)))
	}
	if Schedulable(sys, n-1, Options{}) {
		t.Errorf("Example 2 with m=%d must fail", n-1)
	}
	alloc, err := Schedule(sys, n, Options{})
	if err != nil {
		t.Fatalf("Example 2 with m=n must succeed: %v", err)
	}
	if err := Verify(sys, n, alloc); err != nil {
		t.Error(err)
	}
	if len(alloc.High) != n {
		t.Errorf("all %d tasks are high-density, got %d dedicated", n, len(alloc.High))
	}
}

func randomSystem(r *rand.Rand, n int) task.System {
	sys := make(task.System, 0, n)
	for i := 0; i < n; i++ {
		nv := 1 + r.Intn(8)
		b := dag.NewBuilder(nv)
		for v := 0; v < nv; v++ {
			b.AddJob(Time(1 + r.Intn(6)))
		}
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if r.Float64() < 0.25 {
					b.AddEdge(u, v)
				}
			}
		}
		g := b.MustBuild()
		l := g.LongestChain()
		d := l + Time(r.Intn(int(2*g.Volume())))
		tt := d + Time(r.Intn(40))
		sys = append(sys, task.MustNew("r", g, d, tt))
	}
	return sys
}

func TestRandomSchedulesAlwaysVerify(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	accepted := 0
	for trial := 0; trial < 200; trial++ {
		sys := randomSystem(r, 1+r.Intn(8))
		m := 1 + r.Intn(12)
		for _, opt := range []Options{
			{},
			{Minprocs: Analytic},
			{Priority: listsched.LongestPathFirst},
			{Partition: partition.Options{Heuristic: partition.WorstFit}},
			{Partition: partition.Options{Test: partition.ExactEDF}},
		} {
			alloc, err := Schedule(sys, m, opt)
			if err != nil {
				continue
			}
			accepted++
			if verr := Verify(sys, m, alloc); verr != nil {
				t.Fatalf("trial %d opts %+v: %v", trial, opt, verr)
			}
		}
	}
	if accepted < 20 {
		t.Fatalf("test too vacuous: only %d acceptances", accepted)
	}
}

func TestLSScanNeverUsesMoreProcsThanAnalytic(t *testing.T) {
	// The E7 ablation direction: the scan finds the true minimum under LS,
	// so a system schedulable under Analytic is schedulable under LSScan.
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 100; trial++ {
		sys := randomSystem(r, 1+r.Intn(6))
		m := 1 + r.Intn(10)
		if Schedulable(sys, m, Options{Minprocs: Analytic}) &&
			!Schedulable(sys, m, Options{}) {
			t.Fatalf("trial %d: analytic accepted but LS scan rejected", trial)
		}
	}
}

func TestSchedulableSpeedupMonotone(t *testing.T) {
	// If schedulable on m processors, schedulable on m+1 (more capacity
	// never hurts FEDCONS: the scan budget and the partition bins grow).
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 100; trial++ {
		sys := randomSystem(r, 1+r.Intn(6))
		m := 1 + r.Intn(8)
		if Schedulable(sys, m, Options{}) && !Schedulable(sys, m+1, Options{}) {
			t.Fatalf("trial %d: schedulable on %d but not %d", trial, m, m+1)
		}
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	sys := task.System{
		highTask("h", 4, 5, 10, 10),
		lowTask("l", 2, 8, 16),
	}
	alloc, err := Schedule(sys, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong m.
	if err := Verify(sys, 4, alloc); err == nil {
		t.Error("Verify accepted wrong platform size")
	}
	// Steal a processor.
	tampered := *alloc
	tampered.High = append([]HighAssignment(nil), alloc.High...)
	tampered.High[0].Procs = alloc.High[0].Procs[:1]
	if err := Verify(sys, 3, &tampered); err == nil {
		t.Error("Verify accepted template/processor-count mismatch")
	}
	// Overlap shared and dedicated.
	tampered2 := *alloc
	tampered2.SharedProcs = []int{0}
	if err := Verify(sys, 3, &tampered2); err == nil {
		t.Error("Verify accepted overlapping processor sets")
	}
	// Nil allocation.
	if err := Verify(sys, 3, nil); err == nil {
		t.Error("Verify accepted nil allocation")
	}
}

func TestTasksOnShared(t *testing.T) {
	sys := task.System{
		highTask("h", 4, 5, 10, 10),
		lowTask("l1", 2, 8, 16),
		lowTask("l2", 1, 9, 18),
	}
	alloc, err := Schedule(sys, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for k := range alloc.SharedProcs {
		for _, i := range alloc.TasksOnShared(k) {
			got[i] = true
		}
	}
	if !got[1] || !got[2] || got[0] {
		t.Errorf("TasksOnShared covered %v, want {1,2}", got)
	}
}

func BenchmarkScheduleMixed(b *testing.B) {
	r := rand.New(rand.NewSource(36))
	sys := randomSystem(r, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Schedule(sys, 16, Options{})
	}
}

// twoPhase maps a split shape's failures back to input indices: a Phase-1
// rejection names the sized task, and a Phase-2 rejection of a server names
// its owner while one of a low-density task names that task.
func TestTwoPhaseSplitFailureIndex(t *testing.T) {
	sys := task.System{
		lowTask("a", 9, 10, 10),
		highTask("h1", 2, 5, 5, 5),
		highTask("h2", 2, 5, 5, 5),
		lowTask("b", 9, 10, 10),
	}
	servers := func(_ int, tk *task.DAGTask, _ int, _ *obs.Span) (Grant, bool) {
		return Grant{Servers: 2, Budget: 5}, true
	}
	for _, tc := range []struct {
		m     int
		owner string
	}{{2, "h2"}, {4, "a"}, {5, "b"}} {
		_, err := twoPhase(sys, tc.m, Options{}, PolicyReservation, "reservation", servers)
		var fe *FailureError
		if !errors.As(err, &fe) || fe.Phase != PhaseLowDensity {
			t.Fatalf("m=%d: want a low-density FailureError, got %v", tc.m, err)
		}
		if got := sys[fe.TaskIndex].Name; got != tc.owner || !strings.HasPrefix(fe.TaskName, tc.owner) {
			t.Errorf("m=%d: failure names %q at input index %d (%s), want owner %s", tc.m, fe.TaskName, fe.TaskIndex, got, tc.owner)
		}
	}
	refuse := func(i int, _ *task.DAGTask, _ int, _ *obs.Span) (Grant, bool) {
		return Grant{Procs: 1}, i == 1
	}
	_, err := twoPhase(sys, 4, Options{}, PolicySemi, "semifed", refuse)
	var fe *FailureError
	if !errors.As(err, &fe) || fe.Phase != PhaseHighDensity || fe.TaskIndex != 2 || fe.Remaining != 3 {
		t.Fatalf("want a high-density FailureError for task 2 with 3 processors left, got %v", err)
	}
}

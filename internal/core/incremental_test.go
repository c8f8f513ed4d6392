package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// rebuildState mirrors the service layer's state reconstruction: the
// partition.State for alloc's Phase-2 outcome, built from the low-density
// subsystem in input order.
func rebuildState(t *testing.T, sys task.System, alloc *Allocation, opt Options) *partition.State {
	t.Helper()
	low := make(task.System, 0, len(alloc.LowIndices))
	for _, i := range alloc.LowIndices {
		low = append(low, sys[i])
	}
	st, err := partition.Rebuild(low, len(alloc.SharedProcs), alloc.Low, opt.Partition)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return st
}

// randIncLowTask draws strictly low-density singleton tasks (D > C, so
// δ < 1) sized so random admissions mix fits and rejections on a handful of
// shared processors.
func randIncLowTask(r *rand.Rand, name string) *task.DAGTask {
	c := Time(1 + r.Intn(6))
	d := c + 1 + Time(r.Intn(20))
	return lowTask(name, c, d, d+Time(r.Intn(20)))
}

// TestAdmitRemoveLowMatchesSchedule is the core-level differential: starting
// from a verified mixed-density allocation, every AdmitLow/RemoveLow outcome —
// the allocation on success, the *FailureError string on rejection — must be
// exactly what a from-scratch Schedule of the mutated system produces, and
// every successful delta must pass both VerifyDelta and the full Verify.
func TestAdmitRemoveLowMatchesSchedule(t *testing.T) {
	optsets := []Options{
		{},
		{Minprocs: Analytic},
		{Partition: partition.Options{Heuristic: partition.BestFit, Test: partition.ExactEDF}},
	}
	for seed := int64(0); seed < 10; seed++ {
		for oi, opt := range optsets {
			t.Run(fmt.Sprintf("seed=%d/opt=%d", seed, oi), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				m := 4 + r.Intn(5)
				sys := task.System{highTask("h0", 2, 4, 5, 6)}
				for i := 0; i < 3; i++ {
					sys = append(sys, randIncLowTask(r, fmt.Sprintf("base%d", i)))
				}
				alloc, err := Schedule(sys, m, opt)
				if err != nil {
					t.Skipf("base system unschedulable: %v", err)
				}
				st := rebuildState(t, sys, alloc, opt)
				next := 0
				for step := 0; step < 40; step++ {
					if len(alloc.LowIndices) == 0 || r.Float64() < 0.6 {
						tk := randIncLowTask(r, fmt.Sprintf("t%d", next))
						next++
						trial := append(sys.Clone(), tk)
						got, gotErr := AdmitLow(alloc, st, tk)
						want, wantErr := Schedule(trial, m, opt)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("step %d admit: incremental err %v, batch err %v", step, gotErr, wantErr)
						}
						if gotErr != nil {
							if gotErr.Error() != wantErr.Error() {
								t.Fatalf("step %d admit errors differ:\nincremental: %v\nbatch:       %v", step, gotErr, wantErr)
							}
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d admit: allocations differ\nincremental: %+v\nbatch:       %+v", step, got, want)
						}
						if err := VerifyDelta(trial, m, got, sys, alloc); err != nil {
							t.Fatalf("step %d admit: delta audit failed: %v", step, err)
						}
						if err := Verify(trial, m, got); err != nil {
							t.Fatalf("step %d admit: full audit failed: %v", step, err)
						}
						sys, alloc = trial, got
					} else {
						sysIdx := alloc.LowIndices[r.Intn(len(alloc.LowIndices))]
						trial := append(append(task.System{}, sys[:sysIdx]...), sys[sysIdx+1:]...)
						got, gotErr := RemoveLow(alloc, st, sysIdx)
						want, wantErr := Schedule(trial, m, opt)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("step %d remove(%d): incremental err %v, batch err %v", step, sysIdx, gotErr, wantErr)
						}
						if gotErr != nil {
							if gotErr.Error() != wantErr.Error() {
								t.Fatalf("step %d remove errors differ:\nincremental: %v\nbatch:       %v", step, gotErr, wantErr)
							}
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d remove: allocations differ\nincremental: %+v\nbatch:       %+v", step, got, want)
						}
						if err := VerifyDelta(trial, m, got, sys, alloc); err != nil {
							t.Fatalf("step %d remove: delta audit failed: %v", step, err)
						}
						sys, alloc = trial, got
					}
				}
			})
		}
	}
}

// TestRemoveLowRejectsNonLowIndex: asking to remove a high-density (or
// unknown) input index is a caller error, not a partition failure.
func TestRemoveLowRejectsNonLowIndex(t *testing.T) {
	sys := task.System{highTask("h", 2, 4, 5, 6), lowTask("l", 2, 8, 10)}
	alloc, err := Schedule(sys, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := rebuildState(t, sys, alloc, Options{})
	if _, err := RemoveLow(alloc, st, 0); err == nil {
		t.Error("RemoveLow accepted the high-density task's index")
	}
	if _, err := RemoveLow(alloc, st, 99); err == nil {
		t.Error("RemoveLow accepted an out-of-range index")
	}
}

// TestVerifyDeltaCatchesCorruption corrupts genuine AdmitLow outputs one field
// at a time: the delta audit may elide re-checks only for provably unchanged
// objects, so every corruption — including ones whose expense the elision
// targets — must still be caught.
func TestVerifyDeltaCatchesCorruption(t *testing.T) {
	sys := task.System{
		highTask("h", 2, 4, 5, 6),
		lowTask("a", 2, 8, 10),
		lowTask("b", 3, 9, 12),
	}
	const m = 5
	base, err := Schedule(sys, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := rebuildState(t, sys, base, Options{})
	tk := lowTask("c", 2, 10, 14)
	grown := append(sys.Clone(), tk)
	a, err := AdmitLow(base, st, tk)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDelta(grown, m, a, sys, base); err != nil {
		t.Fatalf("genuine delta rejected: %v", err)
	}

	corrupt := []struct {
		name string
		mut  func(bad *Allocation, badSys task.System)
	}{
		{"wrong-m", func(bad *Allocation, _ task.System) { bad.M = m + 1 }},
		{"duplicate-partition-slot", func(bad *Allocation, _ task.System) {
			bad.Low.Assignment[0] = append(bad.Low.Assignment[0], bad.Low.Assignment[0][0])
		}},
		{"dropped-partition-slot", func(bad *Allocation, _ task.System) {
			for k := range bad.Low.Assignment {
				if len(bad.Low.Assignment[k]) > 0 {
					bad.Low.Assignment[k] = bad.Low.Assignment[k][:len(bad.Low.Assignment[k])-1]
					return
				}
			}
		}},
		{"dedicated-proc-stolen", func(bad *Allocation, _ task.System) {
			bad.SharedProcs[0] = bad.High[0].Procs[0]
		}},
		{"template-makespan-lie", func(bad *Allocation, _ task.System) {
			bad.High[0].Template.Makespan = window(grown[bad.High[0].TaskIndex]) + 1
		}},
		{"low-task-swapped-heavier", func(_ *Allocation, badSys task.System) {
			// The installed partition was computed for the original task; the
			// swap breaks EDF feasibility on its processor. The task pointer
			// differs from base, so the elision must not transfer the audit.
			badSys[1] = lowTask("a", 7, 8, 8)
		}},
	}
	for _, tc := range corrupt {
		bad := cloneAlloc(a)
		badSys := append(task.System{}, grown...)
		tc.mut(bad, badSys)
		if err := VerifyDelta(badSys, m, bad, sys, base); err == nil {
			t.Errorf("%s: corruption passed the delta audit", tc.name)
		}
	}

	// The split shapes, whose policies live outside core, as hand-built
	// bases: h (vol 10, len 2, window 8) is served by one dedicated
	// processor plus a budget-4 server (semi: 1·8 + 4 ≥ 10 + 1·2) or by two
	// budget-6 servers (reservation: 6 + 6 ≥ 10 + 1·2).
	splitSys := task.System{
		highTask("h", 5, 2, 8, 10),
		lowTask("a", 2, 8, 10),
		lowTask("b", 3, 9, 12),
	}
	for _, sc := range []struct {
		policy  string
		procs   []int
		budgets []Time
	}{
		{PolicySemi, []int{0}, []Time{4}},
		{PolicyReservation, nil, []Time{6, 6}},
	} {
		base, st := splitBase(t, splitSys, m, sc.policy, sc.procs, sc.budgets)
		grown := append(splitSys.Clone(), tk)
		a, err := AdmitLow(base, st, tk)
		if err != nil {
			t.Fatalf("%s: %v", sc.policy, err)
		}
		if err := VerifyDelta(grown, m, a, splitSys, base); err != nil {
			t.Fatalf("%s: genuine delta rejected: %v", sc.policy, err)
		}
		corrupt := []struct {
			name string
			mut  func(bad *Allocation, badSys task.System)
		}{
			{"zero-server-budget", func(bad *Allocation, _ task.System) { bad.Servers[0].Budget = 0 }},
			{"server-budget-past-window", func(bad *Allocation, badSys task.System) {
				bad.Servers[0].Budget = window(badSys[bad.Servers[0].TaskIndex]) + 1
			}},
			{"dropped-server", func(bad *Allocation, _ task.System) { bad.Servers = bad.Servers[:len(bad.Servers)-1] }},
			{"low-task-swapped-heavier-beside-server", func(bad *Allocation, badSys task.System) {
				ns := len(bad.Servers)
				for _, procTasks := range bad.Low.Assignment {
					hasServer, low := false, -1
					for _, pos := range procTasks {
						if pos < ns {
							hasServer = true
						} else if low < 0 {
							low = bad.LowIndices[pos-ns]
						}
					}
					if hasServer && low >= 0 {
						old := badSys[low]
						badSys[low] = lowTask(old.Name, old.D-1, old.D, old.D)
						return
					}
				}
				t.Fatalf("%s: no shared processor carries both a server and a low task", sc.policy)
			}},
		}
		for _, tc := range corrupt {
			bad := cloneAlloc(a)
			badSys := append(task.System{}, grown...)
			tc.mut(bad, badSys)
			if err := VerifyDelta(badSys, m, bad, splitSys, base); err == nil {
				t.Errorf("%s/%s: corruption passed the delta audit", sc.policy, tc.name)
			}
		}
	}
}

// splitBase hand-builds the split-shape allocation a semi or reservation
// policy would install for sys on m processors: task 0 is served by the
// dedicated processors procs plus one server per budget, and the remaining
// tasks are partitioned with the servers onto the other processors. It
// returns the verified allocation and the partition.State mirroring it.
func splitBase(t *testing.T, sys task.System, m int, policy string, procs []int, budgets []Time) (*Allocation, *partition.State) {
	t.Helper()
	a := &Allocation{M: m, Policy: policy}
	if len(procs) > 0 {
		a.High = []HighAssignment{{TaskIndex: 0, Procs: procs}}
	}
	for _, b := range budgets {
		a.Servers = append(a.Servers, ServerSpec{TaskIndex: 0, Budget: b})
	}
	for p := len(procs); p < m; p++ {
		a.SharedProcs = append(a.SharedProcs, p)
	}
	for i := 1; i < len(sys); i++ {
		a.LowIndices = append(a.LowIndices, i)
	}
	part, err := PartitionSystem(sys, a)
	if err != nil {
		t.Fatal(err)
	}
	if a.Low, err = partition.Partition(part, len(a.SharedProcs), partition.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, m, a); err != nil {
		t.Fatalf("%s base: %v", policy, err)
	}
	st, err := partition.Rebuild(part, len(a.SharedProcs), a.Low, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, st
}

// TestVerifyDeltaRefusesHighChange: a mutation that alters the high-density
// set is outside the delta audit's precondition and must be refused, not
// partially audited.
func TestVerifyDeltaRefusesHighChange(t *testing.T) {
	sys := task.System{highTask("h", 2, 4, 5, 6), lowTask("a", 2, 8, 10)}
	const m = 6
	base, err := Schedule(sys, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grown := append(sys.Clone(), highTask("h2", 2, 4, 5, 6))
	a, err := Schedule(grown, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDelta(grown, m, a, sys, base); err == nil {
		t.Error("delta audit accepted a high-density count change")
	}
	if _, err := RemoveLow(base, rebuildState(t, sys, base, Options{}), 0); err == nil {
		t.Error("RemoveLow accepted a high-density index")
	}
}

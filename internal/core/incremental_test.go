package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fedsched/internal/dag"
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

// typedLowTask is a single-vertex task of processor type ty.
func typedLowTask(name string, ty int, c, d, t Time) *task.DAGTask {
	b := dag.NewBuilder(1)
	b.AddTypedVertex("", c, ty)
	return task.MustNew(name, b.MustBuild(), d, t)
}

// randTypedLowTask is randIncLowTask on a random one of two processor types.
func randTypedLowTask(r *rand.Rand, name string) *task.DAGTask {
	c := Time(1 + r.Intn(6))
	d := c + 1 + Time(r.Intn(20))
	return typedLowTask(name, r.Intn(2), c, d, d+Time(r.Intn(20)))
}

// requireSameFailure pins an incremental Phase-2 rejection to the batch one,
// field by field and in its text.
func requireSameFailure(t *testing.T, label string, got, want error) {
	t.Helper()
	var g, w *FailureError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		t.Fatalf("%s: incremental err %v, batch err %v: want two *FailureError", label, got, want)
	}
	if g.Phase != w.Phase || g.TaskIndex != w.TaskIndex || g.TaskName != w.TaskName || g.Remaining != w.Remaining ||
		got.Error() != want.Error() {
		t.Fatalf("%s: failures differ:\nincremental: %+v %v\nbatch:       %+v %v", label, g, got, w, want)
	}
}

// typedWalk is one typed differential run: the installed system and
// allocation, and the LowState mirroring them.
type typedWalk struct {
	m     int
	opt   Options
	sys   task.System
	alloc *Allocation
	ls    *LowState
}

// newTypedWalk schedules the base system sys with the typed policy on the
// platform mtypes and builds its LowState. ok is false when the base is
// unschedulable.
func newTypedWalk(t *testing.T, sys task.System, mtypes []int, opt Options) (*typedWalk, bool) {
	t.Helper()
	opt.Policy, opt.MTypes = PolicyTyped, mtypes
	w := &typedWalk{m: mtypes[0] + mtypes[1], opt: opt, sys: sys}
	var err error
	if w.alloc, err = Schedule(sys, w.m, opt); err != nil {
		return nil, false
	}
	if w.alloc.Policy != PolicyTyped {
		t.Fatalf("base allocation has shape %q, want typed", w.alloc.Policy)
	}
	if w.ls, err = NewLowState(sys, w.alloc, opt.Partition); err != nil {
		t.Fatalf("NewLowState: %v", err)
	}
	return w, true
}

// step admits tk (or, when tk is nil, removes the task at input index
// sysIdx) through the LowState and through the typed Schedule of the mutated
// system, requires both to agree, audits and installs a success, and
// returns the mutation's error.
func (w *typedWalk) step(t *testing.T, label string, tk *task.DAGTask, sysIdx int) error {
	t.Helper()
	var trial task.System
	var got *Allocation
	var gotErr error
	if tk != nil {
		trial = append(w.sys.Clone(), tk)
		got, gotErr = w.ls.Admit(w.alloc, tk)
	} else {
		trial = append(append(task.System{}, w.sys[:sysIdx]...), w.sys[sysIdx+1:]...)
		got, gotErr = w.ls.Remove(w.alloc, sysIdx)
	}
	want, wantErr := Schedule(trial, w.m, w.opt)
	if gotErr != nil || wantErr != nil {
		requireSameFailure(t, label, gotErr, wantErr)
		return gotErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: allocations differ\nincremental: %+v\nbatch:       %+v", label, got, want)
	}
	if err := VerifyDelta(trial, w.m, got, w.sys, w.alloc); err != nil {
		t.Fatalf("%s: delta audit failed: %v", label, err)
	}
	if err := Verify(trial, w.m, got); err != nil {
		t.Fatalf("%s: full audit failed: %v", label, err)
	}
	w.sys, w.alloc = trial, got
	return nil
}

// mixedHigh is a mixed-type high-density task: two type-a and two type-b
// jobs of WCET 4 in a window of 5, which takes two processors of each type.
func mixedHigh(name string) *task.DAGTask {
	b := dag.NewBuilder(4)
	for v := 0; v < 4; v++ {
		b.AddTypedVertex("", 4, v/2)
	}
	return task.MustNew(name, b.MustBuild(), 5, 6)
}

// TestAdmitRemoveLowMatchesScheduleTyped is the typed arm of the core-level
// differential: on a two-type platform, every LowState Admit/Remove of a
// uniformly-typed low-density task must return exactly what the typed
// policy's Schedule of the mutated system returns — the allocation, or the
// *FailureError field by field — and every successful delta must pass
// VerifyDelta and Verify. The base holds a mixed-type high-density task;
// some seeds leave type b no leftover processors, so every type-b admission
// fails on an empty bank. A scripted walk adds a removal that fails.
func TestAdmitRemoveLowMatchesScheduleTyped(t *testing.T) {
	optsets := []Options{
		{},
		{Partition: partition.Options{Heuristic: partition.BestFit, Test: partition.ExactEDF}},
	}
	var rejected [2]int // failed admissions per bank
	for seed := int64(0); seed < 20; seed++ {
		for oi, opt := range optsets {
			t.Run(fmt.Sprintf("seed=%d/opt=%d", seed, oi), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				mtypes := []int{3 + r.Intn(4), 2 + r.Intn(3)}
				sys := task.System{mixedHigh("h0")}
				for i := 0; i < 3; i++ {
					tk := randTypedLowTask(r, fmt.Sprintf("base%d", i))
					if mtypes[1] == 2 { // no type-b processor left over
						tk = typedLowTask(tk.Name, 0, tk.Volume(), tk.D, tk.T)
					}
					sys = append(sys, tk)
				}
				w, ok := newTypedWalk(t, sys, mtypes, opt)
				if !ok {
					t.Skip("base system unschedulable")
				}
				accepted := 0
				for step := 0; step < 40; step++ {
					if len(w.alloc.LowIndices) == 0 || r.Float64() < 0.6 {
						tk := randTypedLowTask(r, fmt.Sprintf("t%d", step))
						if w.step(t, fmt.Sprintf("step %d admit %s", step, tk), tk, -1) != nil {
							ty, _ := tk.G.UniformType()
							rejected[ty]++
							continue
						}
					} else {
						sysIdx := w.alloc.LowIndices[r.Intn(len(w.alloc.LowIndices))]
						if w.step(t, fmt.Sprintf("step %d remove(%d)", step, sysIdx), nil, sysIdx) != nil {
							continue
						}
					}
					accepted++
				}
				if accepted == 0 {
					t.Error("no mutation accepted")
				}
			})
		}
	}
	if rejected[0] == 0 || rejected[1] == 0 {
		t.Errorf("rejected admissions per bank %v: want failures in both banks", rejected)
	}

	// Deadline-ordered first-fit is not monotone under removal: these five
	// type-b tasks fit type b's two leftover processors, but without x0 the
	// packing shifts and x4 no longer fits.
	t.Run("removal-failure", func(t *testing.T) {
		w, ok := newTypedWalk(t, task.System{mixedHigh("h0"), typedLowTask("a0", 0, 2, 8, 10)}, []int{3, 4}, Options{})
		if !ok {
			t.Fatal("base system unschedulable")
		}
		for i, p := range [][3]Time{{1, 4, 15}, {2, 4, 11}, {6, 11, 21}, {5, 9, 18}, {8, 15, 22}} {
			tk := typedLowTask(fmt.Sprintf("x%d", i), 1, p[0], p[1], p[2])
			if err := w.step(t, "admit "+tk.Name, tk, -1); err != nil {
				t.Fatalf("admit %s: %v", tk.Name, err)
			}
		}
		if err := w.step(t, "remove x0", nil, 2); err == nil {
			t.Fatal("removing x0 succeeded; want the packing anomaly")
		}
		// The failed removal left the state untouched: a-bank and b-bank
		// mutations still match the batch analysis.
		if err := w.step(t, "remove a0", nil, 1); err != nil {
			t.Fatalf("remove a0: %v", err)
		}
		if err := w.step(t, "remove x4", nil, 5); err != nil {
			t.Fatalf("remove x4: %v", err)
		}
	})
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

// shareTemplates returns a copy of a whose grants reuse base's template
// pointer wherever base holds a grant of the same task with an equal
// template — what the daemon's Phase-1 memo hands back for a task it has
// analysed before. Every other template stays a private copy.
func shareTemplates(a *Allocation, sys task.System, base *Allocation, baseSys task.System) *Allocation {
	c := cloneAlloc(a)
	for i := range c.High {
		h := &c.High[i]
		for _, b := range base.High {
			if h.TaskIndex >= 0 && h.TaskIndex < len(sys) && sys[h.TaskIndex] == baseSys[b.TaskIndex] &&
				reflect.DeepEqual(h.Template, b.Template) {
				h.Template = b.Template
			}
		}
	}
	return c
}

// TestVerifyDeltaAcrossHighChange: the delta audit serves mutations that
// change the high-density set, where processor numbering shifts under every
// later grant. For each shape's base, with one high-density task added and
// one removed, it must accept exactly what Verify accepts; on the template
// shapes it must still validate a corrupted template on the new grant and a
// base template moved onto another task, although the unchanged grants
// share their templates with the base.
func TestVerifyDeltaAcrossHighChange(t *testing.T) {
	typedHigh := func(name string, types ...int) *task.DAGTask {
		b := dag.NewBuilder(len(types))
		for _, ty := range types {
			b.AddTypedVertex("", 4, ty)
		}
		return task.MustNew(name, b.MustBuild(), 5, 6)
	}
	strictSys := task.System{highTask("h0", 2, 4, 5, 6), lowTask("a", 2, 8, 10), highTask("h1", 2, 3, 4, 6), lowTask("b", 3, 9, 12)}
	for _, pc := range []struct {
		policy string
		mtypes []int
		m      int
		sys    task.System
		add    *task.DAGTask
	}{
		{"", nil, 8, strictSys, highTask("h2", 3, 4, 5, 6)},
		{PolicyTyped, []int{6, 6}, 12, task.System{typedHigh("h0", 0, 0, 1, 1), typedLowTask("a", 0, 2, 8, 10),
			typedHigh("h1", 0, 1), typedLowTask("b", 1, 3, 9, 12)}, typedHigh("h2", 0, 0, 1)},
		{PolicySemi, nil, 16, strictSys, highTask("h2", 3, 4, 5, 6)},
		{PolicyReservation, nil, 16, strictSys, highTask("h2", 3, 4, 5, 6)},
		// Too few processors for h2's semi split: the grown system falls
		// back to the strict shape, so the delta also crosses a shape change.
		{PolicySemi, nil, 12, strictSys, highTask("h2", 3, 4, 5, 6)},
	} {
		opt := Options{Policy: pc.policy, MTypes: pc.mtypes}
		base, err := Schedule(pc.sys, pc.m, opt)
		if err != nil {
			t.Fatalf("%q base: %v", pc.policy, err)
		}
		if base.Policy != pc.policy {
			t.Fatalf("%q base has shape %q", pc.policy, base.Policy)
		}
		if err := Verify(pc.sys, pc.m, base); err != nil {
			t.Fatalf("%q base: %v", pc.policy, err)
		}
		// agree requires both audits to give the same verdict, want.
		agree := func(label string, sys task.System, a *Allocation, want bool) {
			t.Helper()
			full, delta := Verify(sys, pc.m, a), VerifyDelta(sys, pc.m, a, pc.sys, base)
			if (full == nil) != want || (delta == nil) != want {
				t.Errorf("%q %s: Verify → %v, VerifyDelta → %v; want accepted=%v", pc.policy, label, full, delta, want)
			}
		}
		grown := append(pc.sys.Clone(), pc.add)
		shrunk := pc.sys[1:].Clone() // without h0: every later grant renumbers
		var added *Allocation
		for i, mu := range []struct {
			label string
			sys   task.System
		}{{"add " + pc.add.Name, grown}, {"remove h0", shrunk}} {
			a, err := Schedule(mu.sys, pc.m, opt)
			if err != nil {
				t.Fatalf("%q %s: %v", pc.policy, mu.label, err)
			}
			a = shareTemplates(a, mu.sys, base, pc.sys)
			agree(mu.label, mu.sys, a, true)
			if i == 0 {
				added = a
			}
		}
		if len(added.High) == 0 || added.High[0].Template == nil {
			continue // a split shape: no template to corrupt or move
		}
		if base.High[0].Template != nil && added.High[0].Template != base.High[0].Template {
			t.Fatalf("%q: the unchanged grant does not share its template with the base", pc.policy)
		}
		bad := shareTemplates(added, grown, base, pc.sys)
		bad.High[len(bad.High)-1].Template.Intervals[0].End++ // a private copy
		agree("corrupted template on the new grant", grown, bad, false)
		// h0's and h1's templates as the base installed them; a split base
		// has none, and the grown allocation's own stand in. The move goes
		// both ways, so a walk that matched on the template alone would
		// find the moved one ahead or behind.
		src := base
		if base.High[0].Template == nil {
			src = added
		}
		for _, mv := range [][2]int{{0, 1}, {1, 0}} {
			bad = shareTemplates(added, grown, base, pc.sys)
			bad.High[mv[1]].Template = src.High[mv[0]].Template
			agree(fmt.Sprintf("h%d's template moved onto h%d", mv[0], mv[1]), grown, bad, false)
		}
	}

	base, err := Schedule(strictSys, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RemoveLow(base, rebuildState(t, strictSys, base, Options{}), 0); err == nil {
		t.Error("RemoveLow accepted a high-density index")
	}
}

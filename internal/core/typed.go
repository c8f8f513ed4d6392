package core

import (
	"errors"
	"fmt"
	"strings"

	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// This file is the typed policy: federated scheduling on a typed
// heterogeneous platform (after Han, Zhu, Guan et al.'s typed federated
// scheduling of DAG tasks on multi-cores with processor types). The
// platform has MTypes[s] processors of type s (Σ_s MTypes[s] = m), and
// every DAG vertex carries the type it must execute on. The two FEDCONS
// phases generalize per type:
//
//   - Phase 1 grants dedicated processors to every high-density task and to
//     every mixed-type task (one whose vertices span several types — such a
//     task cannot be collapsed onto a single shared processor at any
//     density). The per-type budget vector is sized by MinprocsTyped, the
//     typed analogue of MINPROCS, and its witness template is retained for
//     table-driven replay, exactly as in the homogeneous algorithm.
//   - Phase 2 partitions the remaining (low-density, uniformly-typed) tasks
//     with the ordinary Baruah–Fisher partitioner, run once per type over
//     that type's leftover processors: a uniformly type-s task collapses to
//     a sporadic task on a type-s processor just as in the identical-machine
//     model.
//
// Processor numbering is type-major: type s owns the global ids
// [Σ_{t<s} MTypes[t], Σ_{t≤s} MTypes[t]); dedicated grants take the low ids
// of each block and the leftovers become the shared processors.
//
// On the degenerate single-type platform with an untyped workload the typed
// model is the paper's model, and ScheduleWith runs strict FEDCONS
// wholesale — so its output (verdict JSON, decision traces, explain text) is
// byte-identical to -policy=fedcons, pinned by the differential matrix in
// cmd/fedsched.

// CheckMTypes validates per-type processor budgets against the platform
// size m: no budget is negative and the budgets sum to m. Empty budgets
// declare the single-type platform and always pass. It is the typed
// policy's platform check, shared by the commands and the service so that a
// mismatched -m-types is refused before anything is analysed.
func CheckMTypes(mtypes []int, m int) error {
	if len(mtypes) == 0 {
		return nil
	}
	total := 0
	for s, mt := range mtypes {
		if mt < 0 {
			return fmt.Errorf("typedfed: type %s has negative budget %d", TypeName(s), mt)
		}
		total += mt
	}
	if total != m {
		return fmt.Errorf("typedfed: per-type budgets %s sum to %d, want m=%d", FormatMTypes(mtypes), total, m)
	}
	return nil
}

// singleType reports whether every processor is the default type 0 (given
// budgets that pass CheckMTypes).
func singleType(mtypes []int) bool {
	for s, mt := range mtypes {
		if s > 0 && mt != 0 {
			return false
		}
	}
	return true
}

// scheduleTyped is the typed two-phase analysis proper, on the budgets
// opt.MTypes (all m processors of type 0 when empty), which have passed
// CheckMTypes. span names the root trace span.
func scheduleTyped(sys task.System, m int, opt Options, span string) (*Allocation, error) {
	mtypes := opt.MTypes
	if len(mtypes) == 0 {
		mtypes = []int{m}
	}
	ntypes := len(mtypes)
	if st := sys.NumTypes(); st > ntypes {
		return nil, fmt.Errorf("typedfed: system references %d processor types, platform declares %d (%s)",
			st, ntypes, FormatMTypes(mtypes))
	}
	alloc := &Allocation{M: m, Policy: PolicyTyped, MTypes: append([]int(nil), mtypes...)}
	base := listsched.TypedProcBase(mtypes)
	next := append([]int(nil), base[:ntypes]...) // next free global id per type block
	avail := append([]int(nil), mtypes...)       // remaining budget per type

	root := opt.Trace.Start(span)
	if root != nil {
		root.Int("m", int64(m)).Int("tasks", int64(len(sys))).Str("mtypes", FormatMTypes(mtypes))
	}

	// Phase 1: dedicated grants for high-density and mixed-type tasks.
	phase1 := root.Child("phase1")
	dedicated := 0
	for i, tk := range sys {
		eligible := policies[PolicyTyped].dedicated(tk)
		var tsp *obs.Span
		if phase1 != nil {
			vol, l, w := tk.Volume(), tk.Len(), window(tk)
			tsp = phase1.Child("task").Str("task", tk.Name).Int("index", int64(i)).
				Int("vol", int64(vol)).Int("len", int64(l)).Int("window", int64(w)).
				Float("density", float64(vol)/float64(w)).Bool("high", tk.HighDensity()).
				Bool("eligible", eligible)
		}
		if !eligible {
			tsp.Finish()
			alloc.LowIndices = append(alloc.LowIndices, i)
			continue
		}
		mu, tmpl, ok := MinprocsTyped(tk, avail, opt.Priority, tsp)
		if !ok {
			tsp.Bool("failed", true).Finish()
			phase1.Finish()
			root.Bool("schedulable", false).Str("phase", PhaseHighDensity.String()).Finish()
			return nil, &FailureError{Phase: PhaseHighDensity, TaskIndex: i, TaskName: tk.Name, Remaining: sum(avail)}
		}
		tsp.Str("mu", FormatMTypes(mu)).Int("mu_total", int64(tmpl.M)).Finish()
		procs := make([]int, 0, tmpl.M)
		for s := 0; s < ntypes; s++ {
			for k := 0; k < mu[s]; k++ {
				procs = append(procs, next[s])
				next[s]++
			}
			avail[s] -= mu[s]
		}
		dedicated += tmpl.M
		alloc.High = append(alloc.High, HighAssignment{TaskIndex: i, Procs: procs, Template: tmpl})
	}
	phase1.Int("dedicated", int64(dedicated)).Int("remaining", int64(sum(avail))).Finish()

	// Leftover ids per type block, globally ascending because blocks are
	// type-major.
	for s := 0; s < ntypes; s++ {
		for p := next[s]; p < base[s+1]; p++ {
			alloc.SharedProcs = append(alloc.SharedProcs, p)
		}
	}

	// Phase 2: one Baruah–Fisher partition per type over that type's
	// leftover processors; the per-type results are stitched into a single
	// Result aligned with SharedProcs.
	phase2 := root.Child("phase2")
	if phase2 != nil {
		phase2.Int("procs", int64(len(alloc.SharedProcs))).Int("low", int64(len(alloc.LowIndices))).
			Str("heuristic", opt.Partition.Heuristic.String()).
			Str("test", opt.Partition.Test.String())
	}
	lowPosByType := make([][]int, ntypes) // positions into LowIndices, per type
	for pos, i := range alloc.LowIndices {
		t, _ := sys[i].G.UniformType() // uniform: not dedicated
		lowPosByType[t] = append(lowPosByType[t], pos)
	}
	assignment := make([][]int, 0, len(alloc.SharedProcs))
	for s := 0; s < ntypes; s++ {
		rs := base[s+1] - next[s]
		if len(lowPosByType[s]) == 0 {
			assignment = append(assignment, make([][]int, rs)...)
			continue
		}
		subsys := make(task.System, 0, len(lowPosByType[s]))
		for _, pos := range lowPosByType[s] {
			subsys = append(subsys, sys[alloc.LowIndices[pos]])
		}
		tspan := phase2.Child("type")
		if tspan != nil {
			tspan.Str("type", TypeName(s)).Int("procs", int64(rs)).Int("low", int64(len(subsys)))
		}
		popt := opt.Partition
		popt.Trace = tspan
		res, err := partition.Partition(subsys, rs, popt)
		if err != nil {
			fe := &FailureError{Phase: PhaseLowDensity, Remaining: rs, Err: err}
			var pf *partition.FailureError
			if errors.As(err, &pf) {
				fe.TaskIndex = alloc.LowIndices[lowPosByType[s][pf.TaskIndex]]
				fe.TaskName = pf.TaskName
			}
			tspan.Bool("failed", true).Finish()
			phase2.Finish()
			root.Bool("schedulable", false).Str("phase", PhaseLowDensity.String()).Finish()
			return nil, fe
		}
		tspan.Finish()
		for k := range res.Assignment {
			var procTasks []int
			for _, sub := range res.Assignment[k] {
				procTasks = append(procTasks, lowPosByType[s][sub])
			}
			assignment = append(assignment, procTasks)
		}
	}
	phase2.Finish()
	root.Bool("schedulable", true).Finish()
	alloc.Low = &partition.Result{Assignment: assignment}
	return alloc, nil
}

// FormatMTypes renders per-type budgets in the -m-types flag vocabulary:
// "a:4,b:2" (type indices 0,1,… spelled a,b,…; indices past 'z' fall back to
// "t26:" and up). Used by banners, traces and error messages.
func FormatMTypes(mtypes []int) string {
	var sb strings.Builder
	for s, m := range mtypes {
		if s > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(TypeName(s))
		fmt.Fprintf(&sb, ":%d", m)
	}
	return sb.String()
}

// TypeName spells processor type index s as a letter ("a" for 0, "b" for 1,
// …), falling back to "t<index>" past "z".
func TypeName(s int) string {
	if s >= 0 && s < 26 {
		return string(rune('a' + s))
	}
	return fmt.Sprintf("t%d", s)
}

// MinprocsTyped is the typed analogue of procedure MINPROCS: the smallest
// (by the greedy residual order below) per-type budget vector μ, with
// μ[s] ≤ avail[s], for which typed list scheduling of tk's dag-job finishes
// within the scheduling window min(D, T). The scan starts each type at its
// density floor ⌈vol_s/window⌉ (≥ 1 wherever the task has type-s work) and,
// while the witness makespan overshoots, grants one more processor to the
// type with the largest per-processor residual (vol_s − len_s(λ))/μ_s —
// the term of the typed Graham bound that shrinks. Budgets are capped at
// the task's per-type vertex count: at that cap no type-s job ever waits,
// so the makespan has collapsed to len(G), which fits the window whenever
// anything does.
//
// The returned vector is padded to len(avail) entries and is also recorded
// on the witness template (Template.MTypes). ok is false when no vector
// within avail suffices. When sp is non-nil the scan window and every
// candidate vector are traced, mirroring MinprocsTrace.
func MinprocsTyped(tk *task.DAGTask, avail []int, prio listsched.Priority, sp *obs.Span) (mu []int, tmpl *listsched.Schedule, ok bool) {
	ntypes := len(avail)
	g := tk.G
	if g.NumTypes() > ntypes {
		sp.Str("reason", "task-types-exceed-platform")
		return nil, nil, false
	}
	d := window(tk)
	if tk.Len() > d {
		sp.Str("reason", "critical-path-exceeds-window")
		return nil, nil, false
	}
	counts := pad(g.CountByType(), ntypes)
	vols := padTime(g.VolumeByType(), ntypes)
	lens := padTime(listsched.ChainWorkByType(g, g.NumTypes()), ntypes)

	mu = make([]int, ntypes)
	caps := make([]int, ntypes)
	total := 0
	for s := 0; s < ntypes; s++ {
		if counts[s] == 0 {
			continue
		}
		caps[s] = counts[s]
		if avail[s] < caps[s] {
			caps[s] = avail[s]
		}
		// Density floor: vol_s work must fit in the window on μ_s type-s
		// processors, so μ_s·window ≥ vol_s is necessary.
		mu[s] = int((vols[s] + d - 1) / d)
		if mu[s] < 1 {
			mu[s] = 1
		}
		if mu[s] > avail[s] {
			sp.Str("reason", "type-density-exceeds-remaining")
			return nil, nil, false
		}
		total += mu[s]
	}
	if sp != nil {
		sp.Str("scan_start", FormatMTypes(mu)).Str("avail", FormatMTypes(avail))
	}
	for {
		s, err := listsched.RunTyped(g, mu, prio)
		if err != nil {
			return nil, nil, false
		}
		if sp != nil {
			sp.Child("mu").Str("mu", FormatMTypes(mu)).Int("mu_total", int64(total)).
				Int("makespan", int64(s.Makespan)).
				Float("typed_bound", listsched.TypedBound(g, mu)).
				Bool("ok", s.Makespan <= d).Finish()
		}
		if s.Makespan <= d {
			return mu, s, true
		}
		// Grant one more processor to the type with the largest residual
		// (vol_s − len_s)/μ_s among those below cap; exact comparison by
		// cross-multiplication, ties to the lowest type index.
		best := -1
		for s := 0; s < ntypes; s++ {
			if mu[s] >= caps[s] {
				continue
			}
			if best < 0 || (vols[s]-lens[s])*Time(mu[best]) > (vols[best]-lens[best])*Time(mu[s]) {
				best = s
			}
		}
		if best < 0 {
			sp.Str("reason", "scan-exhausted")
			return nil, nil, false
		}
		mu[best]++
		total++
	}
}

func pad(v []int, n int) []int {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

func padTime(v []Time, n int) []Time {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

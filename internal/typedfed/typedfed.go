// Package typedfed implements federated scheduling on a typed heterogeneous
// platform (after Han, Zhu, Guan et al.'s typed federated scheduling of DAG
// tasks on multi-cores with processor types) as a pluggable core.Policy.
//
// The platform has MTypes[s] processors of type s (Σ_s MTypes[s] = m), and
// every DAG vertex carries the type it must execute on. The two FEDCONS
// phases generalize per type:
//
//   - Phase 1 grants dedicated processors to every high-density task and to
//     every mixed-type task (one whose vertices span several types — such a
//     task cannot be collapsed onto a single shared processor at any
//     density). The per-type budget vector is sized by core.MinprocsTyped,
//     the typed analogue of MINPROCS: start each type at its density floor
//     and grow the type with the largest Graham-residual until the typed
//     list schedule's makespan fits the window min(D, T). The witness
//     template is retained for table-driven replay, exactly as in the
//     homogeneous algorithm.
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
// model *is* the paper's model, and the policy delegates wholesale to the
// strict FEDCONS fallback — so its output (verdict JSON, decision traces,
// explain text) is byte-identical to -policy=fedcons, pinned by the
// differential matrix in cmd/fedsched.
package typedfed

import (
	"errors"
	"fmt"

	"fedsched/internal/core"
	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

func init() { core.RegisterPolicy(policy{}) }

// policy implements core.Policy.
type policy struct{}

// Name returns the registry key, "typed".
func (policy) Name() string { return core.PolicyTyped }

// Schedule runs the typed federated analysis. Unlike the semi-federated and
// reservation policies there is no fallback on failure — the strict
// algorithm is not defined on a typed platform — except in the degenerate
// all-default-type case, where the fallback is the whole analysis.
func (policy) Schedule(sys task.System, m int, opt core.Options, fallback core.ScheduleFunc) (*core.Allocation, error) {
	if err := core.ValidateInput(sys, m, opt); err != nil {
		return nil, err
	}
	mtypes := opt.MTypes
	if len(mtypes) == 0 {
		mtypes = []int{m}
	}
	total := 0
	for s, mt := range mtypes {
		if mt < 0 {
			return nil, fmt.Errorf("typedfed: type %s has negative budget %d", core.TypeName(s), mt)
		}
		total += mt
	}
	if total != m {
		return nil, fmt.Errorf("typedfed: per-type budgets %s sum to %d, want m=%d", core.FormatMTypes(mtypes), total, m)
	}
	if !sys.Typed() && singleType(mtypes) {
		fopt := opt
		fopt.Policy = ""
		fopt.MTypes = nil
		return fallback(sys, m, fopt)
	}
	return schedule(sys, m, mtypes, opt)
}

// singleType reports whether every processor is the default type 0 (given
// that the budgets sum to m).
func singleType(mtypes []int) bool {
	for s, mt := range mtypes {
		if s > 0 && mt != 0 {
			return false
		}
	}
	return true
}

// schedule is the typed two-phase analysis proper.
func schedule(sys task.System, m int, mtypes []int, opt core.Options) (*core.Allocation, error) {
	ntypes := len(mtypes)
	if st := sys.NumTypes(); st > ntypes {
		return nil, fmt.Errorf("typedfed: system references %d processor types, platform declares %d (%s)",
			st, ntypes, core.FormatMTypes(mtypes))
	}
	alloc := &core.Allocation{M: m, Policy: core.PolicyTyped, MTypes: append([]int(nil), mtypes...)}
	base := listsched.TypedProcBase(mtypes)
	next := append([]int(nil), base[:ntypes]...) // next free global id per type block
	avail := append([]int(nil), mtypes...)       // remaining budget per type

	root := opt.Trace.Start("typedfed")
	if root != nil {
		root.Int("m", int64(m)).Int("tasks", int64(len(sys))).Str("mtypes", core.FormatMTypes(mtypes))
	}

	// Phase 1: dedicated grants for high-density and mixed-type tasks.
	phase1 := root.Child("phase1")
	dedicated := 0
	for i, tk := range sys {
		eligible := core.NeedsDedicated(core.PolicyTyped, tk)
		var tsp *obs.Span
		if phase1 != nil {
			vol, l, w := tk.Volume(), tk.Len(), core.Window(tk)
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
		mu, tmpl, ok := core.MinprocsTyped(tk, avail, opt.Priority, tsp)
		if !ok {
			tsp.Bool("failed", true).Finish()
			phase1.Finish()
			root.Bool("schedulable", false).Str("phase", core.PhaseHighDensity.String()).Finish()
			return nil, &core.FailureError{Phase: core.PhaseHighDensity, TaskIndex: i, TaskName: tk.Name, Remaining: sum(avail)}
		}
		tsp.Str("mu", core.FormatMTypes(mu)).Int("mu_total", int64(tmpl.M)).Finish()
		procs := make([]int, 0, tmpl.M)
		for s := 0; s < ntypes; s++ {
			for k := 0; k < mu[s]; k++ {
				procs = append(procs, next[s])
				next[s]++
			}
			avail[s] -= mu[s]
		}
		dedicated += tmpl.M
		alloc.High = append(alloc.High, core.HighAssignment{TaskIndex: i, Procs: procs, Template: tmpl})
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
		t, _ := sys[i].G.UniformType() // uniform: not NeedsDedicated
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
			tspan.Str("type", core.TypeName(s)).Int("procs", int64(rs)).Int("low", int64(len(subsys)))
		}
		popt := opt.Partition
		popt.Trace = tspan
		res, err := partition.Partition(subsys, rs, popt)
		if err != nil {
			fe := &core.FailureError{Phase: core.PhaseLowDensity, Remaining: rs, Err: err}
			var pf *partition.FailureError
			if errors.As(err, &pf) {
				fe.TaskIndex = alloc.LowIndices[lowPosByType[s][pf.TaskIndex]]
				fe.TaskName = pf.TaskName
			}
			tspan.Bool("failed", true).Finish()
			phase2.Finish()
			root.Bool("schedulable", false).Str("phase", core.PhaseLowDensity.String()).Finish()
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

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

package core

import (
	"fmt"
	"slices"

	"fedsched/internal/dbf"
	"fedsched/internal/listsched"
	"fedsched/internal/task"
)

// Verify audits an Allocation against the system and platform it claims to
// schedule. It checks, independently of how the allocation was produced:
//
//   - every task appears exactly once (as a high assignment, as the owner of
//     reservation servers, or in LowIndices);
//   - high assignments are exactly the tasks that need dedicated service,
//     their processor sets are disjoint, within range, and sized to their
//     templates;
//   - each template is a valid schedule of the task's DAG with makespan ≤
//     min(D, T) (so every dag-job meets its deadline under lookup-table
//     replay, and vacates its group before the next dag-job arrives);
//   - shared processors are disjoint from dedicated ones; and
//   - the partition over the shared processors covers every low-density task
//     (and every server) exactly once and is exactly EDF-schedulable per
//     processor under the QPA test.
//
// The allocation's shape tag (a.Policy) selects the extra conditions of the
// split and typed shapes from the policy table (see policies): the Ueter
// service inequality for reservation servers, and per-type budgets and
// type-correct processor mappings for typed allocations. Each shape rejects
// every field it does not use, so a dedicated-only verifier can never be
// talked into accepting a fractional grant.
//
// Verify is the auditor used by tests, experiments and cmd/fedsched.
func Verify(sys task.System, m int, a *Allocation) error {
	return VerifyDelta(sys, m, a, nil, nil)
}

// VerifyDelta audits an allocation derived from base, an allocation with
// Verify(baseSys, m, base) == nil whose templates have not been modified
// since. It performs every check Verify performs, on every grant, server and
// shared processor, and elides only the two expensive semantic re-checks
// whose object base already passed:
//
//   - a template's Validate is skipped when the base grant of the same
//     *task.DAGTask, found by walking both grant lists in task order, carried
//     the same template pointer. Validate is a pure function of the immutable
//     (template, DAG) pair, so renumbered processors, a policy change or a
//     high-density task added or removed elsewhere cannot change its verdict,
//     and a grant the walk does not match is simply validated again;
//   - a shared processor's exact EDF test is skipped when it carries the
//     identical workload in the identical order.
//
// With a nil base there is nothing to carry over and VerifyDelta is Verify.
func VerifyDelta(sys task.System, m int, a *Allocation, baseSys task.System, base *Allocation) error {
	if a == nil {
		return fmt.Errorf("fedcons: nil allocation")
	}
	s, ok := policies[a.Policy]
	if !ok {
		return fmt.Errorf("fedcons: allocation tagged with unknown policy %q", a.Policy)
	}
	if a.M != m {
		return fmt.Errorf("fedcons: allocation for m=%d, want %d", a.M, m)
	}
	if !s.split && len(a.Servers) > 0 {
		return fmt.Errorf("fedcons: a %s allocation must not carry reservation servers, found %d", s.shape, len(a.Servers))
	}
	if s.noDedicated && len(a.High) > 0 {
		return fmt.Errorf("fedcons: a %s allocation grants no dedicated processors, found %d grants", s.shape, len(a.High))
	}
	// typeBase is the type-major processor numbering of a typed platform:
	// type t owns the global ids [typeBase[t], typeBase[t+1]).
	var typeBase []int
	if s.typed {
		if len(a.MTypes) == 0 {
			return fmt.Errorf("fedcons: a typed allocation must declare per-type processor budgets")
		}
		total := 0
		for t, mt := range a.MTypes {
			if mt < 0 {
				return fmt.Errorf("fedcons: type %s has negative budget %d", TypeName(t), mt)
			}
			total += mt
		}
		if total != m {
			return fmt.Errorf("fedcons: per-type budgets %s sum to %d, platform has %d", FormatMTypes(a.MTypes), total, m)
		}
		typeBase = listsched.TypedProcBase(a.MTypes)
	} else if len(a.MTypes) > 0 {
		return fmt.Errorf("fedcons: a %s allocation must not carry per-type processor budgets", s.shape)
	}

	owned := make([]bool, m)
	covered := make([]bool, len(sys))
	var supply []reserved // split shapes: per input task
	if s.split {
		supply = make([]reserved, len(sys))
	}

	next := 0 // the first base grant the template walk has not passed
	for i := range a.High {
		h := &a.High[i]
		if h.TaskIndex < 0 || h.TaskIndex >= len(sys) {
			return fmt.Errorf("fedcons: high assignment index %d out of range", h.TaskIndex)
		}
		tk := sys[h.TaskIndex]
		if covered[h.TaskIndex] {
			return fmt.Errorf("fedcons: task %d assigned twice", h.TaskIndex)
		}
		covered[h.TaskIndex] = true
		if !s.dedicated(tk) {
			return fmt.Errorf("fedcons: task %d (δ=%.3f) is low-density but got dedicated processors", h.TaskIndex, tk.Density())
		}
		if len(h.Procs) == 0 {
			return fmt.Errorf("fedcons: task %d granted zero processors", h.TaskIndex)
		}
		if s.split {
			// A split grant is dispatched work-conservingly inside its
			// reservations; the service inequality below is its certificate.
			if h.Template != nil {
				return fmt.Errorf("fedcons: task %d: a %s grant must not carry a template schedule", h.TaskIndex, s.shape)
			}
			supply[h.TaskIndex].d = len(h.Procs)
		} else {
			tm := h.Template
			if tm == nil {
				return fmt.Errorf("fedcons: task %d has no template schedule", h.TaskIndex)
			}
			if tm.M != len(h.Procs) {
				return fmt.Errorf("fedcons: task %d template uses %d processors, granted %d", h.TaskIndex, tm.M, len(h.Procs))
			}
			if s.typed && len(tm.MTypes) != len(a.MTypes) {
				return fmt.Errorf("fedcons: task %d template declares %d processor types, platform has %d",
					h.TaskIndex, len(tm.MTypes), len(a.MTypes))
			}
			// Validate also re-checks, per job, that a typed template's local
			// processor lies in the job's type block of Template.MTypes.
			if !validated(tk, tm, baseSys, base, &next) {
				if err := tm.Validate(tk.G); err != nil {
					return fmt.Errorf("fedcons: task %d template invalid: %w", h.TaskIndex, err)
				}
			}
			// ≤ D meets the deadline; ≤ T vacates the group before the next
			// dag-job.
			if w := window(tk); tm.Makespan > w {
				return fmt.Errorf("fedcons: task %d template makespan %d exceeds window min(D,T)=%d", h.TaskIndex, tm.Makespan, w)
			}
		}
		// Typed: local template processor p (type-major within
		// Template.MTypes) runs on global processor Procs[p], which must be
		// of the same type.
		var localBase []int
		if s.typed {
			localBase = listsched.TypedProcBase(h.Template.MTypes)
		}
		for p, gp := range h.Procs {
			if gp < 0 || gp >= m {
				return fmt.Errorf("fedcons: processor %d out of range", gp)
			}
			if owned[gp] {
				return fmt.Errorf("fedcons: processor %d claimed twice", gp)
			}
			owned[gp] = true
			if !s.typed {
				continue
			}
			if lt, gt := typeOf(localBase, p), typeOf(typeBase, gp); lt != gt {
				return fmt.Errorf("fedcons: task %d maps its type-%s template processor %d to global processor %d of type %s",
					h.TaskIndex, TypeName(lt), p, gp, TypeName(gt))
			}
		}
	}

	for j, sv := range a.Servers {
		if sv.TaskIndex < 0 || sv.TaskIndex >= len(sys) {
			return fmt.Errorf("fedcons: server %d owner index %d out of range", j, sv.TaskIndex)
		}
		tk := sys[sv.TaskIndex]
		if !tk.HighDensity() {
			return fmt.Errorf("fedcons: task %d (δ=%.3f) is low-density but got a reservation server", sv.TaskIndex, tk.Density())
		}
		if w := window(tk); sv.Budget < 1 || sv.Budget > w {
			return fmt.Errorf("fedcons: server %d budget %d outside [1, window=%d] of task %d", j, sv.Budget, w, sv.TaskIndex)
		}
		covered[sv.TaskIndex] = true
		supply[sv.TaskIndex].n++
		supply[sv.TaskIndex].e += sv.Budget
	}
	// The service inequality (Ueter et al., Lemma 2): d·w + ΣE ≥ vol +
	// (r−1)·len for every task served by r = d + n reservation units.
	for i, v := range supply {
		if v.d == 0 && v.n == 0 {
			continue
		}
		if s.oneServer && v.n != 1 {
			return fmt.Errorf("fedcons: %s task %d has %d servers, want exactly 1", s.shape, i, v.n)
		}
		tk := sys[i]
		got := Time(v.d)*window(tk) + v.e
		need := tk.Volume() + Time(v.d+v.n-1)*tk.Len()
		if got < need {
			return fmt.Errorf("fedcons: task %d service inequality violated: %d dedicated + %d servers supply %d < vol %d + (r−1)·len %d",
				i, v.d, v.n, got, tk.Volume(), need-tk.Volume())
		}
	}

	for _, p := range a.SharedProcs {
		if p < 0 || p >= m {
			return fmt.Errorf("fedcons: shared processor %d out of range", p)
		}
		if owned[p] {
			return fmt.Errorf("fedcons: shared processor %d also dedicated", p)
		}
		owned[p] = true
	}

	for _, i := range a.LowIndices {
		if i < 0 || i >= len(sys) {
			return fmt.Errorf("fedcons: low index %d out of range", i)
		}
		if covered[i] {
			return fmt.Errorf("fedcons: task %d assigned twice", i)
		}
		covered[i] = true
		if s.dedicated(sys[i]) {
			return fmt.Errorf("fedcons: task %d (δ=%.3f) requires dedicated processors but was partitioned", i, sys[i].Density())
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("fedcons: task %d unassigned", i)
		}
	}

	// The partition over the shared processors: servers first, then the
	// low-density tasks (PartitionSystem), EDF-feasible per processor.
	if a.Low == nil {
		return fmt.Errorf("fedcons: nil partition result")
	}
	part, err := PartitionSystem(sys, a)
	if err != nil {
		return err
	}
	if len(a.Low.Assignment) != len(a.SharedProcs) {
		return fmt.Errorf("fedcons: partition: result covers %d processors, want %d", len(a.Low.Assignment), len(a.SharedProcs))
	}
	sameShared := base != nil && base.Low != nil && len(base.Low.Assignment) == len(a.Low.Assignment) &&
		slices.Equal(a.SharedProcs, base.SharedProcs)
	seen := make([]bool, len(part))
	for k, procs := range a.Low.Assignment {
		for _, pos := range procs {
			if pos < 0 || pos >= len(part) {
				return fmt.Errorf("fedcons: partition: index %d out of range", pos)
			}
			if seen[pos] {
				return fmt.Errorf("fedcons: partition: task %d assigned twice", pos)
			}
			seen[pos] = true
			if !s.typed {
				continue
			}
			// A typed allocation has no servers, so pos indexes LowIndices;
			// the task may only share a processor of its own type.
			lt, _ := part[pos].G.UniformType()
			if pt := typeOf(typeBase, a.SharedProcs[k]); lt != pt {
				return fmt.Errorf("fedcons: task %d requires type-%s processors but shares processor %d of type %s",
					a.LowIndices[pos], TypeName(lt), a.SharedProcs[k], TypeName(pt))
			}
		}
		if sameShared && sameWorkload(sys, a, baseSys, base, k) {
			continue // identical already-audited workload on this processor
		}
		set := make([]task.Sporadic, 0, len(procs))
		for _, pos := range procs {
			set = append(set, part[pos].AsSporadic())
		}
		if !dbf.ExactFeasible(set) {
			return fmt.Errorf("fedcons: partition: processor %d not EDF-schedulable: %v", k, set)
		}
	}
	for pos, ok := range seen {
		if !ok {
			return fmt.Errorf("fedcons: partition: task %d unassigned", pos)
		}
	}
	return nil
}

// reserved is the reservation supply of one task of a split shape: d
// dedicated processors and n servers with summed budgets e.
type reserved struct {
	d, n int
	e    Time
}

// validated reports whether base already validated template tm for task tk:
// the first base grant of tk at or after *next carries tm itself. The walk
// moves *next past that grant, so grants listed in the same task order as
// base's are matched in one forward pass; a grant of a task base does not
// hold leaves *next in place.
func validated(tk *task.DAGTask, tm *listsched.Schedule, baseSys task.System, base *Allocation, next *int) bool {
	for k := *next; base != nil && k < len(base.High); k++ {
		if b := &base.High[k]; b.TaskIndex >= 0 && b.TaskIndex < len(baseSys) && baseSys[b.TaskIndex] == tk {
			*next = k + 1
			return b.Template == tm
		}
	}
	return false
}

// sameWorkload reports whether shared processor k carries the identical
// workload, in identical order, in a and base — the condition under which
// base's exact-EDF audit of that processor transfers to a. Server positions
// pair with value-equal budgets and pointer-identical owners (server tasks
// are rebuilt per PartitionSystem call, so their own pointers mean nothing),
// low positions with pointer-identical tasks.
func sameWorkload(sys task.System, a *Allocation, baseSys task.System, base *Allocation, k int) bool {
	ap, bp := a.Low.Assignment[k], base.Low.Assignment[k]
	if len(ap) != len(bp) {
		return false
	}
	sa, sb := len(a.Servers), len(base.Servers)
	for j := range ap {
		pa, pb := ap[j], bp[j]
		if (pa < sa) != (pb < sb) {
			return false
		}
		if pa < sa {
			va, vb := a.Servers[pa], base.Servers[pb]
			if va.Budget != vb.Budget || sys[va.TaskIndex] != baseSys[vb.TaskIndex] {
				return false
			}
		} else if sys[a.LowIndices[pa-sa]] != baseSys[base.LowIndices[pb-sb]] {
			return false
		}
	}
	return true
}

// typeOf returns the processor type owning processor p under the type-major
// numbering base (see listsched.TypedProcBase), or -1 past the last type.
func typeOf(base []int, p int) int {
	for t := 1; t < len(base); t++ {
		if p < base[t] {
			return t - 1
		}
	}
	return -1
}

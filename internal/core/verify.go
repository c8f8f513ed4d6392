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
// split and typed shapes from one table (see shapes): the Ueter service
// inequality for reservation servers, and per-type budgets and type-correct
// processor mappings for typed allocations. Each shape rejects every field it
// does not use, so a dedicated-only verifier can never be talked into
// accepting a fractional grant.
//
// Verify is the auditor used by tests, experiments and cmd/fedsched.
func Verify(sys task.System, m int, a *Allocation) error {
	if a == nil {
		return fmt.Errorf("fedcons: nil allocation")
	}
	return audit(sys, m, a, nil, nil)
}

// VerifyDelta audits an allocation produced by AdmitLow/RemoveLow against the
// mutated system, assuming Verify(baseSys, m, base) == nil for the state it
// was derived from. It performs every check Verify performs, and elides only
// the two expensive semantic re-checks where the audited object is provably
// unchanged from its already-verified counterpart in base: a template's
// validation is skipped when the (task, template, processors) triple is
// pointer-identical, and a shared processor's exact EDF feasibility test is
// skipped when it carries the identical workload in the identical order.
// Anything not provably unchanged is re-verified; callers needing an
// unconditional audit use Verify.
//
// The base and the new allocation must carry the same shape tag, platform
// size and number of grants and servers: a policy or high-density change is a
// full re-analysis, not a delta.
func VerifyDelta(sys task.System, m int, a *Allocation, baseSys task.System, base *Allocation) error {
	if a == nil || base == nil {
		return fmt.Errorf("fedcons: nil allocation")
	}
	if a.Policy != base.Policy {
		return fmt.Errorf("fedcons: delta audit across a policy change (%q → %q); use Verify", base.Policy, a.Policy)
	}
	if a.M != m || base.M != m {
		return fmt.Errorf("fedcons: allocation for m=%d (base m=%d), want %d", a.M, base.M, m)
	}
	if len(a.High) != len(base.High) || len(a.Servers) != len(base.Servers) {
		return fmt.Errorf("fedcons: delta audit across a high-density change (%d+%d → %d+%d grants); use Verify",
			len(base.High), len(base.Servers), len(a.High), len(a.Servers))
	}
	return audit(sys, m, a, baseSys, base)
}

// shape is what an allocation's Policy tag commits it to.
type shape struct {
	// name spells the shape in error texts ("a strict allocation").
	name string
	// split: reservation servers are allowed, and dedicated grants carry no
	// template schedule (otherwise servers are forbidden and every grant
	// carries one).
	split bool
	// oneServer: every served task has exactly one server.
	oneServer bool
	// noDedicated: no dedicated-processor grants.
	noDedicated bool
	// typed: per-type budgets are required, and TypedEligible rather than
	// HighDensity decides which tasks need dedicated service.
	typed bool
}

// shapes maps every allocation tag to its shape; any other tag fails the
// audit. The split shapes are Jiang et al.'s semi-federated scheduling and
// Ueter et al.'s reservation-based federated scheduling (see policy.go).
var shapes = map[string]shape{
	"":                {name: "strict"},
	PolicySemi:        {name: "semi-shape", split: true, oneServer: true},
	PolicyReservation: {name: "reservation-shape", split: true, noDedicated: true},
	PolicyTyped:       {name: "typed", typed: true},
}

// audit is the one allocation auditor behind Verify (base == nil) and
// VerifyDelta (a verified base of the same shape, platform and grant and
// server counts; see VerifyDelta for what it may skip).
func audit(sys task.System, m int, a *Allocation, baseSys task.System, base *Allocation) error {
	s, ok := shapes[a.Policy]
	if !ok {
		return fmt.Errorf("fedcons: allocation tagged with unknown policy %q", a.Policy)
	}
	if a.M != m {
		return fmt.Errorf("fedcons: allocation for m=%d, want %d", a.M, m)
	}
	if !s.split && len(a.Servers) > 0 {
		return fmt.Errorf("fedcons: a %s allocation must not carry reservation servers, found %d", s.name, len(a.Servers))
	}
	if s.noDedicated && len(a.High) > 0 {
		return fmt.Errorf("fedcons: a %s allocation grants no dedicated processors, found %d grants", s.name, len(a.High))
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
		return fmt.Errorf("fedcons: a %s allocation must not carry per-type processor budgets", s.name)
	}

	owned := make([]bool, m)
	covered := make([]bool, len(sys))
	var supply []reserved // split shapes: per input task
	if s.split {
		supply = make([]reserved, len(sys))
	}

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
		if !tk.HighDensity() && !(s.typed && TypedEligible(tk)) {
			return fmt.Errorf("fedcons: task %d (δ=%.3f) is low-density but got dedicated processors", h.TaskIndex, tk.Density())
		}
		if len(h.Procs) == 0 {
			return fmt.Errorf("fedcons: task %d granted zero processors", h.TaskIndex)
		}
		if s.split {
			// A split grant is dispatched work-conservingly inside its
			// reservations; the service inequality below is its certificate.
			if h.Template != nil {
				return fmt.Errorf("fedcons: task %d: a %s grant must not carry a template schedule", h.TaskIndex, s.name)
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
			if base == nil || !sameGrant(tk, h, baseSys, &base.High[i]) {
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
			return fmt.Errorf("fedcons: %s task %d has %d servers, want exactly 1", s.name, i, v.n)
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
		if sys[i].HighDensity() || s.typed && TypedEligible(sys[i]) {
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

// sameGrant reports whether grant h of task tk is the verified base grant b
// unchanged: the same task, template and processors.
func sameGrant(tk *task.DAGTask, h *HighAssignment, baseSys task.System, b *HighAssignment) bool {
	return h.Template == b.Template && tk == baseSys[b.TaskIndex] && slices.Equal(h.Procs, b.Procs)
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

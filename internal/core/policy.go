package core

import (
	"fmt"
	"sort"

	"fedsched/internal/dag"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// This file is the closed policy table. The paper's FEDCONS rounds every
// high-density grant up to whole processors; semi-federated scheduling
// (Jiang et al., arXiv 1705.03245) and reservation-based federated
// scheduling (Ueter et al., arXiv 1712.05040) reclaim the rounding loss by
// granting a high-density task ⌊x⌋ dedicated processors plus fractional
// reservation servers that the ordinary Phase-2 partitioner places alongside
// the low-density tasks; the typed policy runs FEDCONS on a platform of
// processor types (typed.go). One row per policy answers everything asked of
// it: its root trace span, its Phase-1 step, whether a failure retries
// strict FEDCONS, and the shape the auditor (verify.go) holds its
// allocations to. This file also owns the split allocation shape
// (Allocation.Policy + Allocation.Servers) and the construction of server
// tasks for the shared Phase-2 partitioner.
//
// Soundness of the split shape rests on one lemma (Ueter et al., Lemma 2 /
// Theorem 1 specialized to equal-deadline reservations): if a DAG task τ_i
// with volume vol_i, critical-path length len_i and scheduling window
// w_i = min(D_i, T_i) is served by r_i reservation units — d_i of them whole
// dedicated processors (budget w_i) and the rest servers with budgets
// E_j ≤ w_i released at each dag-job arrival with deadline w_i — then
// work-conserving list scheduling of the dag-job inside the reservations
// meets the deadline whenever
//
//	d_i·w_i + Σ_j E_j  ≥  vol_i + (r_i − 1)·len_i.
//
// Verify re-checks exactly this inequality per high-density task, plus
// EDF-feasibility of the servers' placement on the shared processors, so a
// mutated budget or dropped server never verifies.

// Policy names. Options.Policy == "" (or "fedcons") selects the paper's
// strict algorithm; allocations it produces carry the tag "".
const (
	PolicyFedcons     = "fedcons"
	PolicySemi        = "semi"
	PolicyReservation = "reservation"
	PolicyTyped       = "typed"
)

// policy is one row of the policy table. An allocation's Policy tag names
// its row, so the auditor reads the same row as the scheduler that made it.
type policy struct {
	// span names the root trace span of the policy's own attempt.
	span string
	// size is a split policy's Phase-1 step. The strict row sizes through
	// the caller's Sizer (MINPROCS) and the typed row through MinprocsTyped,
	// so both leave it nil.
	size SizeFunc
	// shape spells the allocation shape in audit error texts ("a strict
	// allocation").
	shape string
	// split: reservation servers are allowed, and dedicated grants carry no
	// template schedule (otherwise servers are forbidden and every grant
	// carries one). A split policy's failure retries strict FEDCONS.
	split bool
	// oneServer: every served task has exactly one server.
	oneServer bool
	// noDedicated: no dedicated-processor grants.
	noDedicated bool
	// typed: per-type budgets are required, and mixed-type tasks need
	// dedicated service at any density (see dedicated).
	typed bool
}

// policies is the closed policy table, keyed by allocation tag; any other
// tag fails the audit. Strict FEDCONS has the empty tag.
var policies = map[string]policy{
	"":                {span: "fedcons", shape: "strict"},
	PolicySemi:        {span: "semifed", size: semiSize, shape: "semi-shape", split: true, oneServer: true},
	PolicyReservation: {span: "reservation", size: reservationSize, shape: "reservation-shape", split: true, noDedicated: true},
	PolicyTyped:       {span: "typedfed", shape: "typed", typed: true},
}

// dedicated reports whether tk needs dedicated service under this row:
// every high-density task (as in strict FEDCONS), and under the typed shape
// also any task whose vertices span more than one processor type — a
// mixed-type task cannot be collapsed to a sporadic task on a single shared
// processor, so Phase 2 cannot place it regardless of density.
func (p policy) dedicated(tk *task.DAGTask) bool {
	if tk.HighDensity() {
		return true
	}
	if !p.typed {
		return false
	}
	_, uniform := tk.G.UniformType()
	return !uniform
}

// NeedsDedicated reports whether tk needs dedicated service (a grant or
// reservation servers) in an allocation tagged policy, rather than a place
// in the Phase-2 partition. An unknown tag answers as the strict shape.
func NeedsDedicated(policy string, tk *task.DAGTask) bool {
	return policies[policy].dedicated(tk)
}

// RetriesStrict reports whether the policy behind allocations tagged policy
// falls back to strict FEDCONS when its own attempt fails, so that its
// Phase-2 failure is not final: true for the split shapes, false for strict
// and typed (a typed-shape allocation exists only on a platform with more
// than one populated type, where the typed policy has no fallback).
func RetriesStrict(policy string) bool {
	return policies[policy].split
}

// PolicyNames returns the policy names other than fedcons, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		if name != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NormalizePolicy canonicalizes a policy name: "" and "fedcons" normalize to
// "" (the strict default); any other name in the table passes through;
// anything else is an error.
func NormalizePolicy(name string) (string, error) {
	if name == PolicyFedcons {
		return "", nil
	}
	if _, ok := policies[name]; !ok {
		s := PolicyFedcons
		for _, n := range PolicyNames() {
			s += ", " + n
		}
		return "", fmt.Errorf("fedcons: unknown policy %q (have %s)", name, s)
	}
	return name, nil
}

// ScheduleWith is Schedule with the strict shape's MINPROCS step built by
// strict, both on the default path and in a policy's strict fallback. A
// caller that memoizes Phase 1 (the service layer) passes its own Sizer;
// the output must then be exactly Schedule's.
//
// A split policy tries its own shape first and falls back to strict FEDCONS
// on any failure, so its acceptance dominates the paper's algorithm
// pointwise; only the strict path's error surfaces when both fail. The
// typed policy has no fallback — the strict algorithm is not defined on a
// typed platform — except on a single-type platform with an untyped
// workload, where the typed model is the paper's and strict FEDCONS is the
// whole analysis.
func ScheduleWith(sys task.System, m int, opt Options, strict Sizer) (*Allocation, error) {
	name, err := NormalizePolicy(opt.Policy)
	if err != nil {
		return nil, err
	}
	if err := validateInput(sys, m, opt); err != nil {
		return nil, err
	}
	switch p := policies[name]; {
	case p.split:
		if alloc, err := twoPhase(sys, m, opt, name, p.span, p.size); err == nil {
			return alloc, nil
		}
	case p.typed:
		if err := CheckMTypes(opt.MTypes, m); err != nil {
			return nil, err
		}
		if sys.Typed() || !singleType(opt.MTypes) {
			return scheduleTyped(sys, m, opt, p.span)
		}
	}
	opt.Policy, opt.MTypes = "", nil
	return twoPhase(sys, m, opt, "", policies[""].span, strict(sys, opt))
}

// Window exposes the dag-job scheduling window min(D_i, T_i) to the service
// layer.
func Window(tk *task.DAGTask) Time { return window(tk) }

// validateInput is Schedule's input check, shared by every policy.
func validateInput(sys task.System, m int, opt Options) error {
	if err := sys.Validate(); err != nil {
		return err
	}
	if m < 1 {
		return fmt.Errorf("fedcons: m must be ≥ 1, got %d", m)
	}
	if opt.Par < 0 {
		return fmt.Errorf("fedcons: par must be ≥ 0, got %d", opt.Par)
	}
	return nil
}

// semiSize is the semi-federated Phase-1 step (Jiang et al.). Strict
// federation rounds the grant of a high-density task up to whole
// processors; the semi split grants d dedicated processors plus one server
// of budget E ≤ w. With r = d + 1 reservation units the service condition
// above reads d·w + E ≥ vol + d·len; the smallest d with a feasible budget
// is d = ⌈(vol − w)/(w − len)⌉ with E = vol − d·(w − len), which meets the
// condition with equality and keeps 1 ≤ E ≤ w. A task of density exactly 1
// (vol = w) becomes a single server of budget w. The step fails when no
// split exists (len ≥ w with vol > w: the critical path fills the window,
// so no finite budget closes the gap) or when d exceeds the m_r remaining.
func semiSize(_ int, tk *task.DAGTask, mr int, sp *obs.Span) (Grant, bool) {
	vol, l, w := tk.Volume(), tk.Len(), window(tk)
	d, budget := Time(0), w
	if vol > w {
		if l >= w {
			return Grant{}, false
		}
		d = (vol - w + (w - l) - 1) / (w - l) // ⌈(vol−w)/(w−l)⌉ ≥ 1
		budget = vol - d*(w-l)
	}
	if d > Time(mr) {
		return Grant{}, false
	}
	sp.Int("dedicated", int64(d)).Int("budget", int64(budget))
	return Grant{Procs: int(d), Servers: 1, Budget: budget}, true
}

// reservationSize is the reservation-based Phase-1 step (Ueter et al.): r
// equal servers of budget E and no dedicated processor, so Phase 2
// partitions the servers over the whole platform. With the equal-budget
// service condition r·E ≥ vol + (r − 1)·len and E ≤ w, the minimal count is
// r = ⌈(vol − len)/(w − len)⌉ (r = 1 when vol ≤ w) with
// E = ⌈(vol + (r − 1)·len)/r⌉. Minimality of r guarantees E ≤ w:
// r·(w − len) ≥ vol − len rearranges to (vol + (r − 1)·len)/r ≤ w, and w is
// an integer, so the ceiling cannot exceed it. The step fails when no
// reservation system exists (len ≥ w with vol > w).
func reservationSize(_ int, tk *task.DAGTask, _ int, sp *obs.Span) (Grant, bool) {
	vol, l, w := tk.Volume(), tk.Len(), window(tk)
	r, budget := Time(1), w
	if vol > w {
		if l >= w {
			return Grant{}, false
		}
		r = (vol - l + (w - l) - 1) / (w - l) // ⌈(vol−len)/(w−len)⌉ ≥ 2 here
		budget = (vol + (r-1)*l + r - 1) / r  // ⌈(vol+(r−1)·len)/r⌉
		if budget > w {
			// Unreachable by minimality of r; kept so a future sizing
			// change cannot emit an unverifiable allocation.
			return Grant{}, false
		}
	}
	sp.Int("servers", int64(r)).Int("budget", int64(budget))
	return Grant{Servers: int(r), Budget: budget}, true
}

// ServerSpec is one reservation server of a split-shape allocation: a budget
// of E time units granted to the high-density task at TaskIndex within every
// scheduling window. The server is placed by the Phase-2 partitioner as an
// ordinary sporadic task (C = Budget, D = min(D_i, T_i), T = T_i).
type ServerSpec struct {
	// TaskIndex is the input index of the high-density task the server
	// belongs to.
	TaskIndex int
	// Budget is the server's execution budget per window, 1 ≤ Budget ≤
	// min(D_i, T_i).
	Budget Time
}

// ServerNames returns display names for a's servers, index aligned: the
// owner's name suffixed with a per-owner sequence number ("τ3#srv0"). The
// names are deterministic functions of the allocation, so the CLI, the
// daemon verdicts and the partitionable system built by PartitionSystem all
// agree.
func ServerNames(sys task.System, a *Allocation) []string {
	if len(a.Servers) == 0 {
		return nil
	}
	seq := make(map[int]int, len(a.Servers))
	names := make([]string, len(a.Servers))
	for j, sv := range a.Servers {
		owner := "?"
		if sv.TaskIndex >= 0 && sv.TaskIndex < len(sys) {
			owner = sys[sv.TaskIndex].Name
		}
		names[j] = fmt.Sprintf("%s#srv%d", owner, seq[sv.TaskIndex])
		seq[sv.TaskIndex]++
	}
	return names
}

// PartitionSystem builds the system the Phase-2 partitioner sees for
// allocation a: the reservation servers first (one single-vertex DAG task
// per ServerSpec, in Servers order), then the low-density tasks in input
// order. For a strict-shape allocation (no servers) this is exactly the
// low-density subsystem, so partition.Partition, partition.Verify and
// partition.Rebuild work unchanged for every shape; positions < len(Servers)
// in a.Low refer to servers, later positions to LowIndices[pos−len(Servers)].
func PartitionSystem(sys task.System, a *Allocation) (task.System, error) {
	out := make(task.System, 0, len(a.Servers)+len(a.LowIndices))
	names := ServerNames(sys, a)
	for j, sv := range a.Servers {
		if sv.TaskIndex < 0 || sv.TaskIndex >= len(sys) {
			return nil, fmt.Errorf("fedcons: server %d owner index %d out of range", j, sv.TaskIndex)
		}
		owner := sys[sv.TaskIndex]
		if sv.Budget < 1 {
			return nil, fmt.Errorf("fedcons: server %d budget must be ≥ 1, got %d", j, sv.Budget)
		}
		srv, err := task.New(names[j], dag.Chain(sv.Budget), window(owner), owner.T)
		if err != nil {
			return nil, fmt.Errorf("fedcons: server %d: %w", j, err)
		}
		out = append(out, srv)
	}
	for _, i := range a.LowIndices {
		if i < 0 || i >= len(sys) {
			return nil, fmt.Errorf("fedcons: low index %d out of range", i)
		}
		out = append(out, sys[i])
	}
	return out, nil
}

// systemSize returns the number of input tasks a covers: the low-density
// tasks plus the distinct high-density tasks appearing in High and/or
// Servers. For the strict shape this is len(High) + len(LowIndices).
func systemSize(a *Allocation) int {
	n := len(a.LowIndices) + len(a.High)
	if len(a.Servers) == 0 {
		return n
	}
	seen := make(map[int]bool, len(a.High)+len(a.Servers))
	for _, h := range a.High {
		seen[h.TaskIndex] = true
	}
	for _, sv := range a.Servers {
		if !seen[sv.TaskIndex] {
			seen[sv.TaskIndex] = true
			n++
		}
	}
	return n
}

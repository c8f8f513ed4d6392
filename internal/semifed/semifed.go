// Package semifed implements semi-federated scheduling (Jiang, Guan, Long,
// Yi: "Semi-Federated Scheduling of Parallel Real-Time Tasks on
// Multiprocessors", arXiv 1705.03245) as a pluggable core.Policy.
//
// Strict federation rounds the processor grant of every high-density task up
// to an integer, wasting up to one processor per task. Semi-federated
// scheduling splits the grant instead: a high-density task τ_i with volume
// vol_i, critical-path length len_i and scheduling window w_i = min(D_i, T_i)
// receives
//
//	d_i dedicated processors  +  one reservation server of budget E_i ≤ w_i,
//
// and the fractional servers are packed onto the shared processors by the
// ordinary Phase-2 partitioner, alongside the low-density tasks. The sizing
// used here is the equal-deadline specialization of the container condition:
// with r_i = d_i + 1 reservation units, work-conserving execution of the
// dag-job inside its reservations meets the deadline whenever
//
//	d_i·w_i + E_i ≥ vol_i + (d_i + 1 − 1)·len_i = vol_i + d_i·len_i,
//
// (see DESIGN.md §13; core.Verify re-checks exactly this inequality). Solving
// for the smallest d_i with a feasible budget E_i ≤ w_i gives
//
//	d_i = ⌈(vol_i − w_i)/(w_i − len_i)⌉,   E_i = vol_i − d_i·(w_i − len_i),
//
// which satisfies the condition with equality and keeps 1 ≤ E_i ≤ w_i. When
// vol_i = w_i (density exactly 1) no dedicated processor is needed and the
// task becomes a single server of budget w_i.
//
// The policy is strictly admission-dominant over FEDCONS: if the split-shape
// attempt fails for any reason (a window with no slack past the critical
// path, dedicated processors exhausted, or the combined partition failing),
// it falls back to the strict algorithm, so every system FEDCONS accepts is
// accepted here too.
package semifed

import (
	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

func init() { core.RegisterPolicy(policy{}) }

// policy implements core.Policy.
type policy struct{}

// Name returns the registry key, "semi".
func (policy) Name() string { return core.PolicySemi }

// Schedule tries the semi-federated split first and falls back to strict
// FEDCONS on any failure, so acceptance dominates the paper's algorithm
// pointwise. Only the strict path's error surfaces when both fail.
func (policy) Schedule(sys task.System, m int, opt core.Options, fallback core.ScheduleFunc) (*core.Allocation, error) {
	if err := core.ValidateInput(sys, m, opt); err != nil {
		return nil, err
	}
	if alloc, err := core.TwoPhase(sys, m, opt, core.PolicySemi, "semifed", size); err == nil {
		return alloc, nil
	}
	fopt := opt
	fopt.Policy = ""
	return fallback(sys, m, fopt)
}

// Split sizes the semi-federated grant of one high-density task: d dedicated
// processors plus one server of budget E, satisfying the service condition
// d·w + E ≥ vol + d·len with equality. ok is false when no split exists
// (len ≥ w with vol > w: the critical path fills the window, so no finite
// budget closes the gap).
func Split(tk *task.DAGTask) (d int, budget task.Time, ok bool) {
	vol, l, w := tk.Volume(), tk.Len(), core.Window(tk)
	if vol <= w {
		// δ = 1 exactly (high-density means vol ≥ w): one pure server.
		return 0, w, true
	}
	if l >= w {
		return 0, 0, false
	}
	dd := (vol - w + (w - l) - 1) / (w - l) // ⌈(vol−w)/(w−l)⌉ ≥ 1
	return int(dd), vol - dd*(w-l), true
}

// size is the split attempt's Phase-1 step: Split's d dedicated processors
// (at most the m_r remaining) plus one server.
func size(_ int, tk *task.DAGTask, mr int, sp *obs.Span) (core.Grant, bool) {
	d, budget, ok := Split(tk)
	if !ok || d > mr {
		return core.Grant{}, false
	}
	sp.Int("dedicated", int64(d)).Int("budget", int64(budget))
	return core.Grant{Procs: d, Servers: 1, Budget: budget}, true
}

// Package reservation implements reservation-based federated scheduling
// (Ueter, von der Brüggen, Chen, Li, Agrawal: "Reservation-Based Federated
// Scheduling for Parallel Real-Time Tasks", arXiv 1712.05040) as a pluggable
// core.Policy.
//
// Where strict federation dedicates whole processors to each high-density
// task and semi-federated scheduling splits off one fractional share, this
// policy abstracts every high-density task τ_i into r_i identical reservation
// servers of budget E_i released with each dag-job and sharing its window
// w_i = min(D_i, T_i) as relative deadline. No processor is dedicated at all:
// the servers are ordinary constrained-deadline sporadic tasks that the
// existing Baruah–Fisher partitioner places on the full platform alongside
// the low-density tasks, which makes the policy compose with any partitioned
// schedulability machinery.
//
// Sizing (the equal-budget instantiation of Ueter et al.'s service condition;
// see DESIGN.md §13): work-conserving execution of the dag-job inside its
// reservations meets the deadline whenever
//
//	r_i·E_i ≥ vol_i + (r_i − 1)·len_i,  with E_i ≤ w_i.
//
// The minimal feasible count is r_i = ⌈(vol_i − len_i)/(w_i − len_i)⌉ (and
// r_i = 1 when vol_i ≤ w_i), with budget E_i = ⌈(vol_i + (r_i−1)·len_i)/r_i⌉.
// Minimality of r_i guarantees E_i ≤ w_i: r_i·(w_i − len_i) ≥ vol_i − len_i
// rearranges to (vol_i + (r_i−1)·len_i)/r_i ≤ w_i, and w_i is an integer, so
// the ceiling cannot exceed it. core.Verify re-checks the service inequality
// and every budget bound independently.
//
// Like semifed, the policy falls back to strict FEDCONS whenever the
// reservation attempt fails (a critical path filling the window, or the
// partitioner rejecting the server set), so its acceptance dominates the
// paper's algorithm pointwise.
package reservation

import (
	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

func init() { core.RegisterPolicy(policy{}) }

// policy implements core.Policy.
type policy struct{}

// Name returns the registry key, "reservation".
func (policy) Name() string { return core.PolicyReservation }

// Schedule tries the reservation-server shape first and falls back to strict
// FEDCONS on any failure. Only the strict path's error surfaces when both
// fail.
func (policy) Schedule(sys task.System, m int, opt core.Options, fallback core.ScheduleFunc) (*core.Allocation, error) {
	if err := core.ValidateInput(sys, m, opt); err != nil {
		return nil, err
	}
	if alloc, err := core.TwoPhase(sys, m, opt, core.PolicyReservation, "reservation", size); err == nil {
		return alloc, nil
	}
	fopt := opt
	fopt.Policy = ""
	return fallback(sys, m, fopt)
}

// Servers sizes the reservation system of one high-density task: r equal
// servers of budget E satisfying r·E ≥ vol + (r−1)·len with E ≤ w. ok is
// false when no reservation system exists (len ≥ w with vol > w).
func Servers(tk *task.DAGTask) (r int, budget task.Time, ok bool) {
	vol, l, w := tk.Volume(), tk.Len(), core.Window(tk)
	if vol <= w {
		// δ = 1 exactly: a single full-window server suffices.
		return 1, w, true
	}
	if l >= w {
		return 0, 0, false
	}
	rr := (vol - l + (w - l) - 1) / (w - l) // ⌈(vol−len)/(w−len)⌉ ≥ 2 here
	budget = (vol + (rr-1)*l + rr - 1) / rr // ⌈(vol+(r−1)·len)/r⌉
	if budget > w {
		// Unreachable by minimality of rr (see package comment); kept as a
		// defensive guard so a future sizing change cannot emit an
		// unverifiable allocation.
		return 0, 0, false
	}
	return int(rr), budget, true
}

// size is the reservation attempt's Phase-1 step: Servers' r servers and no
// dedicated processor, so Phase 2 partitions over the whole platform.
func size(_ int, tk *task.DAGTask, _ int, sp *obs.Span) (core.Grant, bool) {
	r, budget, ok := Servers(tk)
	if !ok {
		return core.Grant{}, false
	}
	sp.Int("servers", int64(r)).Int("budget", int64(budget))
	return core.Grant{Servers: r, Budget: budget}, true
}

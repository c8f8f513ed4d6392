// Package partition implements the Baruah–Fisher partitioning algorithm for
// constrained-deadline sporadic task systems (paper Fig. 4), used as the
// second phase of FEDCONS to place the low-density DAG tasks — collapsed to
// three-parameter sporadic tasks (C = vol_i, D_i, T_i) — onto the shared
// processors, each of which runs preemptive uniprocessor EDF.
//
// The admission test per processor is the DBF* approximation of Equation (1)
// evaluated at the candidate's deadline, plus the per-processor utilization
// condition of Baruah–Fisher (IEEE TC 2006, Corollary 1); the paper's Fig. 4
// shows only the DBF check, a pseudo-code simplification (see DESIGN.md).
// Candidates are offered in non-decreasing deadline order, which makes the
// incremental breakpoint checks sound (Lemma 2: speedup 3 − 1/m_r).
//
// Besides the paper's first-fit rule, the package exposes best-fit and
// worst-fit placement and an exact-EDF (QPA) admission test, for the E8
// ablation experiment.
package partition

import (
	"fmt"
	"sort"

	"fedsched/internal/dbf"
	"fedsched/internal/fp"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// Heuristic selects how a processor is chosen among those that can accept a
// candidate task.
type Heuristic int

const (
	// FirstFit assigns to the lowest-indexed processor that fits — the
	// paper's Fig. 4 rule.
	FirstFit Heuristic = iota
	// BestFit assigns to the fitting processor with minimum remaining slack.
	BestFit
	// WorstFit assigns to the fitting processor with maximum remaining slack.
	WorstFit
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// AdmissionTest selects the per-processor schedulability test.
type AdmissionTest int

const (
	// ApproxDBF is the paper's DBF* test (exact rational arithmetic).
	ApproxDBF AdmissionTest = iota
	// ExactEDF is the exact processor-demand test (QPA). Strictly more
	// permissive than ApproxDBF; exponential-time in principle but fast in
	// practice. Not covered by the Lemma 2 speedup proof — ablation only.
	ExactEDF
	// DMRta admits a task if the whole processor remains schedulable under
	// preemptive deadline-monotonic fixed-priority scheduling per exact
	// response-time analysis. The shared processor then runs DM instead of
	// EDF at run time — the E16 ablation. Incomparable with ApproxDBF,
	// dominated by ExactEDF (EDF is uniprocessor-optimal).
	DMRta
)

// String names the admission test.
func (a AdmissionTest) String() string {
	switch a {
	case ApproxDBF:
		return "dbf-approx"
	case ExactEDF:
		return "edf-exact"
	case DMRta:
		return "dm-rta"
	default:
		return fmt.Sprintf("AdmissionTest(%d)", int(a))
	}
}

// Options configures Partition. The zero value is the paper's algorithm:
// first-fit with the DBF* test.
type Options struct {
	Heuristic Heuristic
	Test      AdmissionTest
	// Trace, when non-nil, receives one "place" child span per candidate
	// (in the non-decreasing-deadline offer order) with one "fit" span per
	// processor probed, carrying the DBF* admission inequalities. Nil — the
	// default, and every untraced caller — skips all trace work, including
	// the extra inequality evaluation.
	Trace *obs.Span
}

// Result is a successful partition: Assignment[k] lists the indices (into
// the input system) of the tasks placed on shared processor k.
type Result struct {
	Assignment [][]int
}

// Tasks returns the sporadic tasks on processor k, given the original system.
func (r *Result) Tasks(sys task.System, k int) []task.Sporadic {
	out := make([]task.Sporadic, 0, len(r.Assignment[k]))
	for _, i := range r.Assignment[k] {
		out = append(out, sys[i].AsSporadic())
	}
	return out
}

// FailureError reports which task could not be placed.
type FailureError struct {
	TaskIndex int
	TaskName  string
	M         int
}

func (e *FailureError) Error() string {
	return fmt.Sprintf("partition: task %d (%q) does not fit on any of %d processors", e.TaskIndex, e.TaskName, e.M)
}

// Partition places the low-density DAG task system sys onto m processors
// per the configured heuristic and admission test. On success it returns the
// per-processor assignment; on failure it returns a *FailureError naming the
// first task that could not be placed (paper Fig. 4, line 6: FAILURE).
//
// Per the paper, tasks are considered in order of non-decreasing relative
// deadline regardless of their order in sys; Result indices refer to sys.
func Partition(sys task.System, m int, opt Options) (*Result, error) {
	if m < 0 {
		return nil, fmt.Errorf("partition: negative processor count %d", m)
	}
	if len(sys) == 0 {
		return &Result{Assignment: make([][]int, m)}, nil
	}
	if m == 0 {
		return nil, &FailureError{TaskIndex: 0, TaskName: sys[0].Name, M: 0}
	}

	order := make([]int, len(sys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sys[order[a]].D < sys[order[b]].D })

	assigned := make([][]task.Sporadic, m)
	res := &Result{Assignment: make([][]int, m)}

	for _, idx := range order {
		cand := sys[idx].AsSporadic()
		sp := opt.Trace.Child("place").
			Str("task", sys[idx].Name).Int("index", int64(idx)).
			Int("C", int64(cand.C)).Int("D", int64(cand.D)).Int("T", int64(cand.T))
		k, ok := choose(assigned, cand, opt, sp)
		if !ok {
			sp.Bool("failed", true).Finish()
			return nil, &FailureError{TaskIndex: idx, TaskName: sys[idx].Name, M: m}
		}
		sp.Int("proc", int64(k)).Finish()
		assigned[k] = append(assigned[k], cand)
		res.Assignment[k] = append(res.Assignment[k], idx)
	}
	return res, nil
}

// fitsOn is the untraced admission probe shared by Partition's choose and the
// incremental State replay: can cand join the set already assigned to one
// processor, under the configured test? For the paper's DBF* test it runs the
// allocation-free integer evaluation (dbf.FitsApproxFast), which decides the
// identical exact inequalities as dbf.FitsApprox.
func fitsOn(assigned []task.Sporadic, cand task.Sporadic, test AdmissionTest) bool {
	switch test {
	case ExactEDF:
		trial := append(append([]task.Sporadic(nil), assigned...), cand)
		return dbf.ExactFeasible(trial)
	case DMRta:
		return fp.Fits(assigned, cand)
	default:
		return dbf.FitsApproxFast(assigned, cand)
	}
}

// choose returns the processor to receive cand, per the heuristic, or false
// if no processor admits it. sp, when non-nil, receives one "fit" span per
// processor probed; for the paper's DBF* test the span carries both
// admission inequalities (via dbf.ExplainFit), which is exactly the
// evidence a Phase-2 rejection leaves behind.
func choose(assigned [][]task.Sporadic, cand task.Sporadic, opt Options, sp *obs.Span) (int, bool) {
	fits := func(k int) bool {
		if sp == nil {
			return fitsOn(assigned[k], cand, opt.Test)
		}
		fit := sp.Child("fit").Int("proc", int64(k)).Str("test", opt.Test.String())
		defer fit.Finish()
		switch opt.Test {
		case ExactEDF, DMRta:
			ok := fitsOn(assigned[k], cand, opt.Test)
			fit.Bool("ok", ok)
			return ok
		default:
			rep := dbf.ExplainFit(assigned[k], cand)
			fit.Float("util", rep.Util).Bool("util_ok", rep.UtilOK).
				Float("demand", rep.Demand).Int("capacity", int64(rep.Capacity)).
				Bool("demand_ok", rep.DemandOK).Bool("ok", rep.OK())
			return rep.OK()
		}
	}
	switch opt.Heuristic {
	case BestFit, WorstFit:
		bestK, found := -1, false
		var bestSlack float64
		for k := range assigned {
			if !fits(k) {
				continue
			}
			slack := dbf.SlackApprox(assigned[k], cand)
			better := !found ||
				(opt.Heuristic == BestFit && slack < bestSlack) ||
				(opt.Heuristic == WorstFit && slack > bestSlack)
			if better {
				bestK, bestSlack, found = k, slack, true
			}
		}
		return bestK, found
	default: // FirstFit
		for k := range assigned {
			if fits(k) {
				return k, true
			}
		}
		return -1, false
	}
}

// Verify checks that a Result is actually EDF-schedulable processor by
// processor under the exact test, and that every task is assigned exactly
// once. It is the independent auditor used by tests and experiments.
func Verify(sys task.System, m int, res *Result) error {
	if len(res.Assignment) != m {
		return fmt.Errorf("partition: result covers %d processors, want %d", len(res.Assignment), m)
	}
	seen := make([]bool, len(sys))
	for k := range res.Assignment {
		for _, i := range res.Assignment[k] {
			if i < 0 || i >= len(sys) {
				return fmt.Errorf("partition: index %d out of range", i)
			}
			if seen[i] {
				return fmt.Errorf("partition: task %d assigned twice", i)
			}
			seen[i] = true
		}
		// Only now are the indices known to be in range for Tasks.
		set := res.Tasks(sys, k)
		if !dbf.ExactFeasible(set) {
			return fmt.Errorf("partition: processor %d not EDF-schedulable: %v", k, set)
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: task %d unassigned", i)
		}
	}
	return nil
}

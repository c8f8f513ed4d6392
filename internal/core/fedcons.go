// Package core implements Algorithm FEDCONS (paper Fig. 2), the federated
// scheduling algorithm for constrained-deadline sporadic DAG task systems,
// together with its procedure MINPROCS (Fig. 3).
//
// FEDCONS(τ, m) runs in two phases:
//
//  1. Every high-density task τ_i (δ_i ≥ 1) is assigned the minimum number of
//     dedicated processors m_i on which Graham's List Scheduling produces a
//     template schedule σ_i with makespan ≤ D_i (procedure MINPROCS). The
//     template is retained: at run time, dag-jobs of τ_i are dispatched by
//     table lookup from σ_i, never by re-running LS (footnote 2: LS timing
//     anomalies). If the high-density tasks exhaust the platform, FAILURE.
//  2. The remaining low-density tasks are partitioned onto the remaining
//     processors by the Baruah–Fisher first-fit algorithm (package
//     partition); each shared processor runs preemptive uniprocessor EDF.
//
// Theorem 1: if an optimal federated scheduler can schedule τ on m speed-x
// processors, FEDCONS schedules τ on m speed-(3 − 1/m)·x processors.
package core

import (
	"errors"
	"fmt"

	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// Time is re-exported for convenience.
type Time = task.Time

// MinprocsMode selects how the per-task processor count of a high-density
// task is determined.
type MinprocsMode int

const (
	// LSScan is the paper's Fig. 3: try μ = ⌈δ_i⌉, ⌈δ_i⌉+1, …, m_r and
	// return the first μ for which the LS makespan is ≤ D_i. A linear scan
	// is required because LS makespan is not monotone in μ (Graham
	// anomalies); see the E9 experiment.
	LSScan MinprocsMode = iota
	// Analytic uses the closed form μ = ⌈(vol−len)/(D−len)⌉ derived from
	// Graham's bound (the constrained-deadline analogue of the Li et al.
	// assignment). Never smaller-capacity than needed, but may allocate
	// more processors than LSScan finds necessary — the E7 ablation.
	Analytic
)

// String names the mode.
func (m MinprocsMode) String() string {
	switch m {
	case LSScan:
		return "ls-scan"
	case Analytic:
		return "analytic"
	default:
		return fmt.Sprintf("MinprocsMode(%d)", int(m))
	}
}

// Options configures FEDCONS. The zero value is the paper's algorithm:
// MINPROCS by LS scan with insertion-order lists, first-fit DBF* partition.
type Options struct {
	// Minprocs selects the phase-1 sizing rule.
	Minprocs MinprocsMode
	// Priority is the LS list order (nil = insertion order).
	Priority listsched.Priority
	// Partition configures the phase-2 partitioner.
	Partition partition.Options
	// Trace, when non-nil, records the complete decision trace of a
	// Schedule call: per-task density classification, every μ candidate
	// MINPROCS tried with its LS makespan against the Lemma-1 bound, and
	// every Phase-2 fit probe with its DBF* inequality. The nil default
	// (obs.Noop) costs only pointer tests — the overhead guard in
	// trace_test.go pins that it allocates nothing extra.
	Trace *obs.Recorder
	// Par bounds the Phase-1 worker pool: when > 1, the MINPROCS list-
	// scheduling scans of the high-density tasks are precomputed across
	// min(Par, #high-density) goroutines before the (sequential) merge loop
	// runs. Because listsched.Run is a pure function of (G, μ, priority),
	// precomputing it never changes what the merge loop observes, so every
	// output — verdict, allocation, decision trace — is byte-identical at
	// any Par value; the differential matrix in parallel_test.go pins this.
	// 0 and 1 both mean fully sequential; negative values are rejected.
	Par int
	// Policy selects the admission strategy: "" (or "fedcons") runs the
	// paper's strict algorithm above; "semi", "reservation" and "typed"
	// select the other rows of the policy table (policy.go).
	Policy string
	// MTypes gives the per-type processor budgets of a heterogeneous
	// platform (MTypes[s] processors of type s, Σ MTypes = m) for the
	// "typed" policy. Empty means all m processors are the default type 0;
	// policies other than "typed" ignore it.
	MTypes []int
}

// HighAssignment is the phase-1 outcome for one high-density task.
type HighAssignment struct {
	// TaskIndex is the index of the task in the input system.
	TaskIndex int
	// Procs are the global processor ids granted exclusively to the task.
	Procs []int
	// Template is the schedule σ_i of one dag-job on len(Procs) processors;
	// Template processor p corresponds to global processor Procs[p].
	Template *listsched.Schedule
}

// Allocation is a successful FEDCONS run: a complete static mapping of the
// task system onto the platform.
type Allocation struct {
	// M is the platform size.
	M int
	// High holds one entry per high-density task, in input order.
	High []HighAssignment
	// SharedProcs are the global ids of the processors left to phase 2.
	SharedProcs []int
	// LowIndices are the input indices of the low-density tasks, in input
	// order; Low partition entries refer to positions in this slice.
	LowIndices []int
	// Low is the partition over SharedProcs: Low.Assignment[k] lists
	// positions placed on SharedProcs[k]. For the strict shape positions
	// index LowIndices; for a split shape (Policy non-empty) positions
	// < len(Servers) are servers and later positions index
	// LowIndices[pos−len(Servers)] (see PartitionSystem).
	Low *partition.Result

	// Policy tags the allocation's shape: "" is the strict FEDCONS shape
	// above; "semi" or "reservation" mark a split shape whose high-density
	// tasks are served by dedicated processors plus the reservation servers
	// in Servers. Verify dispatches on this tag. omitempty keeps the strict
	// JSON encoding byte-identical to the pre-policy format.
	Policy string `json:",omitempty"`
	// Servers are the reservation servers of a split-shape allocation,
	// placed by the Phase-2 partitioner ahead of the low-density tasks.
	Servers []ServerSpec `json:",omitempty"`
	// MTypes records the per-type processor budgets of a typed-shape
	// allocation (Policy "typed"): type s owns the global processor ids
	// [Σ_{t<s} MTypes[t], Σ_{t≤s} MTypes[t]). omitempty keeps every other
	// shape's JSON byte-identical to the pre-typed format.
	MTypes []int `json:",omitempty"`
}

// TasksOnShared returns the input-system indices assigned to shared
// processor k (an index into SharedProcs). On a split-shape allocation a
// server position maps to its owner's input index, so a high-density task
// appears once per server it has on the processor.
func (a *Allocation) TasksOnShared(k int) []int {
	out := make([]int, 0, len(a.Low.Assignment[k]))
	for _, pos := range a.Low.Assignment[k] {
		out = append(out, a.inputIndex(pos))
	}
	return out
}

// inputIndex maps a Phase-2 input position (servers first, then low-density
// tasks; see PartitionSystem) to its input-system index, or -1 past the end.
func (a *Allocation) inputIndex(pos int) int {
	if pos < len(a.Servers) {
		return a.Servers[pos].TaskIndex
	}
	if rest := pos - len(a.Servers); rest < len(a.LowIndices) {
		return a.LowIndices[rest]
	}
	return -1
}

// ProcessorsUsed returns how many processors are dedicated to high-density
// tasks and how many are shared.
func (a *Allocation) ProcessorsUsed() (dedicated, shared int) {
	for _, h := range a.High {
		dedicated += len(h.Procs)
	}
	return dedicated, len(a.SharedProcs)
}

// FailurePhase identifies where FEDCONS gave up.
type FailurePhase int

const (
	// PhaseHighDensity: MINPROCS needed more processors than remained
	// (Fig. 2 line 4), or a high-density task cannot meet its deadline on
	// any number of processors (len_i > D_i).
	PhaseHighDensity FailurePhase = iota
	// PhaseLowDensity: PARTITION returned FAILURE (Fig. 2 line 7).
	PhaseLowDensity
)

// String names the phase.
func (p FailurePhase) String() string {
	switch p {
	case PhaseHighDensity:
		return "high-density"
	case PhaseLowDensity:
		return "low-density"
	default:
		return fmt.Sprintf("FailurePhase(%d)", int(p))
	}
}

// FailureError reports an unschedulable verdict with its cause.
type FailureError struct {
	Phase     FailurePhase
	TaskIndex int    // input index of the task that could not be placed
	TaskName  string // its name
	Remaining int    // processors remaining when the failure occurred
	Err       error  // underlying error (phase 2 only)
}

func (e *FailureError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fedcons: FAILURE in %v phase: task %d (%q), %d processors remaining: %v",
			e.Phase, e.TaskIndex, e.TaskName, e.Remaining, e.Err)
	}
	return fmt.Sprintf("fedcons: FAILURE in %v phase: task %d (%q) needs more than the %d remaining processors",
		e.Phase, e.TaskIndex, e.TaskName, e.Remaining)
}

// Unwrap exposes the phase-2 cause.
func (e *FailureError) Unwrap() error { return e.Err }

// window returns the scheduling window of a dag-job on dedicated
// processors: min(D_i, T_i). For the paper's constrained-deadline setting
// this is simply D_i; using the min additionally makes the first phase
// sound for arbitrary-deadline tasks (D_i > T_i), where the template must
// also vacate the processor group before the next dag-job can arrive —
// the conservative handling of the extension the paper poses as future
// work (Section V).
func window(tk *task.DAGTask) Time {
	if tk.T < tk.D {
		return tk.T
	}
	return tk.D
}

// lsRunner produces the LS schedule of one task's DAG on mu processors. The
// sequential path runs listsched.Run live; the parallel engine substitutes a
// memo populated by the Phase-1 worker pool (see phase1Prefetch). Since
// listsched.Run is a pure deterministic function of (G, mu, priority), the
// substitution is observationally invisible.
type lsRunner func(mu int) (*listsched.Schedule, error)

// liveRunner is the default lsRunner: run list scheduling on demand.
func liveRunner(tk *task.DAGTask, prio listsched.Priority) lsRunner {
	return func(mu int) (*listsched.Schedule, error) {
		return listsched.Run(tk.G, mu, prio)
	}
}

// scanStart returns the first μ candidate of the Fig. 3 scan: max(⌈δ_i⌉, 1).
func scanStart(tk *task.DAGTask) int {
	start := ceilDensity(tk)
	if start < 1 {
		start = 1
	}
	return start
}

// Minprocs implements procedure MINPROCS(τ_i, m_r) of Fig. 3: the smallest
// μ ∈ [⌈δ_i⌉, mr] for which LS schedules G_i with makespan ≤ min(D_i, T_i),
// together with the witness schedule. For constrained deadlines the bound is
// exactly the paper's D_i; see window for the arbitrary-deadline case. ok is
// false when no such μ exists (the paper's ∞ return). prio selects the LS
// list order (nil = insertion order).
func Minprocs(tk *task.DAGTask, mr int, prio listsched.Priority) (mu int, tmpl *listsched.Schedule, ok bool) {
	return MinprocsTrace(tk, mr, prio, nil)
}

// MinprocsTrace is Minprocs with an optional decision-trace span: when sp is
// non-nil it records the scan window (scan_start, cap, limit, remaining)
// and one "mu" child per candidate tried, carrying the LS makespan and the
// Lemma-1 bound len + (vol − len)/μ. A nil sp skips every trace computation.
func MinprocsTrace(tk *task.DAGTask, mr int, prio listsched.Priority, sp *obs.Span) (mu int, tmpl *listsched.Schedule, ok bool) {
	return minprocsTrace(tk, mr, sp, liveRunner(tk, prio))
}

// scanCap returns the μ at which the Fig. 3 scan of a task with
// len ≤ min(D,T) is certain to have succeeded: min(|V|, μ_A), where μ_A is
// analyticMu's closed form. By Lemma 1 LS meets the window on μ_A
// processors, and on |V| processors no job ever waits, so the makespan is
// len. The first successful μ therefore never lies past the cap, and a scan
// stopped there returns the same μ and template as an uncapped one. When
// analyticMu has no slack to work with (len == D), the cap is |V| alone.
func scanCap(tk *task.DAGTask) int {
	n := tk.G.N()
	if mu, reason := analyticMu(tk); reason == "" && mu < n {
		return mu
	}
	return n
}

// minprocsTrace is the scan body behind MinprocsTrace, with list scheduling
// abstracted behind ls so the parallel engine can replay precomputed runs.
func minprocsTrace(tk *task.DAGTask, mr int, sp *obs.Span, ls lsRunner) (mu int, tmpl *listsched.Schedule, ok bool) {
	d := window(tk)
	if tk.Len() > d {
		sp.Str("reason", "critical-path-exceeds-window")
		return 0, nil, false // no processor count can beat the critical path
	}
	start, c := scanStart(tk), scanCap(tk)
	limit := min(mr, c)
	if sp != nil {
		sp.Int("scan_start", int64(start)).Int("cap", int64(c)).
			Int("limit", int64(limit)).Int("remaining", int64(mr))
	}
	for mu = start; mu <= limit; mu++ {
		s, err := ls(mu)
		if err != nil {
			return 0, nil, false
		}
		if sp != nil {
			sp.Child("mu").Int("mu", int64(mu)).Int("makespan", int64(s.Makespan)).
				Float("lemma1_bound", listsched.GrahamBound(tk.G, mu)).
				Bool("ok", s.Makespan <= d).Finish()
		}
		if s.Makespan <= d {
			return mu, s, true
		}
	}
	sp.Str("reason", "scan-exhausted")
	return 0, nil, false
}

// MinprocsAnalytic sizes a high-density task by Graham's bound instead of
// searching: the smallest μ with len + (vol − len)/μ ≤ D (where D is the
// min(D_i, T_i) window), i.e. μ = ⌈(vol − len)/(D − len)⌉ (and 1 when
// vol ≤ D). The witness schedule is still built with LS, whose bound
// guarantees the deadline. ok is false when len_i > D, or len_i == D with
// parallel slack remaining, or μ exceeds mr.
func MinprocsAnalytic(tk *task.DAGTask, mr int, prio listsched.Priority) (mu int, tmpl *listsched.Schedule, ok bool) {
	return MinprocsAnalyticTrace(tk, mr, prio, nil)
}

// MinprocsAnalyticTrace is MinprocsAnalytic with an optional decision-trace
// span; the single closed-form candidate is recorded as one "mu" child,
// mirroring the LS-scan trace shape.
func MinprocsAnalyticTrace(tk *task.DAGTask, mr int, prio listsched.Priority, sp *obs.Span) (mu int, tmpl *listsched.Schedule, ok bool) {
	return minprocsAnalyticTrace(tk, mr, sp, liveRunner(tk, prio))
}

// analyticMu returns the closed-form Graham-bound processor count for tk, or
// an infeasibility reason (the span attribute value MinprocsAnalyticTrace
// records) when the bound cannot certify any count.
func analyticMu(tk *task.DAGTask) (mu int, reason string) {
	vol, l, d := tk.Volume(), tk.Len(), window(tk)
	switch {
	case l > d:
		return 0, "critical-path-exceeds-window"
	case vol <= d:
		mu = 1
	case l == d:
		return 0, "no-slack-for-graham-bound" // bound needs (vol−len)/(D−len) with D > len
	default:
		mu = int((vol - l + (d - l) - 1) / (d - l))
	}
	if mu < 1 {
		mu = 1
	}
	return mu, ""
}

// minprocsAnalyticTrace is the body behind MinprocsAnalyticTrace, with list
// scheduling abstracted behind ls (see minprocsTrace).
func minprocsAnalyticTrace(tk *task.DAGTask, mr int, sp *obs.Span, ls lsRunner) (mu int, tmpl *listsched.Schedule, ok bool) {
	mu, reason := analyticMu(tk)
	if reason != "" {
		sp.Str("reason", reason)
		return 0, nil, false
	}
	d := window(tk)
	if sp != nil {
		sp.Int("remaining", int64(mr))
	}
	if mu > mr {
		sp.Str("reason", "analytic-mu-exceeds-remaining")
		return 0, nil, false
	}
	s, err := ls(mu)
	if err != nil || s.Makespan > d {
		// Graham's bound makes the deadline certain; reaching here would
		// mean a bug in LS, so surface it as infeasible rather than panic.
		return 0, nil, false
	}
	if sp != nil {
		sp.Child("mu").Int("mu", int64(mu)).Int("makespan", int64(s.Makespan)).
			Float("lemma1_bound", listsched.GrahamBound(tk.G, mu)).
			Bool("ok", true).Finish()
	}
	return mu, s, true
}

// ceilDensity returns ⌈δ_i⌉ = ⌈vol / min(D,T)⌉ in exact integer arithmetic.
func ceilDensity(tk *task.DAGTask) int {
	den := tk.D
	if tk.T < den {
		den = tk.T
	}
	return int((tk.Volume() + den - 1) / den)
}

// Schedule runs the configured admission policy on (τ, m): the paper's
// strict FEDCONS when opt.Policy is "" or "fedcons", otherwise the policy
// of that name in the policy table (see ScheduleWith). On success it
// returns the allocation; on failure, an error — a *FailureError describing
// the phase and task responsible when the analysis decided.
func Schedule(sys task.System, m int, opt Options) (*Allocation, error) {
	return ScheduleWith(sys, m, opt, minprocsSizer)
}

// Grant is the Phase-1 share of one high-density task: Procs dedicated
// processors (run from Template on the strict shape) plus Servers
// reservation servers of Budget each.
type Grant struct {
	Procs    int
	Template *listsched.Schedule
	Servers  int
	Budget   Time
}

// SizeFunc is the per-task step of the two-phase driver: it sizes the
// high-density task tk (input index i) with mr processors remaining, records
// its decisions on sp (nil when untraced), and reports false — a Phase-1
// FAILURE — when no grant of at most mr dedicated processors exists.
type SizeFunc func(i int, tk *task.DAGTask, mr int, sp *obs.Span) (Grant, bool)

// Sizer builds the strict shape's SizeFunc for one validated Schedule call,
// so it can precompute the whole system's Phase 1 first: core's LS prefetch
// (Options.Par) or a memoizing caller's own pool.
type Sizer func(sys task.System, opt Options) SizeFunc

// minprocsSizer is the paper's Phase-1 step: MINPROCS (Fig. 3), or its
// analytic variant, bounded by m_r. With Par > 1 the LS scans are
// precomputed on a worker pool and replayed here in input order, so every
// decision — and every trace byte — is made by the sequential code.
func minprocsSizer(sys task.System, opt Options) SizeFunc {
	memos := phase1Prefetch(sys, opt)
	minprocs := minprocsTrace
	if opt.Minprocs == Analytic {
		minprocs = minprocsAnalyticTrace
	}
	return func(i int, tk *task.DAGTask, mr int, sp *obs.Span) (Grant, bool) {
		var ls lsRunner
		if memos != nil {
			ls = memos[i]
		}
		if ls == nil {
			ls = liveRunner(tk, opt.Priority)
		}
		mu, tmpl, ok := minprocs(tk, mr, sp, ls)
		if ok {
			sp.Int("mu", int64(mu))
		}
		return Grant{Procs: mu, Template: tmpl}, ok
	}
}

// twoPhase is the two-phase loop of FEDCONS (Fig. 2) for every strict or
// split allocation shape; the caller has validated the input. Phase 1 walks
// the tasks in input order, sizes each high-density one with size and
// numbers its dedicated processors consecutively; Phase 2 partitions the
// servers and low-density tasks (PartitionSystem) onto the processors left.
// policy tags the allocation ("" is strict) and span names the root trace
// span. A rejection is a *FailureError naming the task's input index.
func twoPhase(sys task.System, m int, opt Options, policy, span string, size SizeFunc) (*Allocation, error) {
	alloc := &Allocation{M: m, Policy: policy}
	nextProc := 0 // processors [0, nextProc) are spoken for
	mr := m       // m_r: remaining processors (Fig. 2 line 1)

	root := opt.Trace.Start(span)
	if root != nil {
		root.Int("m", int64(m)).Int("tasks", int64(len(sys)))
		if policy == "" {
			root.Str("minprocs", opt.Minprocs.String())
		}
	}

	// Phase 1: size and place each high-density task (Fig. 2 lines 2–6).
	phase1 := root.Child("phase1")
	for i, tk := range sys {
		var tsp *obs.Span
		if phase1 != nil {
			vol, l, d := tk.Volume(), tk.Len(), window(tk)
			tsp = phase1.Child("task").Str("task", tk.Name).Int("index", int64(i)).
				Int("vol", int64(vol)).Int("len", int64(l)).Int("window", int64(d)).
				Float("density", float64(vol)/float64(d)).Bool("high", tk.HighDensity())
		}
		if !tk.HighDensity() {
			tsp.Finish()
			alloc.LowIndices = append(alloc.LowIndices, i)
			continue
		}
		g, ok := size(i, tk, mr, tsp)
		if !ok {
			tsp.Bool("failed", true).Finish()
			phase1.Finish()
			root.Bool("schedulable", false).Str("phase", PhaseHighDensity.String()).Finish()
			return nil, &FailureError{Phase: PhaseHighDensity, TaskIndex: i, TaskName: tk.Name, Remaining: mr}
		}
		tsp.Finish()
		if g.Procs > 0 {
			procs := make([]int, g.Procs)
			for p := range procs {
				procs[p] = nextProc
				nextProc++
			}
			alloc.High = append(alloc.High, HighAssignment{TaskIndex: i, Procs: procs, Template: g.Template})
			mr -= g.Procs
		}
		for j := 0; j < g.Servers; j++ {
			alloc.Servers = append(alloc.Servers, ServerSpec{TaskIndex: i, Budget: g.Budget})
		}
	}
	phase1.Int("dedicated", int64(nextProc)).Int("remaining", int64(mr)).Finish()

	// Phase 2: partition the servers and low-density tasks (Fig. 2 line 7).
	for p := 0; p < mr; p++ {
		alloc.SharedProcs = append(alloc.SharedProcs, nextProc+p)
	}
	input, err := PartitionSystem(sys, alloc)
	if err != nil {
		root.Bool("schedulable", false).Finish()
		return nil, err
	}
	phase2 := root.Child("phase2")
	if phase2 != nil {
		phase2.Int("procs", int64(mr))
		if policy != "" {
			phase2.Int("servers", int64(len(alloc.Servers)))
		}
		phase2.Int("low", int64(len(alloc.LowIndices))).
			Str("heuristic", opt.Partition.Heuristic.String()).
			Str("test", opt.Partition.Test.String())
	}
	popt := opt.Partition
	popt.Trace = phase2
	res, err := partition.Partition(input, mr, popt)
	if err != nil {
		fe := &FailureError{Phase: PhaseLowDensity, Remaining: mr, Err: err}
		var pf *partition.FailureError
		if errors.As(err, &pf) {
			fe.TaskIndex = alloc.inputIndex(pf.TaskIndex)
			fe.TaskName = pf.TaskName
		}
		phase2.Bool("failed", true).Finish()
		root.Bool("schedulable", false).Str("phase", PhaseLowDensity.String()).Finish()
		return nil, fe
	}
	phase2.Finish()
	root.Bool("schedulable", true).Finish()
	alloc.Low = res
	return alloc, nil
}

// Schedulable is the boolean view of Schedule, for experiment harnesses.
func Schedulable(sys task.System, m int, opt Options) bool {
	_, err := Schedule(sys, m, opt)
	return err == nil
}

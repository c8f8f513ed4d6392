// Package listsched implements Graham's List Scheduling (LS) algorithm for
// precedence-constrained jobs on m identical processors, as used by the
// paper's MINPROCS procedure (Fig. 3) to construct the template schedule σ_i
// of a high-density task's dag-job.
//
// LS constructs a work-conserving schedule: whenever a processor is idle and
// a job is available (all predecessors complete), some available job starts
// on it immediately. Ties are broken by a caller-chosen priority order (the
// "list"). Graham's bound guarantees the resulting makespan satisfies
//
//	makespan ≤ len(G) + (vol(G) − len(G)) / m,
//
// which is within a factor (2 − 1/m) of the optimal makespan — the speedup of
// Lemma 1 in the paper.
//
// The schedule produced is a fixed table of (job, processor, start, end)
// entries. Footnote 2 of the paper explains why the table — and not a re-run
// of LS — must drive the run-time dispatcher: LS is subject to Graham's
// timing anomalies (reducing a job's execution time can increase the
// makespan), so jobs completing early must leave their processor idle until
// the next tabulated start time. Package sim implements that replay.
package listsched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"fedsched/internal/dag"
)

// Time is re-exported for convenience.
type Time = dag.Time

// Interval is one scheduled job: job runs on processor Proc during
// [Start, End), with End − Start equal to the job's WCET.
type Interval struct {
	Job   int
	Proc  int
	Start Time
	End   Time
}

// Schedule is a complete non-preemptive schedule of one dag-job on M
// processors. Intervals is indexed by job (vertex) id.
//
// MTypes, set only by RunTyped, records the per-type processor budgets of a
// typed schedule (Σ MTypes = M) under the type-major local numbering of
// TypedProcBase. It is omitted from JSON when absent, so schedules produced
// by Run keep their pre-typed wire bytes.
type Schedule struct {
	M         int
	MTypes    []int `json:",omitempty"`
	Intervals []Interval
	Makespan  Time
}

// ByProcessor groups the schedule's intervals per processor, each sorted by
// start time. Useful for rendering and for the run-time replay.
func (s *Schedule) ByProcessor() [][]Interval {
	out := make([][]Interval, s.M)
	for _, iv := range s.Intervals {
		out[iv.Proc] = append(out[iv.Proc], iv)
	}
	for p := range out {
		sort.Slice(out[p], func(i, j int) bool { return out[p][i].Start < out[p][j].Start })
	}
	return out
}

// Validate checks that the schedule is a correct execution of g: every job
// scheduled exactly once for exactly its WCET, processors never double-
// booked, every precedence constraint respected, and Makespan consistent.
func (s *Schedule) Validate(g *dag.DAG) error {
	if len(s.Intervals) != g.N() {
		return fmt.Errorf("listsched: %d intervals for %d jobs", len(s.Intervals), g.N())
	}
	var makespan Time
	for j, iv := range s.Intervals {
		if iv.Job != j {
			return fmt.Errorf("listsched: interval %d records job %d", j, iv.Job)
		}
		if iv.Proc < 0 || iv.Proc >= s.M {
			return fmt.Errorf("listsched: job %d on processor %d of %d", j, iv.Proc, s.M)
		}
		if iv.End-iv.Start != g.WCET(j) {
			return fmt.Errorf("listsched: job %d runs %d ticks, WCET %d", j, iv.End-iv.Start, g.WCET(j))
		}
		if iv.Start < 0 {
			return fmt.Errorf("listsched: job %d starts at %d", j, iv.Start)
		}
		if iv.End > makespan {
			makespan = iv.End
		}
	}
	if makespan != s.Makespan {
		return fmt.Errorf("listsched: recorded makespan %d, actual %d", s.Makespan, makespan)
	}
	// One sorted copy stands in for ByProcessor: each processor's intervals,
	// lowest processor first, by start and then by job (the order a stable
	// sort of the job-indexed Intervals gives).
	byProc := slices.Clone(s.Intervals)
	slices.SortFunc(byProc, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Start, b.Start), cmp.Compare(a.Job, b.Job))
	})
	for i := 1; i < len(byProc); i++ {
		if prev, cur := byProc[i-1], byProc[i]; cur.Proc == prev.Proc && cur.Start < prev.End {
			return fmt.Errorf("listsched: processor %d overlap: %v then %v", cur.Proc, prev, cur)
		}
	}
	for u, pred := range s.Intervals {
		for _, v := range g.Successors(u) {
			if succ := s.Intervals[v]; succ.Start < pred.End {
				return fmt.Errorf("listsched: precedence (%d→%d) violated: succ starts %d before pred ends %d",
					u, v, succ.Start, pred.End)
			}
		}
	}
	if len(s.MTypes) > 0 {
		total := 0
		for st, m := range s.MTypes {
			if m < 0 {
				return fmt.Errorf("listsched: type %d has negative budget %d", st, m)
			}
			total += m
		}
		if total != s.M {
			return fmt.Errorf("listsched: type budgets sum to %d, M=%d", total, s.M)
		}
		if g.NumTypes() > len(s.MTypes) {
			return fmt.Errorf("listsched: graph uses %d types, schedule declares %d", g.NumTypes(), len(s.MTypes))
		}
		base := TypedProcBase(s.MTypes)
		for j, iv := range s.Intervals {
			st := g.TypeOf(j)
			if iv.Proc < base[st] || iv.Proc >= base[st+1] {
				return fmt.Errorf("listsched: job %d requires type %d but runs on processor %d (type block [%d,%d))",
					j, st, iv.Proc, base[st], base[st+1])
			}
		}
	}
	return nil
}

// Priority assigns each job a priority used to order the ready list; lower
// values are dispatched first. Ties break by job index for determinism.
type Priority func(g *dag.DAG) []int64

// InsertionOrder prioritizes jobs by vertex index — the "arbitrary list" of
// Graham's original formulation.
func InsertionOrder(g *dag.DAG) []int64 {
	p := make([]int64, g.N())
	for i := range p {
		p[i] = int64(i)
	}
	return p
}

// LongestPathFirst prioritizes jobs by decreasing downward rank: the length
// of the longest chain starting at the job (inclusive). This is the
// critical-path heuristic; it keeps Graham's worst-case bound and typically
// shortens makespans.
func LongestPathFirst(g *dag.DAG) []int64 {
	n := g.N()
	rank := make([]Time, n)
	order := g.TopologicalOrder()
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best Time
		for _, w := range g.Successors(v) {
			if rank[w] > best {
				best = rank[w]
			}
		}
		rank[v] = best + g.WCET(v)
	}
	p := make([]int64, n)
	for v := 0; v < n; v++ {
		p[v] = -int64(rank[v]) // larger rank → smaller priority value → first
	}
	return p
}

// LargestWCETFirst prioritizes jobs by decreasing WCET (the LPT rule applied
// to the ready list).
func LargestWCETFirst(g *dag.DAG) []int64 {
	p := make([]int64, g.N())
	for v := range p {
		p[v] = -int64(g.WCET(v))
	}
	return p
}

// Run executes Graham's LS on g with m processors using the given priority
// (nil means InsertionOrder) and returns the constructed schedule.
// It runs in O(|V| log |V| + |E|).
func Run(g *dag.DAG, m int, prio Priority) (*Schedule, error) {
	if m < 1 {
		return nil, fmt.Errorf("listsched: m must be ≥ 1, got %d", m)
	}
	if prio == nil {
		prio = InsertionOrder
	}
	n := g.N()
	s := &Schedule{M: m, Intervals: make([]Interval, n)}
	if n == 0 {
		return s, nil
	}
	pv := prio(g)
	if len(pv) != n {
		return nil, fmt.Errorf("listsched: priority returned %d values for %d jobs", len(pv), n)
	}

	pending := make([]int, n) // unfinished predecessor count
	ready := &jobHeap{prio: pv}
	for v := 0; v < n; v++ {
		pending[v] = g.InDegree(v)
		if pending[v] == 0 {
			ready.push(v)
		}
	}

	// running is a min-heap of (finish time, job, proc).
	running := &runHeap{}
	freeProcs := make([]int, m) // stack of idle processor ids
	for p := 0; p < m; p++ {
		freeProcs[p] = m - 1 - p // pop order 0,1,2,... for determinism
	}

	now := Time(0)
	scheduled := 0
	for scheduled < n || running.len() > 0 {
		// Dispatch: fill free processors from the ready heap.
		for len(freeProcs) > 0 && ready.len() > 0 {
			v := ready.pop()
			p := freeProcs[len(freeProcs)-1]
			freeProcs = freeProcs[:len(freeProcs)-1]
			end := now + g.WCET(v)
			s.Intervals[v] = Interval{Job: v, Proc: p, Start: now, End: end}
			running.push(runEntry{finish: end, job: v, proc: p})
			scheduled++
		}
		if running.len() == 0 {
			// No job running and nothing ready ⇒ the graph had a cycle;
			// DAG invariant makes this unreachable.
			return nil, fmt.Errorf("listsched: stalled with %d/%d jobs scheduled", scheduled, n)
		}
		// Advance to the next completion; release all jobs finishing then.
		now = running.peek().finish
		for running.len() > 0 && running.peek().finish == now {
			e := running.pop()
			freeProcs = append(freeProcs, e.proc)
			for _, w := range g.Successors(e.job) {
				pending[w]--
				if pending[w] == 0 {
					ready.push(w)
				}
			}
		}
		if now > s.Makespan {
			s.Makespan = now
		}
	}
	return s, nil
}

// MakespanLowerBound returns the trivial lower bound on the optimal makespan
// of g on m processors: max(len(G), ⌈vol(G)/m⌉).
func MakespanLowerBound(g *dag.DAG, m int) Time {
	vol, l := g.Volume(), g.LongestChain()
	per := (vol + Time(m) - 1) / Time(m)
	if l > per {
		return l
	}
	return per
}

// GrahamBound returns Graham's upper bound on the LS makespan of g on m
// processors: len(G) + (vol(G) − len(G))/m, as an exact real value reported
// in 1/m-ticks — the caller compares makespan·m ≤ GrahamBoundScaled.
func GrahamBoundScaled(g *dag.DAG, m int) Time {
	vol, l := g.Volume(), g.LongestChain()
	return l*Time(m) + (vol - l)
}

// GrahamBound returns Graham's bound len + (vol − len)/m as a float64, the
// human-facing rendering used by decision traces and `fedsched -explain`
// (the exact comparisons use GrahamBoundScaled).
func GrahamBound(g *dag.DAG, m int) float64 {
	vol, l := g.Volume(), g.LongestChain()
	return float64(l) + float64(vol-l)/float64(m)
}

// WithinGrahamBound reports whether the schedule's makespan respects
// Graham's bound for graph g (it always must; exposed for tests and the E3
// experiment).
func WithinGrahamBound(s *Schedule, g *dag.DAG) bool {
	return s.Makespan*Time(s.M) <= GrahamBoundScaled(g, s.M)
}

// jobHeap is a min-heap of jobs ordered by (priority, id).
type jobHeap struct {
	prio []int64
	a    []int
}

func (h *jobHeap) len() int { return len(h.a) }

func (h *jobHeap) less(x, y int) bool {
	if h.prio[x] != h.prio[y] {
		return h.prio[x] < h.prio[y]
	}
	return x < y
}

func (h *jobHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *jobHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < last && h.less(h.a[l], h.a[s]) {
			s = l
		}
		if r < last && h.less(h.a[r], h.a[s]) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

type runEntry struct {
	finish Time
	job    int
	proc   int
}

// runHeap is a min-heap of running jobs by (finish, job).
type runHeap struct{ a []runEntry }

func (h *runHeap) len() int       { return len(h.a) }
func (h *runHeap) peek() runEntry { return h.a[0] }
func (h *runHeap) less(x, y int) bool {
	if h.a[x].finish != h.a[y].finish {
		return h.a[x].finish < h.a[y].finish
	}
	return h.a[x].job < h.a[y].job
}

func (h *runHeap) push(e runEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *runHeap) pop() runEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < last && h.less(l, s) {
			s = l
		}
		if r < last && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

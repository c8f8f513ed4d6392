package sim

import (
	"math/rand"

	"fedsched/internal/fp"
	"fedsched/internal/task"
	"fedsched/internal/trace"
)

// upJob is one dag-job collapsed to a sequential job on a shared processor.
type upJob struct {
	taskIdx   int  // index into the processor's task group
	inst      int  // dag-job instance number within its task
	seq       int  // global admission order, for deterministic tie-breaking
	key       Time // scheduling priority: absolute deadline (EDF) or DM rank
	release   Time
	deadline  Time // absolute
	remaining Time
}

// uniprocEDF simulates the preemptive uniprocessor scheduler of one shared
// processor: EDF (the paper's choice) or deadline-monotonic fixed priority,
// per cfg.Shared. Intra-task structure is irrelevant on a single processor
// (Section IV-B): each dag-job executes its vertices sequentially, so only
// the total actual execution time matters. rngFor returns the deterministic
// per-task random source.
//
// When rec is non-nil, every execution slice and job is recorded (with task
// ids taken from taskIDs and the given processor id) for auditing by package
// trace.
//
// On one processor at most one completion event is outstanding, so the event
// calendar (see calendar.go) degenerates to a two-way minimum between the
// running job's completion and the head of the sorted release lane; the only
// other state is the ready heap. The loop touches an instant only when a job
// is dispatched, preempted, or completed — non-preempting releases are
// batched into the ready heap without interrupting the running job, which is
// where the asymptotic win over the reference engine comes from.
func uniprocEDF(group task.System, cfg Config, rngFor func(j int) *rand.Rand, rec *trace.Recorder, proc int, taskIDs []int) []TaskStats {
	stats := make([]TaskStats, len(group))
	// Fixed-priority rank per task (used when cfg.Shared == DMPolicy).
	rank := make([]Time, len(group))
	if cfg.Shared == DMPolicy {
		sps := make([]task.Sporadic, len(group))
		for i, tk := range group {
			sps[i] = tk.AsSporadic()
		}
		for r, i := range fp.DMOrder(sps) {
			rank[i] = Time(r)
		}
	}
	jobID := func(j *upJob) trace.JobID {
		id := trace.JobID{Task: j.taskIdx, Inst: j.inst}
		if taskIDs != nil {
			id.Task = taskIDs[j.taskIdx]
		}
		return id
	}

	// Generate all jobs up front, one release-sorted list per task. Draw
	// order per task — all sporadic gaps, then execution times in (instance,
	// vertex) order — matches the reference engine so both consume identical
	// random streams. Under full WCET the per-vertex sum is the (memoized)
	// DAG volume: no draws, no vertex scan.
	perTask := make([][]upJob, len(group))
	for j, tk := range group {
		rng := rngFor(j)
		var vol Time
		if cfg.Exec == FullWCET {
			vol = tk.Volume()
		}
		list := make([]upJob, 0, cfg.Horizon/tk.T+1)
		_ = forEachArrival(tk, cfg, rng, func(inst int, rel Time) error {
			exec := vol
			if cfg.Exec != FullWCET {
				exec = 0
				for v := 0; v < tk.G.N(); v++ {
					exec += execTime(tk.G.WCET(v), cfg, rng)
				}
			}
			jb := upJob{
				taskIdx:   j,
				inst:      inst,
				release:   rel,
				deadline:  rel + tk.D,
				remaining: exec,
			}
			if cfg.Shared == DMPolicy {
				jb.key = rank[j]
			} else {
				jb.key = jb.deadline
			}
			list = append(list, jb)
			if rec != nil {
				rec.Job(trace.JobInfo{ID: jobID(&jb), Release: rel, Deadline: jb.deadline, Demand: exec})
			}
			return nil
		})
		perTask[j] = list
	}
	jobs := mergeByRelease(perTask)
	for i := range jobs {
		jobs[i].seq = i
	}

	// beats reports whether job x strictly outranks job y. Ties go to the
	// smaller seq, i.e. the earlier-released job — so an arrival with a key
	// equal to the running job's never preempts it, exactly as in the
	// reference engine.
	beats := func(x, y int) bool {
		if jobs[x].key != jobs[y].key {
			return jobs[x].key < jobs[y].key
		}
		return jobs[x].seq < jobs[y].seq
	}

	ready := &idxHeap{less: beats}
	next := 0 // head of the sorted release lane
	cur := -1 // index of the running job, -1 when the processor idles
	now := Time(0)
	var runStart Time // when cur was (re)dispatched
	for {
		if cur < 0 {
			// Dispatch: admit everything released by now, then run the top.
			for next < len(jobs) && jobs[next].release <= now {
				ready.push(next)
				next++
			}
			if ready.len() == 0 {
				if next >= len(jobs) {
					break
				}
				now = jobs[next].release // idle gap: jump to the next release
				continue
			}
			cur = ready.pop()
			runStart = now
			continue
		}
		finish := runStart + jobs[cur].remaining
		if next < len(jobs) && jobs[next].release < finish {
			// Release event fires before the completion event: admit the
			// whole batch at that instant, then run the preemption check.
			at := jobs[next].release
			for next < len(jobs) && jobs[next].release == at {
				ready.push(next)
				next++
			}
			if top := ready.peek(); beats(top, cur) {
				if rec != nil {
					rec.Run(jobID(&jobs[cur]), proc, runStart, at)
				}
				jobs[cur].remaining -= at - runStart
				ready.push(cur)
				ready.pop() // == top: it beats cur, and everything older lost to cur
				cur = top
				runStart = at
			}
			continue
		}
		// Completion event.
		if rec != nil {
			rec.Run(jobID(&jobs[cur]), proc, runStart, finish)
		}
		jb := &jobs[cur]
		stats[jb.taskIdx].Record(jb.release, finish, jb.deadline)
		now = finish
		cur = -1
	}
	return stats
}

// mergeByRelease merges per-task release-sorted job lists into one list
// ordered by release with ties broken by task index — exactly the order a
// stable sort of the concatenated lists produces (the reference engine's
// ordering) at a fraction of the cost: the lists are already sorted, so a
// k-way cursor merge does O(N log k) integer comparisons instead of
// O(N log N) reflective swaps.
func mergeByRelease(perTask [][]upJob) []upJob {
	total, nonEmpty, only := 0, 0, -1
	for j, l := range perTask {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
			only = j
		}
	}
	if nonEmpty == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return perTask[only]
	}
	out := make([]upJob, 0, total)
	pos := make([]int, len(perTask))
	// Min-heap of task cursors by (head release, task index).
	cmp := func(a, b int) bool {
		ra, rb := perTask[a][pos[a]].release, perTask[b][pos[b]].release
		if ra != rb {
			return ra < rb
		}
		return a < b
	}
	h := &idxHeap{less: cmp}
	for j, l := range perTask {
		if len(l) > 0 {
			h.push(j)
		}
	}
	for h.len() > 0 {
		j := h.pop()
		out = append(out, perTask[j][pos[j]])
		pos[j]++
		if pos[j] < len(perTask[j]) {
			h.push(j)
		}
	}
	return out
}

// idxHeap is a min-heap over job indices with a pluggable strict order.
type idxHeap struct {
	a    []int
	less func(x, y int) bool
}

func (h *idxHeap) len() int  { return len(h.a) }
func (h *idxHeap) peek() int { return h.a[0] }

func (h *idxHeap) push(x int) {
	h.a = append(h.a, x)
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

func (h *idxHeap) pop() int {
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

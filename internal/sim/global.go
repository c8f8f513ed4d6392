package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"fedsched/internal/task"
	"fedsched/internal/trace"
)

// gJob is one vertex job of one dag-job instance under global EDF.
type gJob struct {
	taskIdx   int
	inst      int // global dag-job instance number
	vertex    int
	release   Time // dag-job release
	deadline  Time // absolute dag-job deadline (the EDF priority)
	seq       int  // deterministic tie-break
	remaining Time
	pendPreds int
	gen       uint32 // bumped when the job leaves the executing set (see calendar.go)
}

// GlobalEDF simulates vertex-level preemptive global EDF of the whole DAG
// task system on m identical processors: at every scheduling event the m
// available jobs with the earliest absolute dag-job deadlines execute (ties
// broken deterministically); jobs become available when their dag-job is
// released and all predecessor jobs have completed. Preemption and migration
// are free, as in the global-scheduling literature the paper cites ([5],
// [8], [16]).
//
// GlobalEDF is an observation tool, not a schedulability test: a miss-free
// simulation of the periodic/WCET scenario does not prove sporadic
// schedulability. Experiments use it as an empirical comparator.
func GlobalEDF(sys task.System, m int, cfg Config) (*Report, error) {
	rep, _, err := globalEDF(sys, m, cfg, nil)
	return rep, err
}

// GlobalEDFTraced is GlobalEDF plus the full execution trace, auditable with
// trace.CheckGlobalEDF. Processor ids in the trace are an arbitrary (but
// consistent) per-event assignment: global EDF migrates freely.
func GlobalEDFTraced(sys task.System, m int, cfg Config) (*Report, *trace.Trace, error) {
	rec := trace.NewRecorder(m)
	rep, _, err := globalEDF(sys, m, cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	return rep, rec.Trace(), nil
}

// globalEDF is the event-calendar engine for global EDF. The calendar holds
// one completion event per executing job (invalidated lazily through the
// generation counter when the job is preempted) plus a single outstanding
// release event for the head of the sorted release lane. The executing set
// is kept sorted by (deadline, seq) — its position is the trace processor
// id — and the invariant maintained at every event is that it holds the m
// highest-priority available jobs, exactly the set the reference engine
// re-derives from scratch each step.
func globalEDF(sys task.System, m int, cfg Config, rec *trace.Recorder) (*Report, *trace.Trace, error) {
	if m < 1 {
		return nil, nil, fmt.Errorf("sim: m must be ≥ 1, got %d", m)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rep := &Report{PerTask: make([]TaskStats, len(sys))}
	for i, tk := range sys {
		rep.PerTask[i].Name = tk.Name
	}

	// Materialize all vertex jobs of all dag-job instances. Creation order —
	// per task, per release, per vertex — fixes both the random stream and
	// the global instance numbering shared with the reference engine.
	type instance struct {
		taskIdx  int
		release  Time
		deadline Time
		done     int // completed vertices
		finish   Time
	}
	var instances []instance
	var jobsOf [][]*gJob // instance index → its vertex jobs, vertex-indexed
	perTask := make([][]*gJob, len(sys))
	needsRand := cfg.needsRand()
	for i, tk := range sys {
		var rng *rand.Rand
		if needsRand {
			rng = rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		}
		g := tk.G
		list := make([]*gJob, 0, (cfg.Horizon/tk.T+1)*Time(g.N()))
		_ = forEachArrival(tk, cfg, rng, func(_ int, rel Time) error {
			instIdx := len(instances)
			instances = append(instances, instance{taskIdx: i, release: rel, deadline: rel + tk.D})
			backing := make([]gJob, g.N())
			vjobs := make([]*gJob, g.N())
			for v := 0; v < g.N(); v++ {
				j := &backing[v]
				*j = gJob{
					taskIdx: i, inst: instIdx, vertex: v,
					release: rel, deadline: rel + tk.D,
					remaining: execTime(g.WCET(v), cfg, rng),
					pendPreds: g.InDegree(v),
				}
				list = append(list, j)
				vjobs[v] = j
				if rec != nil {
					rec.Job(trace.JobInfo{
						ID:       trace.JobID{Task: i, Inst: instIdx, Vertex: v},
						Release:  rel,
						Deadline: rel + tk.D,
						Demand:   j.remaining,
					})
				}
			}
			jobsOf = append(jobsOf, vjobs)
			return nil
		})
		perTask[i] = list
	}
	// Per-task lists are already release-sorted; merge them in the stable
	// order (release, then task index) the reference engine's stable sort
	// produces, assigning the deterministic tie-break sequence.
	all := mergeJobPtrs(perTask)
	for s, j := range all {
		j.seq = s
	}

	jobLess := func(a, b *gJob) bool {
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.seq < b.seq
	}

	avail := &gHeap{}                // available but not executing
	executing := make([]*gJob, 0, m) // sorted by (deadline, seq); index = trace proc id
	cal := &calendar{}
	next := 0 // head of the sorted release lane
	remainingJobs := len(all)
	now := Time(0)
	segStart := Time(0) // start of the current constant-schedule segment

	// closeSegment charges [segStart, t) to every executing job and emits
	// the corresponding trace slices. It must run before any mutation of the
	// executing set; at t == segStart it is a no-op, so same-instant churn
	// (a job entering and being displaced at the same event time) costs and
	// records nothing.
	closeSegment := func(t Time) {
		if t <= segStart {
			return
		}
		for p, j := range executing {
			j.remaining -= t - segStart
			if rec != nil {
				rec.Run(trace.JobID{Task: j.taskIdx, Inst: j.inst, Vertex: j.vertex}, p, segStart, t)
			}
		}
		segStart = t
	}
	enter := func(j *gJob, t Time) {
		pos := sort.Search(len(executing), func(k int) bool { return jobLess(j, executing[k]) })
		executing = append(executing, nil)
		copy(executing[pos+1:], executing[pos:])
		executing[pos] = j
		cal.push(calEvent{at: t + j.remaining, kind: evCompletion, gen: j.gen, job: j})
	}
	leave := func(pos int) *gJob {
		j := executing[pos]
		executing = append(executing[:pos], executing[pos+1:]...)
		j.gen++ // invalidate the outstanding completion event
		return j
	}
	// rebalance restores the top-m invariant after releases or completions.
	rebalance := func(t Time) {
		for avail.len() > 0 {
			if len(executing) < m {
				closeSegment(t)
				enter(avail.pop(), t)
				continue
			}
			if !jobLess(avail.peek(), executing[len(executing)-1]) {
				break
			}
			closeSegment(t)
			avail.push(leave(len(executing) - 1))
			enter(avail.pop(), t)
		}
	}
	admit := func(t Time) {
		for next < len(all) && all[next].release <= t {
			if all[next].pendPreds == 0 {
				avail.push(all[next])
			}
			next++
		}
	}

	// complete retires one executing job whose remaining has reached zero:
	// removes it, records the instance if it was the last vertex, and
	// unblocks DAG successors. By the time a predecessor completes, the
	// release lane has passed the whole instance (it executed, so it was
	// admitted), so each successor is pushed into avail here exactly once.
	complete := func(j *gJob, t Time) {
		for pos := range executing {
			if executing[pos] == j {
				leave(pos)
				break
			}
		}
		remainingJobs--
		ins := &instances[j.inst]
		ins.done++
		if t > ins.finish {
			ins.finish = t
		}
		if ins.done == len(jobsOf[j.inst]) {
			rep.PerTask[ins.taskIdx].Record(ins.release, ins.finish, ins.deadline)
		}
		for _, w := range sys[j.taskIdx].G.Successors(j.vertex) {
			sj := jobsOf[j.inst][w]
			sj.pendPreds--
			if sj.pendPreds == 0 && sj.release <= t {
				avail.push(sj)
			}
		}
	}

	if len(all) > 0 {
		cal.push(calEvent{at: all[0].release, kind: evRelease})
	}
	for remainingJobs > 0 {
		if cal.len() == 0 {
			// Jobs remain but nothing executes and no release is pending:
			// impossible for valid DAGs (some running predecessor would have
			// completed) — guarded for robustness.
			return nil, nil, fmt.Errorf("sim: global EDF stalled at t=%d with %d jobs left", now, remainingJobs)
		}
		e := cal.pop()
		switch e.kind {
		case evCompletion:
			j := e.job
			if e.gen != j.gen {
				continue // stale: the job was preempted after this was scheduled
			}
			now = e.at
			closeSegment(now) // drives j.remaining to exactly 0
			complete(j, now)
			// Drain every other completion due at this instant before
			// rebalancing: a rebalance in between could displace a job that
			// is about to complete, deferring work the reference engine
			// retires now.
			for cal.len() > 0 && cal.a[0].at == now && cal.a[0].kind == evCompletion {
				e2 := cal.pop()
				if e2.gen != e2.job.gen {
					continue
				}
				complete(e2.job, now)
			}
			rebalance(now)
		case evRelease:
			now = e.at
			admit(now)
			if next < len(all) {
				cal.push(calEvent{at: all[next].release, kind: evRelease})
			}
			rebalance(now)
		}
	}
	return rep, nil, nil
}

// mergeJobPtrs merges per-task release-sorted vertex-job lists into one
// list ordered by release with ties broken by task index — the order a
// stable sort of the concatenation produces (see mergeByRelease in edf.go).
func mergeJobPtrs(perTask [][]*gJob) []*gJob {
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
	out := make([]*gJob, 0, total)
	pos := make([]int, len(perTask))
	h := &idxHeap{less: func(a, b int) bool {
		ra, rb := perTask[a][pos[a]].release, perTask[b][pos[b]].release
		if ra != rb {
			return ra < rb
		}
		return a < b
	}}
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

// gHeap is a min-heap of jobs by (deadline, seq).
type gHeap struct{ a []*gJob }

func (h *gHeap) len() int    { return len(h.a) }
func (h *gHeap) peek() *gJob { return h.a[0] }
func (h *gHeap) less(x, y int) bool {
	if h.a[x].deadline != h.a[y].deadline {
		return h.a[x].deadline < h.a[y].deadline
	}
	return h.a[x].seq < h.a[y].seq
}

func (h *gHeap) push(j *gJob) {
	h.a = append(h.a, j)
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

func (h *gHeap) pop() *gJob {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
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

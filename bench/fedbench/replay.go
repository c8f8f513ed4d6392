package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/service"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

// pipe replays one shard's mutation pipeline — service.Shard's doAdmit,
// doRemove and doAdmitBatch, with the warm path of fastAdmit/fastRemove —
// through the same public calls the shard makes, each inside an obs span
// that is a child of the op's root span. The spans are flat, so a span's
// duration is its layer's self time; the root's own time is the glue between
// layers. The twin comparison in replay pins that every status and body this
// mirror produces is byte-identical to the shard's.
type pipe struct {
	m       int
	opt     core.Options
	cluster string
	st      *store.Store

	sys    task.System
	alloc  *core.Allocation
	hashes []string
	pstate *partition.State

	hashOf map[*task.DAGTask]core.Hash // the shard hashes each task object once
	memo   map[core.Hash][]memoEntry   // Phase-1 memo, as AnalysisCache keeps it
	cache  *service.AnalysisCache      // analyses of policies other than fedcons

	logged []store.Record // records appended during the current op
}

// memoEntry is one memoized MINPROCS outcome over an unbounded platform.
type memoEntry struct {
	tk   *task.DAGTask
	mu   int
	tmpl *listsched.Schedule
	ok   bool
}

func newPipe(w *workload, dir, cluster string) (*pipe, error) {
	opt, err := w.options()
	if err != nil {
		return nil, err
	}
	st, _, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	return &pipe{
		m: w.m, opt: opt, cluster: cluster, st: st,
		hashOf: make(map[*task.DAGTask]core.Hash),
		memo:   make(map[core.Hash][]memoEntry),
		cache:  service.NewAnalysisCache(),
	}, nil
}

func (p *pipe) hash(root *obs.Span, tk *task.DAGTask) core.Hash {
	if h, ok := p.hashOf[tk]; ok {
		return h
	}
	sp := root.Child("hash")
	h := core.TaskHash(tk)
	sp.Finish()
	p.hashOf[tk] = h
	return h
}

// phase1 is the memoized MINPROCS of one high-density task: a content-hash
// lookup and, on a miss, the DAG width that bounds the scan and the LS scan.
func (p *pipe) phase1(root *obs.Span, tk *task.DAGTask) memoEntry {
	h := p.hash(root, tk)
	sp := root.Child("memo")
	for _, e := range p.memo[h] {
		if task.SameAnalysisInput(e.tk, tk) {
			sp.Bool("hit", true).Finish()
			return e
		}
	}
	sp.Bool("hit", false).Finish()
	sp = root.Child("width")
	width := tk.G.Width()
	sp.Finish()
	sp = root.Child("minprocs")
	mu, tmpl, ok := core.Minprocs(tk, width, p.opt.Priority)
	sp.Int("ls_runs", int64(lsRuns(tk, width, mu, ok))).Finish()
	e := memoEntry{tk: tk, mu: mu, tmpl: tmpl, ok: ok}
	p.memo[h] = append(p.memo[h], e)
	return e
}

// lsRuns is how many list schedules a MINPROCS scan capped at width ran: one
// per candidate from ⌈δ⌉ to the returned μ*, or to the cap when none fit.
func lsRuns(tk *task.DAGTask, width, mu int, ok bool) int {
	if tk.Len() > core.Window(tk) {
		return 0
	}
	w := int64(core.Window(tk))
	start := int((int64(tk.Volume()) + w - 1) / w)
	if start < 1 {
		start = 1
	}
	end := width
	if ok {
		end = mu
	}
	if end < start {
		return 0
	}
	return end - start + 1
}

// schedule is the full analysis of sys. Under fedcons it mirrors
// AnalysisCache's strict FEDCONS stage by stage; any other policy runs
// AnalysisCache.Schedule inside one "analyze" span.
func (p *pipe) schedule(root *obs.Span, sys task.System) (*core.Allocation, error) {
	if p.opt.Policy != "" {
		sp := root.Child("analyze")
		defer sp.Finish()
		return p.cache.Schedule(sys, p.m, p.opt)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	alloc := &core.Allocation{M: p.m}
	next, mr := 0, p.m
	var low task.System
	for i, tk := range sys {
		if !tk.HighDensity() {
			low = append(low, tk)
			alloc.LowIndices = append(alloc.LowIndices, i)
			continue
		}
		e := p.phase1(root, tk)
		if !e.ok || e.mu > mr {
			return nil, &core.FailureError{Phase: core.PhaseHighDensity, TaskIndex: i, TaskName: tk.Name, Remaining: mr}
		}
		procs := make([]int, e.mu)
		for k := range procs {
			procs[k] = next
			next++
		}
		alloc.High = append(alloc.High, core.HighAssignment{TaskIndex: i, Procs: procs, Template: e.tmpl})
		mr -= e.mu
	}
	for k := 0; k < mr; k++ {
		alloc.SharedProcs = append(alloc.SharedProcs, next+k)
	}
	sp := root.Child("phase2.full")
	res, err := partition.Partition(low, mr, p.opt.Partition)
	sp.Finish()
	if err != nil {
		fe := &core.FailureError{Phase: core.PhaseLowDensity, Remaining: mr, Err: err}
		var pf *partition.FailureError
		if errors.As(err, &pf) {
			fe.TaskIndex = alloc.LowIndices[pf.TaskIndex]
			fe.TaskName = pf.TaskName
		}
		return nil, fe
	}
	alloc.Low = res
	return alloc, nil
}

// warm reports whether the shard's warm path serves a mutation of a task
// with the given density: strict policy, a base allocation of the configured
// shape, a low-density task and a partition state that mirrors the base.
func (p *pipe) warm(high bool) bool {
	return !high && p.alloc != nil && p.opt.Policy == "" && p.alloc.Policy == p.opt.Policy &&
		p.pstate != nil && p.pstate.Len() == len(p.alloc.Servers)+len(p.alloc.LowIndices) &&
		p.pstate.M() == len(p.alloc.SharedProcs)
}

func (p *pipe) verify(root *obs.Span, trial task.System, alloc *core.Allocation) error {
	sp := root.Child("verify.full")
	defer sp.Finish()
	return core.Verify(trial, p.m, alloc)
}

func (p *pipe) verifyDelta(root *obs.Span, trial task.System, alloc *core.Allocation) error {
	sp := root.Child("verify.delta")
	defer sp.Finish()
	return core.VerifyDelta(trial, p.m, alloc, p.sys, p.alloc)
}

func (p *pipe) logAdmit(root *obs.Span, tks []*task.DAGTask, hashes []string, traceID string) error {
	sp := root.Child("wal")
	defer sp.Finish()
	if err := p.st.LogAdmit(tks, hashes, traceID, p.cluster); err != nil {
		return err
	}
	p.logged = append(p.logged, store.Record{Seq: p.st.Seq(), Op: store.OpAdmit, Tasks: tks, Hashes: hashes, Trace: traceID, Cluster: p.cluster})
	return nil
}

func (p *pipe) logRemove(root *obs.Span, name, traceID string) error {
	sp := root.Child("wal")
	defer sp.Finish()
	if err := p.st.LogRemove(name, traceID, p.cluster); err != nil {
		return err
	}
	p.logged = append(p.logged, store.Record{Seq: p.st.Seq(), Op: store.OpRemove, Name: name, Trace: traceID, Cluster: p.cluster})
	return nil
}

// commit installs a mutated state, re-derives the partition state after a
// full analysis, and takes the periodic snapshot.
func (p *pipe) commit(root *obs.Span, sys task.System, alloc *core.Allocation, hashes []string, full bool) {
	p.sys, p.alloc, p.hashes = sys, alloc, hashes
	if full {
		sp := root.Child("phase2.rebuild")
		p.pstate = nil
		if alloc != nil {
			if combined, err := core.PartitionSystem(sys, alloc); err == nil {
				if st, err := partition.Rebuild(combined, len(alloc.SharedProcs), alloc.Low, p.opt.Partition); err == nil {
					p.pstate = st
				}
			}
		}
		sp.Finish()
	}
	sp := root.Child("snapshot")
	wrote, err := p.st.MaybeSnapshot(p.sys, p.hashes, p.m, p.opt.Policy)
	sp.Bool("wrote", wrote && err == nil).Finish()
}

func (p *pipe) encode(root *obs.Span, status int, v service.Verdict) (int, []byte) {
	sp := root.Child("encode")
	body, err := v.Encode()
	if err != nil {
		sp.Finish()
		return errBody(http.StatusInternalServerError, "encoding verdict: "+err.Error())
	}
	sp.Int("bytes", int64(len(body))).Finish()
	return status, body
}

// errBody is the shard's JSON error body.
func errBody(status int, msg string) (int, []byte) {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return status, append(b, '\n')
}

// decode is the request decoding the daemon's handler does before it queues
// an admission.
func decode(root *obs.Span, body []byte) (*task.DAGTask, error) {
	sp := root.Child("decode")
	defer sp.Int("bytes", int64(len(body))).Finish()
	var tk task.DAGTask
	if err := json.Unmarshal(body, &tk); err != nil {
		return nil, err
	}
	return &tk, nil
}

func (p *pipe) admit(root *obs.Span, tk *task.DAGTask, traceID string) (int, []byte) {
	for _, cur := range p.sys {
		if cur.Name == tk.Name {
			return errBody(http.StatusConflict, fmt.Sprintf("task %q already admitted; remove it first", tk.Name))
		}
	}
	trial := append(p.sys.Clone(), tk)
	if p.warm(tk.HighDensity()) {
		sp := root.Child("phase2.incr")
		alloc, err := core.AdmitLow(p.alloc, p.pstate, tk)
		sp.Finish()
		if err != nil {
			return p.encode(root, http.StatusConflict, service.NewVerdict(trial, p.m, nil, err))
		}
		if err := p.verifyDelta(root, trial, alloc); err != nil {
			return errBody(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
		}
		h := p.hash(root, tk).String()
		if err := p.logAdmit(root, []*task.DAGTask{tk}, []string{h}, traceID); err != nil {
			return errBody(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
		}
		p.commit(root, trial, alloc, append(append([]string(nil), p.hashes...), h), false)
		return p.encode(root, http.StatusOK, service.NewVerdict(trial, p.m, alloc, nil))
	}
	return p.admitFull(root, trial, []*task.DAGTask{tk}, traceID)
}

// admitFull is the full-analysis admission of tks appended to the installed
// system: a single admit that the warm path declined, or a batch.
func (p *pipe) admitFull(root *obs.Span, trial task.System, tks []*task.DAGTask, traceID string) (int, []byte) {
	alloc, err := p.schedule(root, trial)
	if err != nil {
		return p.encode(root, http.StatusConflict, service.NewVerdict(trial, p.m, nil, err))
	}
	if err := p.verify(root, trial, alloc); err != nil {
		return errBody(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
	}
	hashes := make([]string, len(tks))
	for i, tk := range tks {
		hashes[i] = p.hash(root, tk).String()
	}
	if err := p.logAdmit(root, tks, hashes, traceID); err != nil {
		return errBody(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
	}
	p.commit(root, trial, alloc, append(append([]string(nil), p.hashes...), hashes...), true)
	return p.encode(root, http.StatusOK, service.NewVerdict(trial, p.m, alloc, nil))
}

func (p *pipe) remove(root *obs.Span, name, traceID string) (int, []byte) {
	idx := -1
	for i, cur := range p.sys {
		if cur.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return errBody(http.StatusNotFound, fmt.Sprintf("no task named %q", name))
	}
	trial := make(task.System, 0, len(p.sys)-1)
	trial = append(trial, p.sys[:idx]...)
	trial = append(trial, p.sys[idx+1:]...)
	hashes := make([]string, 0, len(p.hashes))
	hashes = append(hashes, p.hashes[:idx]...)
	hashes = append(hashes, p.hashes[idx+1:]...)
	unschedulable := func(err error) (int, []byte) {
		return errBody(http.StatusConflict, fmt.Sprintf("system unschedulable after removing %q: %v", name, err))
	}
	if len(trial) == 0 {
		if err := p.logRemove(root, name, traceID); err != nil {
			return errBody(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
		}
		p.commit(root, nil, nil, nil, true)
		return p.encode(root, http.StatusOK, service.NewVerdict(nil, p.m, nil, nil))
	}
	var alloc *core.Allocation
	var err error
	full := !p.warm(p.sys[idx].HighDensity())
	if full {
		if alloc, err = p.schedule(root, trial); err != nil {
			return unschedulable(err)
		}
		err = p.verify(root, trial, alloc)
	} else {
		sp := root.Child("phase2.incr")
		alloc, err = core.RemoveLow(p.alloc, p.pstate, idx)
		sp.Finish()
		if err != nil {
			return unschedulable(err)
		}
		err = p.verifyDelta(root, trial, alloc)
	}
	if err != nil {
		return errBody(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
	}
	if err := p.logRemove(root, name, traceID); err != nil {
		return errBody(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
	}
	p.commit(root, trial, alloc, hashes, full)
	return p.encode(root, http.StatusOK, service.NewVerdict(trial, p.m, alloc, nil))
}

func (p *pipe) read(root *obs.Span) (int, []byte) {
	return p.encode(root, http.StatusOK, service.NewVerdict(p.sys, p.m, p.alloc, nil))
}

// writer runs mutations on a goroutine of their own, as a shard's writer
// loop does, so a traced mutation pays the same two goroutine handoffs as
// Shard.Admit: queueing to the writer and returning the result. Each handoff
// is a "handoff" span.
type writer struct {
	jobs chan func()
	done sync.WaitGroup
}

func newWriter() *writer {
	wr := &writer{jobs: make(chan func(), 1)}
	wr.done.Add(1)
	go func() {
		defer wr.done.Done()
		for f := range wr.jobs {
			f()
		}
	}()
	return wr
}

func (wr *writer) stop() {
	close(wr.jobs)
	wr.done.Wait()
}

func (wr *writer) run(root *obs.Span, f func() (int, []byte)) (int, []byte) {
	var status int
	var body []byte
	var back *obs.Span
	reply := make(chan struct{}, 1)
	queued := root.Child("handoff")
	wr.jobs <- func() {
		queued.Finish()
		status, body = f()
		back = root.Child("handoff")
		reply <- struct{}{}
	}
	<-reply
	back.Finish()
	return status, body
}

// replayResult is the traced replay's outcome.
type replayResult struct {
	rec                         *obs.Recorder
	shardAdmit                  []float64 // twin Shard.Admit, µs
	shardRem                    []float64 // twin Shard.Remove, µs
	walBytes                    int
	recoverOpen, recoverAnalyze float64 // µs, median of 3
}

// replay runs the seed batch and the first w.replayOps ops of the sequential
// loop, in the order it sends them, one at a time, twice: (a) through an in-process service twin of the daemon,
// untimed by spans, and (b) through the traced pipe of the shard the op
// routes to. Every (b) status and body must equal (a)'s.
func replay(w *workload, p *plan, seed int64, dir string, c *checks) (*replayResult, error) {
	cfg, err := w.serviceConfig(filepath.Join(dir, "twin"))
	if err != nil {
		return nil, err
	}
	twin, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { twin.Close() }()
	owners := shardCluster(p, w.shards)
	pipes := make([]*pipe, w.shards)
	for i := range pipes {
		if pipes[i], err = newPipe(w, filepath.Join(dir, "traced", fmt.Sprintf("shard-%d", i)), owners[i]); err != nil {
			return nil, err
		}
		defer pipes[i].st.Close()
	}
	res := &replayResult{rec: obs.New(obs.Limits{MaxDepth: 2, MaxSpans: 1 << 24, MaxAttrs: 4})}
	wr := newWriter()
	defer wr.stop()
	mismatch := 0
	compare := func(label string, sa int, ba []byte, sb int, bb []byte) {
		if sa == sb && bytes.Equal(ba, bb) {
			return
		}
		if mismatch == 0 {
			c.failf("replay: %s: twin answered %d (%d bytes), traced pipeline %d (%d bytes)", label, sa, len(ba), sb, len(bb))
		}
		mismatch++
	}
	traceID := func(i int) string { return fmt.Sprintf("%08x-%06d", uint32(seed), i) }

	if p.seedBody != nil {
		var req service.BatchRequest
		if err := json.Unmarshal(p.seedBody, &req); err != nil {
			return nil, err
		}
		sa, ba := twin.ShardFor("").AdmitBatch(context.Background(), req.Tasks)
		var breq service.BatchRequest
		if err := json.Unmarshal(p.seedBody, &breq); err != nil {
			return nil, err
		}
		pp := pipes[twin.ShardFor("").ID()]
		root := res.rec.Start("op").Str("op", "seed").Str("trace_id", traceID(0))
		sb, bb := wr.run(root, func() (int, []byte) {
			return pp.admitFull(root, append(pp.sys.Clone(), breq.Tasks...), breq.Tasks, traceID(0))
		})
		root.Finish()
		pp.logged = nil
		compare("seed batch", sa, ba, sb, bb)
		if sa != http.StatusOK {
			return nil, fmt.Errorf("replay: seed batch answered %d", sa)
		}
	}

	ss := make([]*sender, senders)
	for i := range ss {
		ss[i] = &sender{id: i, cluster: p.clusters[i]}
	}
	for i := 0; i < w.replayOps; i++ {
		s := ss[i%senders]
		j := i / senders
		if j >= len(p.seq[s.id]) {
			break
		}
		o := p.seq[s.id][j]
		if o.kind == opRemove && len(s.live) == 0 {
			continue
		}
		sh := twin.ShardFor(s.cluster)
		pp := pipes[sh.ID()]
		var tk task.DAGTask
		if o.kind == opAdmit {
			if err := json.Unmarshal(o.body, &tk); err != nil {
				return nil, err
			}
		}
		var sa, sb int
		var ba, bb []byte
		var errA, errB error
		twinSide := func() { sa, ba, errA = res.twinOp(sh, w.m, o, &tk, s) }
		tracedSide := func() { sb, bb, errB = res.tracedOp(pp, wr, o, s, traceID(i+1)) }
		// Alternating which side runs first keeps cache and disk effects of
		// running second from favouring either side.
		if i%2 == 0 {
			twinSide()
			tracedSide()
		} else {
			tracedSide()
			twinSide()
		}
		if err := errors.Join(errA, errB); err != nil {
			return nil, err
		}
		for _, r := range pp.logged {
			enc, err := store.EncodeRecord(r)
			if err != nil {
				return nil, err
			}
			res.walBytes += len(enc)
		}
		pp.logged = nil
		compare(fmt.Sprintf("op %d (%s)", i, o.kind), sa, ba, sb, bb)
		s.settle(o, sa)
	}
	if mismatch > 0 {
		c.failf("replay: %d op(s) differed between the twin and the traced pipeline", mismatch)
	}
	return res, measureRecovery(twin, cfg, res, c)
}

// twinOp runs o through the twin shard, timing mutations. tk is the op's
// decoded task for an admit; a remove targets s's oldest live task.
func (res *replayResult) twinOp(sh *service.Shard, m int, o op, tk *task.DAGTask, s *sender) (int, []byte, error) {
	t0 := time.Now()
	switch o.kind {
	case opAdmit:
		status, body := sh.Admit(context.Background(), tk)
		res.shardAdmit = append(res.shardAdmit, us(time.Since(t0)))
		return status, body, nil
	case opRemove:
		status, body := sh.Remove(context.Background(), s.live[0].name)
		res.shardRem = append(res.shardRem, us(time.Since(t0)))
		return status, body, nil
	default:
		sys, alloc := sh.Snapshot()
		body, err := service.NewVerdict(sys, m, alloc, nil).Encode()
		return http.StatusOK, body, err
	}
}

// tracedOp runs o through pp under a root span carrying the op's trace ID.
// Decoding and reads run on the caller, as in the daemon's handlers;
// mutations run on the writer goroutine.
func (res *replayResult) tracedOp(pp *pipe, wr *writer, o op, s *sender, id string) (int, []byte, error) {
	root := res.rec.Start("op").Str("op", o.kind.String()).Str("trace_id", id)
	defer root.Finish()
	switch o.kind {
	case opAdmit:
		tk, err := decode(root, o.body)
		if err != nil {
			return 0, nil, err
		}
		status, body := wr.run(root, func() (int, []byte) { return pp.admit(root, tk, id) })
		return status, body, nil
	case opRemove:
		name := s.live[0].name
		status, body := wr.run(root, func() (int, []byte) { return pp.remove(root, name, id) })
		return status, body, nil
	default:
		status, body := pp.read(root)
		return status, body, nil
	}
}

// measureRecovery restarts the twin on its WAL three times, and every restart
// must serve the allocations the twin served before it. Each time it also
// times the two parts of a shard's recovery through the public calls the
// shard makes: store.Open on each shard's directory, and the analysis of what
// that recovered (re-hashing every task, a cold AnalysisCache.Schedule and
// core.Verify).
func measureRecovery(twin *service.Server, cfg service.Config, res *replayResult, c *checks) error {
	before, err := twinAllocations(twin, cfg.M)
	if err != nil {
		return err
	}
	twin.Close()
	var opens, analyses []float64
	for rep := 0; rep < 3; rep++ {
		srv, err := service.New(cfg)
		if err != nil {
			return err
		}
		after, err := twinAllocations(srv, cfg.M)
		srv.Close()
		if err != nil {
			return err
		}
		c.checkSame("replay recovery", before, after)
		var open, analyze float64
		for i := 0; i < cfg.Shards; i++ {
			t0 := time.Now()
			st, rec, err := store.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", i)), 0)
			if err != nil {
				return err
			}
			open += us(time.Since(t0))
			st.Close()
			t0 = time.Now()
			if err := reanalyze(rec.Tasks, cfg); err != nil {
				return err
			}
			analyze += us(time.Since(t0))
		}
		opens = append(opens, open)
		analyses = append(analyses, analyze)
	}
	res.recoverOpen, res.recoverAnalyze = median(opens), median(analyses)
	return nil
}

// reanalyze is a shard's analysis of a recovered system.
func reanalyze(sys task.System, cfg service.Config) error {
	if len(sys) == 0 {
		return nil
	}
	for _, tk := range sys {
		core.TaskHash(tk)
	}
	alloc, err := service.NewAnalysisCache().Schedule(sys, cfg.M, cfg.Options)
	if err != nil {
		return fmt.Errorf("re-analysing the recovered system: %w", err)
	}
	return core.Verify(sys, cfg.M, alloc)
}

func twinAllocations(srv *service.Server, m int) ([][]byte, error) {
	var out [][]byte
	for _, sh := range srv.Shards() {
		sys, alloc := sh.Snapshot()
		b, err := service.NewVerdict(sys, m, alloc, nil).Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes the recorded spans as JSONL with timings.
func writeSpans(rec *obs.Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f, obs.ExportOptions{Timings: true}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

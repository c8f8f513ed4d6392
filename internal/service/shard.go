package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

// Shard is one independent admission domain: a live task system, its current
// FEDCONS allocation, the content-addressed Phase-1 memo cache, and (when
// durability is configured) the WAL+snapshot store that lets it restart into
// its exact pre-crash state. A Server holds N shards, shared-nothing: they
// serialize their own mutations, own their own queues, caches, metrics and
// WAL directories, and never touch each other's state.
//
// Consistency model (unchanged from the pre-shard single server): all
// mutations (admit, remove) serialize through a single-writer loop, so trial
// analyses always run against a quiescent state; reads take an RWMutex
// read-lock on the installed snapshot and never block behind an analysis in
// progress. Every state the shard installs — and therefore every state a
// reader can observe — has passed core.Verify: recovery runs it, and every
// mutation runs core.VerifyDelta against the installed state, which accepts
// exactly what Verify accepts.
//
// Durability model: when a store is attached, the mutation record is
// appended and fsynced to the WAL *before* the new state is installed or
// acknowledged, so every verdict a client ever received is recoverable. An
// atomic batch is one WAL record, so replay can never half-apply it.
type Shard struct {
	id    int
	cfg   Config
	cache *AnalysisCache
	store *store.Store // nil without Config.WALDir

	mu    sync.RWMutex // guards sys and alloc (the installed snapshot)
	sys   task.System
	alloc *core.Allocation // nil iff sys is empty

	// sysHashes holds the content hash (core.TaskHash hex) of each installed
	// task, index aligned with sys. Writer-loop-only (and recovery, which
	// runs before the loop starts): maintained so WAL records and snapshots
	// never re-hash the installed system.
	sysHashes []string

	// pstate is the live incremental Phase-2 state (one partition.State per
	// bank) mirroring alloc's shared-processor placement; nil when alloc is
	// nil (or after a rebuild failure, which just disables the warm path).
	// Writer-loop-only, like sysHashes: mutated by the warm path and
	// re-derived from the installed allocation after every full-analysis
	// install (see syncPartitionState).
	pstate *core.LowState

	reqs    chan *request
	closing chan struct{}
	closed  atomic.Bool
	loop    sync.WaitGroup
	once    sync.Once

	met      metrics
	varsMap  http.Handler
	promVars *expvar.Map
	started  time.Time

	// tracePrefix + traceSeq mint per-request trace IDs like "a1b2c3d4-000007".
	tracePrefix string
	traceSeq    obs.Counter

	// flight retains the last N decision entries (nil when the recorder is
	// disabled); flightTick drives the 1-in-FlightSampleEvery speculative
	// tracing of untraced full-path admissions.
	flight     *flightRing
	flightTick obs.Counter

	// slo is the server-wide SLO ledger (shared across shards, nil-safe);
	// set by service.New before the shard serves its first request.
	slo *sloState
}

// mutMeta is the per-mutation metadata threaded from the HTTP handler through
// the writer loop into the WAL record and the flight recorder.
type mutMeta struct {
	trace   string
	cluster string
}

// request is one queued mutation for the writer loop.
type request struct {
	ctx   context.Context
	trace string // trace ID, echoed in queue-expiry error bodies
	run   func() opResult
	resp  chan opResult // buffered: the loop never blocks on a gone client
}

// opResult is a finished operation: an HTTP status and a JSON body. flight,
// when non-nil, is a decision entry the writer loop stamps with the
// operation's latency and retains in the shard's flight recorder.
type opResult struct {
	status int
	body   []byte
	flight *FlightEntry
}

// newShard builds shard id, recovers its durable state when cfg.WALDir is
// set, and starts its writer loop.
func newShard(id int, cfg Config) (*Shard, error) {
	s := &Shard{
		id:          id,
		cfg:         cfg,
		cache:       NewAnalysisCache(),
		reqs:        make(chan *request, cfg.QueueBound),
		closing:     make(chan struct{}),
		started:     time.Now(),
		tracePrefix: randomTracePrefix(),
	}
	if cfg.FlightRecorderSize >= 0 {
		n := cfg.FlightRecorderSize
		if n == 0 {
			n = DefaultFlightEntries
		}
		s.flight = newFlightRing(n)
	}
	if cfg.WALDir != "" {
		st, rec, err := store.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", id)), cfg.SnapshotEvery)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		s.store = st
		st.SetMTypes(cfg.Options.MTypes)
		if err := s.recover(rec); err != nil {
			st.Close()
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
	}
	s.promVars = s.vars()
	s.varsMap = varsHandler(s.promVars)
	s.loop.Add(1)
	go s.writerLoop()
	return s, nil
}

// recover rebuilds the shard's live state from a store Recovery: the logged
// content hashes are re-derived from the recovered tasks (end-to-end
// integrity check on snapshot+WAL), the full FEDCONS analysis is re-run —
// prewarming the Phase-1 memo cache on the configured worker pool — and the
// resulting allocation is re-audited by core.Verify before it is installed.
// Runs before the writer loop starts, so the fields need no locking.
func (s *Shard) recover(rec *store.Recovery) error {
	if len(rec.Tasks) == 0 {
		return nil
	}
	if rec.M != 0 && rec.M != s.cfg.M {
		return fmt.Errorf("wal-dir holds a system admitted against m=%d, daemon configured with m=%d; refusing to reinterpret it", rec.M, s.cfg.M)
	}
	// The policy and the per-type budgets are recorded alongside M in the
	// snapshot, so their checks share its gate: a WAL-only recovery (no
	// snapshot yet, rec.M == 0) carries no record to compare against.
	if rec.M != 0 && rec.Policy != s.cfg.Options.Policy {
		return fmt.Errorf("wal-dir holds a system admitted under -policy=%s, daemon configured with -policy=%s; refusing to reinterpret it",
			policyLabel(rec.Policy), policyLabel(s.cfg.Options.Policy))
	}
	if rec.M != 0 && !slices.Equal(rec.MTypes, s.cfg.Options.MTypes) {
		return fmt.Errorf("wal-dir holds a system admitted under -m-types=%q, daemon configured with -m-types=%q; refusing to reinterpret it",
			core.FormatMTypes(rec.MTypes), core.FormatMTypes(s.cfg.Options.MTypes))
	}
	for i, tk := range rec.Tasks {
		if h := s.cache.hashOf(tk).String(); h != rec.Hashes[i] {
			return fmt.Errorf("recovered task %q hashes to %s but the log recorded %s: store corrupted", tk.Name, h[:12], rec.Hashes[i])
		}
	}
	alloc, err := s.cache.Schedule(rec.Tasks, s.cfg.M, s.cfg.Options)
	if err != nil {
		return fmt.Errorf("recovered system failed re-analysis: %w", err)
	}
	if err := core.Verify(rec.Tasks, s.cfg.M, alloc); err != nil {
		return fmt.Errorf("recovered allocation failed verification: %w", err)
	}
	s.sys, s.alloc, s.sysHashes = rec.Tasks, alloc, rec.Hashes
	// Rebuild the incremental Phase-2 state from the recovered allocation, so
	// the first warm admission after a crash takes the same fast path — and
	// produces the same bytes — as on a daemon that never crashed.
	s.syncPartitionState()
	return nil
}

// Close stops the writer loop after draining every queued request, so no
// client is left waiting on an unanswered channel, then closes the WAL. It
// is idempotent. Deliberately no parting snapshot: a clean close must stay
// indistinguishable from a crash so the recovery path is the only path.
func (s *Shard) Close() {
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.closing)
	})
	s.loop.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// ID returns the shard's index within its server.
func (s *Shard) ID() int { return s.id }

// Cache exposes the analysis cache (read-only use: stats).
func (s *Shard) Cache() *AnalysisCache { return s.cache }

// Snapshot returns the installed system and allocation. The system slice is
// a copy; the allocation is shared and must be treated as immutable.
func (s *Shard) Snapshot() (task.System, *core.Allocation) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sys.Clone(), s.alloc
}

func (s *Shard) writerLoop() {
	defer s.loop.Done()
	for {
		select {
		case req := <-s.reqs:
			s.serve(req)
		case <-s.closing:
			for {
				select {
				case req := <-s.reqs:
					s.serve(req)
				default:
					return
				}
			}
		}
	}
}

func (s *Shard) serve(req *request) {
	if err := req.ctx.Err(); err != nil {
		s.met.timeouts.Add(1)
		req.resp <- errResultTrace(http.StatusGatewayTimeout, "admission deadline expired while queued: "+err.Error(), req.trace)
		return
	}
	req.resp <- req.run()
}

// submit routes a mutation through the writer loop, shedding load when the
// queue is full and honoring the caller's context deadline. The trace ID is
// echoed in every error body minted here (429/503/504), so a client that
// never got a verdict still holds a handle the operator can grep for. Every
// outcome — including sheds and timeouts that never reached the loop — feeds
// the SLO ledger with the client-visible latency (queue wait included).
func (s *Shard) submit(ctx context.Context, op, traceID string, run func() opResult) opResult {
	start := time.Now()
	res := s.submitInner(ctx, traceID, run)
	s.slo.observe(op, res.status, time.Since(start))
	return res
}

func (s *Shard) submitInner(ctx context.Context, traceID string, run func() opResult) opResult {
	if s.closed.Load() {
		return errResultTrace(http.StatusServiceUnavailable, "server shutting down", traceID)
	}
	req := &request{ctx: ctx, trace: traceID, run: run, resp: make(chan opResult, 1)}
	select {
	case s.reqs <- req:
	default:
		s.met.shed.Add(1)
		return errResultTrace(http.StatusTooManyRequests, "admission queue full; retry later", traceID)
	}
	select {
	case res := <-req.resp:
		return res
	case <-ctx.Done():
		// The loop may still execute the request (it re-checks the context
		// before starting, but cannot un-run an analysis already underway);
		// the client should GET /v1/allocation to learn the outcome.
		s.met.timeouts.Add(1)
		return errResultTrace(http.StatusGatewayTimeout, "admission deadline expired: "+ctx.Err().Error(), traceID)
	}
}

// randomTracePrefix draws the per-shard trace-ID prefix.
func randomTracePrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace"
	}
	return hex.EncodeToString(b[:])
}

// nextTraceID mints a shard-unique request trace ID.
func (s *Shard) nextTraceID() string {
	return fmt.Sprintf("%s-%06d", s.tracePrefix, s.traceSeq.Inc())
}

// Admit trial-admits tk: it runs the full two-phase FEDCONS test on the
// current system plus tk, audits the resulting allocation with
// core.VerifyDelta, and installs it only if both succeed. The returned
// status is the HTTP status the daemon would serve: 200 installed, 409
// rejected by the analysis (body = Verdict with the failure reason) or
// duplicate name, 429 shed, 504 deadline expired, 500 audit or WAL failure
// (state unchanged).
func (s *Shard) Admit(ctx context.Context, tk *task.DAGTask) (int, []byte) {
	return s.AdmitTrace(ctx, tk, s.nextTraceID(), nil)
}

// AdmitTrace is Admit with an explicit trace ID (echoed in shed/timeout error
// bodies and the Observer record) and an optional obs.Recorder: when rec is
// non-nil the full FEDCONS decision trace of the trial analysis is recorded
// into it and embedded in the Verdict's "trace" field — the daemon's
// ?trace=1 admit mode.
func (s *Shard) AdmitTrace(ctx context.Context, tk *task.DAGTask, traceID string, rec *obs.Recorder) (int, []byte) {
	res := s.admitOp(ctx, "admit", []*task.DAGTask{tk}, traceID, rec, "")
	return res.status, res.body
}

// admitOp queues an admission of tks — op "admit" for a single task,
// "admit-batch" for an atomic batch — with the request's trace ID, recorder
// and cluster name, the last two threaded into the WAL record and the flight
// recorder.
func (s *Shard) admitOp(ctx context.Context, op string, tks []*task.DAGTask, traceID string, rec *obs.Recorder, cluster string) opResult {
	label := tks[0].Name
	if op == "admit-batch" {
		names := make([]string, len(tks))
		for i, tk := range tks {
			names[i] = tk.Name
		}
		label = strings.Join(names, ",")
	}
	meta := mutMeta{trace: traceID, cluster: cluster}
	return s.submit(ctx, op, traceID, func() opResult {
		return s.observed(traceID, op, label, func() opResult { return s.doAdmit(op, label, tks, rec, meta) })
	})
}

// Remove removes the named task, re-analyzes and installs the shrunken
// system. Status: 200 removed, 404 unknown name, 409 the shrunken system is
// unschedulable, 500 audit or WAL failure, plus the same 429/504 envelope as
// Admit.
func (s *Shard) Remove(ctx context.Context, name string) (int, []byte) {
	return s.RemoveTrace(ctx, name, s.nextTraceID())
}

// RemoveTrace is Remove with an explicit trace ID.
func (s *Shard) RemoveTrace(ctx context.Context, name, traceID string) (int, []byte) {
	res := s.removeOp(ctx, name, traceID, "")
	return res.status, res.body
}

// removeOp is RemoveTrace with the request's cluster name.
func (s *Shard) removeOp(ctx context.Context, name, traceID, cluster string) opResult {
	meta := mutMeta{trace: traceID, cluster: cluster}
	return s.submit(ctx, "remove", traceID, func() opResult {
		return s.observed(traceID, "remove", name, func() opResult { return s.doRemove(name, meta) })
	})
}

// observed runs one mutation inside the writer loop, timing it into the
// latency histogram and reporting the completed operation to Config.Observer.
func (s *Shard) observed(traceID, op, taskName string, run func() opResult) opResult {
	start := time.Now()
	var h0, m0 int64
	if s.cfg.Observer != nil {
		h0, m0 = s.cache.Stats()
	}
	res := run()
	lat := time.Since(start)
	if op == "admit" || op == "admit-batch" {
		s.met.latency.Observe(lat)
	}
	if res.flight != nil {
		// Stamp and retain the decision entry here, where the latency is
		// known; we are the writer loop, the ring's single writer.
		res.flight.UnixNs = start.UnixNano()
		res.flight.LatencyNs = lat.Nanoseconds()
		s.flight.put(res.flight)
		res.flight = nil
	}
	if s.cfg.Observer != nil {
		h1, m1 := s.cache.Stats()
		s.cfg.Observer(AdmissionRecord{
			TraceID:     traceID,
			Shard:       s.id,
			Op:          op,
			Task:        taskName,
			Status:      res.status,
			Schedulable: res.status == http.StatusOK,
			LatencyNs:   lat.Nanoseconds(),
			CacheHits:   h1 - h0,
			CacheMisses: m1 - m0,
			Tasks:       len(s.sys), // safe: we are the writer loop
		})
	}
	return res
}

// maybeSnapshot checkpoints after an installed mutation. The mutation is
// already durable in the WAL, so a snapshot failure only delays truncation;
// it is counted, not surfaced to the client.
func (s *Shard) maybeSnapshot() {
	if s.store == nil {
		return
	}
	wrote, err := s.store.MaybeSnapshot(s.sys, s.sysHashes, s.cfg.M, s.cfg.Options.Policy)
	if err != nil {
		s.met.errors.Add(1)
		return
	}
	if wrote {
		s.met.snapshots.Add(1)
	}
}

// speculate decides whether an untraced full-path mutation should record its
// decision trace anyway: one in Config.FlightSampleEvery does, so the flight
// recorder retains representative full traces without paying the recorder's
// cost (≈4× on the analysis; see results/timing_obs.json) on every request.
// A client-supplied recorder always wins and is never double-counted as a
// sample. Writer-loop only.
func (s *Shard) speculate(rec *obs.Recorder) (*obs.Recorder, bool) {
	if rec != nil {
		return rec, false
	}
	if s.flight == nil || s.cfg.FlightSampleEvery <= 0 {
		return nil, false
	}
	if s.flightTick.Inc()%int64(s.cfg.FlightSampleEvery) != 0 {
		return nil, false
	}
	return obs.New(obs.DefaultLimits), true
}

// traceBytes renders a recorder's span tree exactly the way the ?trace=1
// verdict embeds it. Both the inline verdict and the flight entry are set
// from ONE call's return value, which is what makes the /debug/traces/{id}
// copy byte-identical to the inline trace.
func traceBytes(rec *obs.Recorder) []byte {
	if rec == nil {
		return nil
	}
	return rec.JSON(obs.ExportOptions{Timings: true})
}

// noteFlight attaches a decision entry to res for the writer loop to stamp
// and retain. No-op when the recorder is disabled.
func (s *Shard) noteFlight(res opResult, meta mutMeta, op, taskName string, sampled bool, trace []byte) opResult {
	if s.flight == nil {
		return res
	}
	res.flight = &FlightEntry{
		TraceID: meta.trace, Shard: s.id, Cluster: meta.cluster,
		Op: op, Task: taskName, Status: res.status, Sampled: sampled, Trace: trace,
	}
	return res
}

// indexOf returns the position of the task called name in tks, or -1.
func indexOf(tks []*task.DAGTask, name string) int {
	for i, tk := range tks {
		if tk.Name == name {
			return i
		}
	}
	return -1
}

// doAdmit refuses an admission whose names clash — with an installed task
// or within the batch — before any analysis, so the refusal carries no
// trace; otherwise it commits the system plus tks. Only an untraced single
// admit may take the warm step. Writer-loop only.
func (s *Shard) doAdmit(op, label string, tks []*task.DAGTask, rec *obs.Recorder, meta mutMeta) opResult {
	for i, tk := range tks {
		var msg string
		switch {
		case indexOf(s.sys, tk.Name) >= 0:
			msg = fmt.Sprintf("task %q already admitted; remove it first", tk.Name)
		case indexOf(tks[:i], tk.Name) >= 0:
			msg = fmt.Sprintf("task %q appears twice in the batch", tk.Name)
		default:
			continue
		}
		s.met.errors.Add(1)
		return s.noteFlight(errResult(http.StatusConflict, msg), meta, op, label, false, nil)
	}
	trial := make(task.System, 0, len(s.sys)+len(tks))
	trial = append(append(trial, s.sys...), tks...)
	return s.commit(mutation{op: op, label: label, meta: meta, trial: trial, tks: tks, rec: rec,
		warm: op == "admit" && rec == nil && s.warmFor(tks[0])})
}

// doRemove refuses an unknown name (404, not retained); otherwise it commits
// the system without the task. Removing the last task installs the empty
// system with no analysis. Writer-loop only.
func (s *Shard) doRemove(name string, meta mutMeta) opResult {
	idx := indexOf(s.sys, name)
	if idx < 0 {
		s.met.errors.Add(1)
		return errResult(http.StatusNotFound, fmt.Sprintf("no task named %q", name))
	}
	mu := mutation{op: "remove", label: name, meta: meta, idx: idx}
	if len(s.sys) > 1 {
		mu.trial = append(append(make(task.System, 0, len(s.sys)-1), s.sys[:idx]...), s.sys[idx+1:]...)
		mu.hashes = append(append(make([]string, 0, len(s.sys)-1), s.sysHashes[:idx]...), s.sysHashes[idx+1:]...)
		mu.warm = s.warmFor(s.sys[idx])
	}
	return s.commit(mu)
}

// mutation is one state change for commit to analyse, audit, log and
// install.
type mutation struct {
	op, label string // "admit", "admit-batch" or "remove"; the task name(s)
	meta      mutMeta
	trial     task.System     // the system to install; nil when a remove empties the shard
	tks       []*task.DAGTask // admits: the tasks appended to the system
	idx       int             // remove: the departing task's index in s.sys
	hashes    []string        // remove: the trial system's task hashes
	rec       *obs.Recorder   // the client's ?trace=1 recorder, if any
	warm      bool            // try the warm step (LowState.Admit/Remove) first
}

// commit is the one sequence every admit, batch and remove runs, warm or
// full: analyse the trial system (the warm step, or the memoized full
// analysis under the speculated recorder) → audit it with core.VerifyDelta
// against the installed, already audited allocation (a full audit when the
// shard is empty) → append it to the WAL → install → count → maybeSnapshot →
// verdict → flight entry. Writer-loop only: as the sole writer it reads
// s.sys without the lock and takes the lock only to install.
func (s *Shard) commit(mu mutation) opResult {
	remove := mu.op == "remove"
	var (
		alloc   *core.Allocation
		err     error
		srec    *obs.Recorder
		sampled bool
	)
	if mu.warm {
		if remove {
			alloc, err = s.pstate.Remove(s.alloc, mu.idx)
		} else {
			alloc, err = s.pstate.Admit(s.alloc, mu.tks[0])
		}
		// A split shape retries strict FEDCONS after a Phase-2 failure, and
		// only the full analysis does that; strict and typed warm failures
		// are final.
		mu.warm = err == nil || !core.RetriesStrict(s.alloc.Policy)
	}
	if !mu.warm && mu.trial != nil {
		if !remove {
			srec, sampled = s.speculate(mu.rec)
		}
		opt := s.cfg.Options
		opt.Trace = srec
		alloc, err = s.cache.Schedule(mu.trial, s.cfg.M, opt)
	}
	trace := traceBytes(srec)
	if err != nil {
		var res opResult
		if remove {
			// Removing a task can, in principle, perturb the deadline-ordered
			// first-fit packing enough to fail; keep the verified old state.
			s.met.errors.Add(1)
			res = errResult(http.StatusConflict, fmt.Sprintf("system unschedulable after removing %q: %v", mu.label, err))
		} else {
			// A batch is all-or-nothing: one infeasible combination rejects it.
			s.met.rejects.Add(1)
			v := NewVerdict(mu.trial, s.cfg.M, nil, err)
			if mu.rec != nil {
				v.Trace = trace
			}
			res = verdictResult(http.StatusConflict, v)
		}
		// Every refusal is retained — explaining "why not" after the fact is
		// the recorder's reason to exist. A warm refusal carries no span tree
		// (the incremental test is not the traced code path), only its
		// metadata.
		return s.noteFlight(res, mu.meta, mu.op, mu.label, sampled, trace)
	}
	fail := func(msg string) opResult {
		if mu.warm {
			// The warm step already committed the mutation to pstate:
			// re-derive it from the unchanged installed allocation.
			s.syncPartitionState()
		}
		s.met.errors.Add(1)
		return s.noteFlight(errResult(http.StatusInternalServerError, msg), mu.meta, mu.op, mu.label, sampled, trace)
	}
	if mu.trial != nil {
		// The audit is the last line of defense: never install an allocation
		// the independent checker rejects. The installed allocation passed
		// it, so only what differs from it is re-checked.
		if err := core.VerifyDelta(mu.trial, s.cfg.M, alloc, s.sys, s.alloc); err != nil {
			return fail("allocation failed verification: " + err.Error())
		}
	}
	hashes := mu.hashes
	if !remove {
		// Hashed only now, so a refusal does no hashing work.
		hashes = append(make([]string, 0, len(mu.trial)), s.sysHashes...)
		for _, tk := range mu.tks {
			hashes = append(hashes, s.cache.hashOf(tk).String())
		}
	}
	if s.store != nil {
		// Durable before installed: the shard never acknowledges state it
		// could lose. A batch is one record, so replay is as atomic as
		// admission.
		if remove {
			err = s.store.LogRemove(mu.label, mu.meta.trace, mu.meta.cluster)
		} else {
			err = s.store.LogAdmit(mu.tks, hashes[len(s.sysHashes):], mu.meta.trace, mu.meta.cluster)
		}
		if err != nil {
			return fail("write-ahead log append failed: " + err.Error())
		}
		s.met.walAppends.Add(1)
	}
	s.install(mu.trial, alloc, hashes)
	if !mu.warm {
		s.syncPartitionState()
	}
	if remove {
		s.met.removes.Add(1)
	} else {
		s.met.admits.Add(int64(len(mu.tks)))
	}
	if mu.op == "admit-batch" {
		s.met.batches.Add(1)
	}
	s.maybeSnapshot()
	v := NewVerdict(mu.trial, s.cfg.M, alloc, nil)
	if mu.rec != nil {
		v.Trace = trace
	}
	res := verdictResult(http.StatusOK, v)
	if sampled || mu.rec != nil {
		// Installs are retained only when traced (client-requested or
		// sampled); retaining every warm admit would evict the interesting
		// entries.
		res = s.noteFlight(res, mu.meta, mu.op, mu.label, sampled, trace)
	}
	return res
}

func (s *Shard) install(sys task.System, alloc *core.Allocation, hashes []string) {
	s.sysHashes = hashes
	s.mu.Lock()
	s.sys, s.alloc = sys, alloc
	s.mu.Unlock()
}

func (s *Shard) handleAdmit(w http.ResponseWriter, r *http.Request) {
	s.serveAdmit(w, r, "admit", func() ([]*task.DAGTask, string) {
		tk, err := decodeAdmit(io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)))
		if err != nil {
			return nil, "decoding task: " + err.Error()
		}
		if tk.Name == "" {
			return nil, "task must carry a unique name"
		}
		return []*task.DAGTask{tk}, ""
	})
}

// serveAdmit is the admit handlers' shared body: it mints the trace ID,
// decodes and validates the request with decode (a non-empty message is a
// 400), honours ?trace=1, and runs op under the admission deadline for the
// request's cluster.
func (s *Shard) serveAdmit(w http.ResponseWriter, r *http.Request, op string, decode func() ([]*task.DAGTask, string)) {
	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)
	tks, msg := decode()
	if msg != "" {
		s.met.errors.Add(1)
		writeJSON(w, errResult(http.StatusBadRequest, msg))
		return
	}
	var rec *obs.Recorder
	if r.URL.Query().Get("trace") == "1" {
		rec = obs.New(obs.DefaultLimits)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitTimeout)
	defer cancel()
	writeJSON(w, s.admitOp(ctx, op, tks, traceID, rec, requestCluster(r)))
}

func (s *Shard) handleRemove(w http.ResponseWriter, r *http.Request) {
	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitTimeout)
	defer cancel()
	writeJSON(w, s.removeOp(ctx, r.PathValue("name"), traceID, requestCluster(r)))
}

// requestCluster re-derives the cluster name a routed request addressed —
// path form first, X-Cluster header second — so handlers can annotate WAL
// records and flight entries without a signature change on the route table.
func requestCluster(r *http.Request) string {
	if c := r.PathValue("cluster"); c != "" {
		return c
	}
	return r.Header.Get(clusterHeader)
}

func (s *Shard) handleAllocation(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	sys, alloc := s.sys, s.alloc
	s.mu.RUnlock()
	writeJSON(w, verdictResult(http.StatusOK, NewVerdict(sys, s.cfg.M, alloc, nil)))
}

func varsHandler(m fmt.Stringer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, m.String())
	})
}

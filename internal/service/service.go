package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/obs"

	// Every server links the pluggable admission policies, so a shard can
	// recover a WAL written under any of them.
	_ "fedsched/internal/reservation"
	_ "fedsched/internal/semifed"
	_ "fedsched/internal/typedfed"
)

// Config parameterizes a Server. The zero value of a field selects its
// default.
type Config struct {
	// M is the platform size (required, ≥ 1). Each shard admits against its
	// own M-processor platform.
	M int
	// Options selects the FEDCONS variant (zero value = the paper's
	// algorithm). All cached analyses are computed under these options.
	Options core.Options
	// QueueBound caps each shard's admission queue; beyond it requests are
	// shed with 429 + Retry-After. Default 64.
	QueueBound int
	// AdmitTimeout is the per-request context deadline applied to mutating
	// requests. Default 2s; negative values are rejected.
	AdmitTimeout time.Duration
	// FullRepartition disables the incremental Phase-2 warm path: every
	// mutation re-runs the full (memo-backed) FEDCONS analysis. The default
	// (false) serves untraced single low-density admissions and removals
	// from the shard's live partition state — byte-identical output, pinned
	// by the warm-path differential tests. No daemon flag sets it: it is the
	// oracle configuration those tests compare against.
	FullRepartition bool
	// Observer, when non-nil, is called synchronously from a shard's writer
	// loop after every completed admit/remove with that operation's summary
	// record. Single-writer execution makes the per-operation cache deltas
	// well-defined. Keep it fast: it runs on the admission path. The daemon
	// uses it for -v one-line summaries and the -audit JSONL log. With
	// multiple shards the Observer is shared and may be called concurrently
	// from different shards; the record's Shard field says which.
	Observer func(AdmissionRecord)

	// Shards is the number of independent admission domains the server runs
	// (default 1). Requests carry a cluster name — via the X-Cluster header
	// or a /v1/clusters/{cluster}/... path — and are routed to the shard
	// owning that cluster on a consistent-hash ring. Requests with no
	// cluster name all land on the shard owning "".
	Shards int
	// WALDir, when non-empty, makes every shard durable: shard i keeps an
	// append-only WAL and periodic snapshots under WALDir/shard-i, replayed
	// (and re-verified with core.Verify) on restart.
	WALDir string
	// SnapshotEvery is the per-shard mutation count between snapshots
	// (default store.DefaultSnapshotEvery). Requires WALDir.
	SnapshotEvery int

	// FlightRecorderSize is the per-shard flight-recorder capacity: how many
	// recent decision entries (all rejections, plus traced/sampled admits)
	// are retained for GET /debug/traces. 0 selects DefaultFlightEntries;
	// negative disables the recorder entirely.
	FlightRecorderSize int
	// SLOLatencyBudget is the per-admission latency budget the SLO burn-rate
	// metrics are computed against (client-visible latency, queue wait
	// included). 0 selects DefaultSLOLatencyBudget.
	SLOLatencyBudget time.Duration
	// SLOWindow is the rolling window over which burn rates are computed.
	// 0 selects DefaultSLOWindow.
	SLOWindow time.Duration
	// FlightSampleEvery makes one in this many untraced full-analysis
	// admissions record its complete decision trace into the flight recorder
	// (speculative tracing; the warm path is never affected). 0 selects
	// DefaultFlightSampleEvery; negative disables sampling, leaving only
	// client-traced requests with retained span trees.
	FlightSampleEvery int

	// Fleet lists the base URLs of every fedschedd process sharing the
	// cluster space, in a fixed order all members agree on; Self is this
	// process's index into it. A cluster first hashes to a fleet member —
	// requests for clusters owned elsewhere are answered with a 307 redirect
	// to that member — and only then to one of the member's local shards.
	// An empty Fleet (the default) means this process owns every cluster.
	Fleet []string
	Self  int
}

// AdmissionRecord summarizes one completed mutation for Config.Observer.
type AdmissionRecord struct {
	TraceID     string `json:"trace_id"`
	Shard       int    `json:"shard"` // which shard executed the mutation
	Op          string `json:"op"`    // "admit", "admit-batch" or "remove"
	Task        string `json:"task"`
	Status      int    `json:"status"`
	Schedulable bool   `json:"schedulable"`
	LatencyNs   int64  `json:"latency_ns"`
	CacheHits   int64  `json:"cache_hits"`   // Phase-1 memo hits during this operation
	CacheMisses int64  `json:"cache_misses"` // Phase-1 memo misses during this operation
	Tasks       int    `json:"tasks"`        // installed shard system size after the operation
}

// Server is the admission-control front end: a stateless consistent-hash
// router over Config.Shards shared-nothing Shard instances. Callers reach a
// shard's Admit, Remove, AdmitBatch, Snapshot and Cache through ShardFor;
// ShardFor("") is the default shard, which serves requests that name no
// cluster.
type Server struct {
	cfg     Config
	shards  []*Shard
	ring    *hashRing // cluster → local shard
	fleet   *hashRing // cluster → fleet member (nil without Config.Fleet)
	started time.Time

	slo      *sloState     // server-wide SLO ledger, shared by every shard
	registry *obs.Registry // fleet + SLO metric families for /metrics
}

// New starts a Server and its shards (including their writer loops and, with
// Config.WALDir, their snapshot+WAL recovery). Call Close to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("service: platform size must be ≥ 1, got %d", cfg.M)
	}
	if cfg.Options.Par < 0 {
		return nil, fmt.Errorf("service: analysis worker pool size must be ≥ 0, got %d", cfg.Options.Par)
	}
	pol, err := core.NormalizePolicy(cfg.Options.Policy)
	if err != nil {
		return nil, fmt.Errorf("service: %v", err)
	}
	cfg.Options.Policy = pol
	if cfg.QueueBound == 0 {
		cfg.QueueBound = 64
	}
	if cfg.QueueBound < 1 {
		return nil, fmt.Errorf("service: queue bound must be ≥ 1, got %d", cfg.QueueBound)
	}
	if cfg.AdmitTimeout == 0 {
		cfg.AdmitTimeout = 2 * time.Second
	}
	if cfg.AdmitTimeout < 0 {
		return nil, fmt.Errorf("service: admission timeout must be ≥ 0, got %v", cfg.AdmitTimeout)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("service: shard count must be ≥ 1, got %d", cfg.Shards)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("service: snapshot cadence must be ≥ 0, got %d", cfg.SnapshotEvery)
	}
	if cfg.SnapshotEvery > 0 && cfg.WALDir == "" {
		return nil, fmt.Errorf("service: snapshot cadence requires a WAL directory")
	}
	if cfg.FlightSampleEvery == 0 {
		cfg.FlightSampleEvery = DefaultFlightSampleEvery
	}
	if len(cfg.Fleet) > 0 && (cfg.Self < 0 || cfg.Self >= len(cfg.Fleet)) {
		return nil, fmt.Errorf("service: fleet self index %d out of range for %d members", cfg.Self, len(cfg.Fleet))
	}
	s := &Server{
		cfg:     cfg,
		ring:    newHashRing(cfg.Shards),
		started: time.Now(),
		slo:     newSLOState(cfg.SLOLatencyBudget, cfg.SLOWindow),
	}
	if len(cfg.Fleet) > 1 {
		s.fleet = newHashRing(len(cfg.Fleet))
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, cfg)
		if err != nil {
			for _, prev := range s.shards {
				prev.Close()
			}
			return nil, err
		}
		// Safe un-locked: the shard cannot receive a request until New
		// returns (its channel send establishes the happens-before).
		sh.slo = s.slo
		s.shards = append(s.shards, sh)
	}
	s.registry = s.fleetRegistry()
	return s, nil
}

// Close stops every shard. It is idempotent.
func (s *Server) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Shards returns the server's shards in index order.
func (s *Server) Shards() []*Shard { return s.shards }

// ShardFor returns the shard owning the given cluster name.
func (s *Server) ShardFor(cluster string) *Shard {
	return s.shards[s.ring.owner(cluster)]
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	tasks := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		tasks += len(sh.sys)
		sh.mu.RUnlock()
	}
	resp := map[string]any{
		"status":   "ok",
		"tasks":    tasks,
		"uptime_s": int64(time.Since(s.started).Seconds()),
	}
	if len(s.shards) > 1 {
		resp["shards"] = len(s.shards)
	}
	body, _ := json.Marshal(resp)
	writeJSON(w, opResult{status: http.StatusOK, body: append(body, '\n')})
}

func writeJSON(w http.ResponseWriter, res opResult) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if res.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(1))
		if res.body == nil {
			res = errResult(http.StatusTooManyRequests, "admission queue full; retry later")
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func verdictResult(status int, v Verdict) opResult {
	body, err := v.Encode()
	if err != nil {
		return errResult(http.StatusInternalServerError, "encoding verdict: "+err.Error())
	}
	return opResult{status: status, body: body}
}

func errResult(status int, msg string) opResult {
	body, _ := json.Marshal(map[string]string{"error": msg})
	return opResult{status: status, body: append(body, '\n')}
}

// errResultTrace is errResult with the request's trace ID in the body.
func errResultTrace(status int, msg, traceID string) opResult {
	if traceID == "" {
		return errResult(status, msg)
	}
	body, _ := json.Marshal(map[string]string{"error": msg, "trace_id": traceID})
	return opResult{status: status, body: append(body, '\n')}
}

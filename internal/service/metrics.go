package service

import (
	"expvar"

	"fedsched/internal/obs"
)

// metrics holds one shard's counters. Each Shard owns its own expvar.Map
// rather than publishing into the process-global expvar namespace, so a
// process (a test, say) can hold many servers without Publish collisions;
// /debug/vars renders the map(s).
//
// Admission latency is an obs.Histogram — the same log-bucketed implementation
// the rest of the pipeline uses — which replaced an earlier bespoke sample
// ring whose quantile estimator used floor(p·(n−1)) indexing and so
// under-reported tail quantiles on small windows (obs.Histogram.Quantile is
// ceil nearest-rank).
type metrics struct {
	admits     expvar.Int // tasks accepted and installed (batch members count singly)
	batches    expvar.Int // batch admissions accepted atomically
	rejects    expvar.Int // admissions rejected by the FEDCONS analysis
	removes    expvar.Int // tasks removed
	shed       expvar.Int // requests dropped by queue-bound load shedding
	timeouts   expvar.Int // requests whose deadline expired before analysis
	errors     expvar.Int // malformed requests, duplicate names, failed removals (404/409), audit/WAL/snapshot failures
	walAppends expvar.Int // mutation records fsynced to the write-ahead log
	snapshots  expvar.Int // snapshots written (each truncates the WAL)
	latency    obs.Histogram
}

// vars assembles the /debug/vars map for a shard. The WAL keys appear only
// on durable shards, so a non-durable single-shard server exposes exactly
// the pre-shard key set.
func (s *Shard) vars() *expvar.Map {
	m := new(expvar.Map).Init()
	m.Set("admits_total", &s.met.admits)
	m.Set("batch_admits_total", &s.met.batches)
	m.Set("rejects_total", &s.met.rejects)
	m.Set("removes_total", &s.met.removes)
	m.Set("shed_total", &s.met.shed)
	m.Set("timeouts_total", &s.met.timeouts)
	m.Set("errors_total", &s.met.errors)
	m.Set("queue_depth", expvar.Func(func() any { return len(s.reqs) }))
	m.Set("queue_bound", expvar.Func(func() any { return cap(s.reqs) }))
	m.Set("tasks", expvar.Func(func() any {
		sys, _ := s.Snapshot()
		return len(sys)
	}))
	m.Set("cache_entries", expvar.Func(func() any { return s.cache.Len() }))
	m.Set("cache_hits", expvar.Func(func() any { h, _ := s.cache.Stats(); return h }))
	m.Set("cache_misses", expvar.Func(func() any { _, mi := s.cache.Stats(); return mi }))
	m.Set("cache_hit_rate", expvar.Func(func() any {
		h, mi := s.cache.Stats()
		if h+mi == 0 {
			return 0.0
		}
		return float64(h) / float64(h+mi)
	}))
	if s.store != nil {
		m.Set("wal_appends_total", &s.met.walAppends)
		m.Set("wal_snapshots_total", &s.met.snapshots)
		m.Set("wal_seq", expvar.Func(func() any { return int64(s.store.Seq()) }))
	}
	m.Set("admit_latency_p50_ns", expvar.Func(func() any { return s.met.latency.Quantile(0.50) }))
	m.Set("admit_latency_p99_ns", expvar.Func(func() any { return s.met.latency.Quantile(0.99) }))
	m.Set("admit_latency_p999_ns", expvar.Func(func() any { return s.met.latency.Quantile(0.999) }))
	return m
}

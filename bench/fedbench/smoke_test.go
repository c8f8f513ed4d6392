package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"fedsched/internal/service"
	"fedsched/internal/store"
)

// TestWorkloadsSmoke drives every workload for a few hundred ops against an
// in-process server over HTTP, brings it to the crash state, and runs every
// correctness check the benchmark runs: WAL accounting, the core.Schedule
// oracle on a copy of the WAL, byte-identical recovery, and the traced
// replay's byte-identity with its twin.
func TestWorkloadsSmoke(t *testing.T) {
	const opsPerSender, replayOps = 100, 60
	for i := range workloads {
		w := workloads[i]
		w.replayOps = replayOps
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg, err := w.serviceConfig(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			p, err := makePlan(&w, 5, loopOps{seq: opsPerSender, open: opsPerSender})
			if err != nil {
				t.Fatal(err)
			}
			svc, srv, tg := serve(t, cfg)
			if p.seedBody != nil {
				status, body, err := tg.send(http.MethodPost, "/v1/admit/batch", "", p.seedBody, true)
				if err != nil || status != http.StatusOK {
					t.Fatalf("seed batch: %d %v %.200s", status, err, body)
				}
			}
			ss := make([]*sender, senders)
			for s := range ss {
				ss[s] = &sender{id: s, cluster: p.clusters[s]}
			}
			// The sequential loop ends when its ops run out; an unreachable
			// rate sends every open-loop op as soon as its sender is free.
			pr, err := startProbe(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer pr.close()
			stats, err := seqLoop(tg, ss, p.seq, 0, time.Hour, pr)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.probeMs) == 0 {
				t.Error("the sequential loop ran no host probes")
			}
			stats.merge(openLoop(tg, ss, p.open, 1e9, 0))
			if stats.failed != 0 || stats.attempted == 0 {
				t.Fatalf("%d of %d requests failed", stats.failed, stats.attempted)
			}

			var c checks
			vars, err := fetchVars(tg, w.shards)
			if err != nil {
				t.Fatal(err)
			}
			crashOK, err := crashState(tg, &w, ss, vars)
			if err != nil {
				t.Fatal(err)
			}
			if vars, err = fetchVars(tg, w.shards); err != nil {
				t.Fatal(err)
			}
			for shard, v := range vars {
				if tail := v.WALSeq % store.DefaultSnapshotEvery; tail != crashTail {
					t.Errorf("shard %d crash state: %d WAL records past the last snapshot, want %d", shard, tail, crashTail)
				}
			}
			seedRecords := 0
			if p.seedBody != nil {
				seedRecords = 1
			}
			c.checkAccounting(stats.ok200+crashOK, seedRecords, vars)
			owners := shardCluster(p, w.shards)
			served, err := allocations(tg, owners)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.checkOracle(&w, cfg.WALDir, filepath.Join(dir, "oracle"), served); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			svc.Close()
			svc, srv, tg = serve(t, cfg)
			after, err := allocations(tg, owners)
			if err != nil {
				t.Fatal(err)
			}
			c.checkSame("recovery", served, after)
			srv.Close()
			svc.Close()

			rr, err := replay(&w, p, 5, filepath.Join(dir, "replay"), &c)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range c.failures {
				t.Error(f)
			}
			lm := layerMetrics(rr)
			if lm["shard.admit_p50_us"] <= 0 || lm["wal.records_per_op"] <= 0 || lm["encode.p50_us"] <= 0 {
				t.Errorf("replay measured no admits, WAL appends or encodes: %v", lm)
			}
			switch w.name {
			case "warm-low":
				if lm["phase2.warm_share"] < 0.9 {
					t.Errorf("warm-low: warm path served %.2f of mutations, want nearly all", lm["phase2.warm_share"])
				}
			case "cold-high":
				if lm["phase2.warm_share"] != 0 || lm["minprocs.calls_per_op"] == 0 {
					t.Errorf("cold-high: warm share %.2f, MINPROCS calls per op %.2f; want the full path only",
						lm["phase2.warm_share"], lm["minprocs.calls_per_op"])
				}
			case "typed-low":
				if lm["phase2.warm_share"] != 0 || lm["analyze.p50_us"] == 0 {
					t.Errorf("typed-low: warm share %.2f, analyze p50 %.1fµs; want every mutation analyzed in full",
						lm["phase2.warm_share"], lm["analyze.p50_us"])
				}
			}
		})
	}
}

func serve(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *target) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	tg := newTarget(srv.URL)
	t.Cleanup(func() {
		tg.close()
		srv.Close()
		svc.Close()
	})
	return svc, srv, tg
}

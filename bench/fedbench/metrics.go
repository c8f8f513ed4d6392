package main

import (
	"time"

	"fedsched/internal/stats"
)

// endToEnd are the metrics a deployment controller sees, measured untraced
// against the real daemon. BENCHMARK.json gates each of them.
var endToEnd = []metricDef{
	{"admit_p50_ms", "ms"},
	{"remove_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"verdict_share", "ratio"},
	{"setup_s", "s"},
	{"recover_s", "s"},
}

// perLayer are the per-stage metrics of the traced replay, plus the daemon's
// own counters, the host probe, the generator's validity numbers, the
// sequential loop's p90s, the closed loop's throughput and the open loop's
// latencies. The p90s, throughput and open-loop latencies are end-to-end
// numbers printed but not gated: on the 2-vCPU host the benchmark was defined
// on they moved between runs by more than any bound BENCHMARK.json may set.
var perLayer = []metricDef{
	{"admit_p90_ms", "ms"},
	{"remove_p90_ms", "ms"},
	{"raw.admit_p50_ms", "ms"},
	{"raw.remove_p50_ms", "ms"},
	{"raw.read_p50_ms", "ms"},
	{"raw.setup_s", "s"},
	{"raw.recover_s", "s"},
	{"host.probe_p50_ms", "ms"},
	{"host.setup_probe_p50_ms", "ms"},
	{"host.recover_probe_p50_ms", "ms"},
	{"decode.p50_us", "us"},
	{"decode.body_bytes_p50", "B"},
	{"handoff.p50_us", "us"},
	{"hash.p50_us", "us"},
	{"hash.calls_per_op", "calls/op"},
	{"cache.hit_ratio", "ratio"},
	{"width.p50_us", "us"},
	{"width.calls_per_op", "calls/op"},
	{"minprocs.p50_us", "us"},
	{"minprocs.calls_per_op", "calls/op"},
	{"minprocs.ls_runs_per_call", "runs/call"},
	{"phase2.full_p50_us", "us"},
	{"phase2.incr_p50_us", "us"},
	{"phase2.rebuild_p50_us", "us"},
	{"phase2.warm_share", "ratio"},
	{"verify.full_p50_us", "us"},
	{"verify.delta_p50_us", "us"},
	{"analyze.p50_us", "us"},
	{"wal.p50_us", "us"},
	{"wal.p90_us", "us"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.records_per_op", "records/op"},
	{"snapshot.p50_us", "us"},
	{"snapshot.per_1k_ops", "1/kop"},
	{"recover.open_us", "us"},
	{"recover.analyze_us", "us"},
	{"encode.p50_us", "us"},
	{"encode.bytes_p50", "B"},
	{"other.p50_us", "us"},
	{"shard.admit_p50_us", "us"},
	{"shard.remove_p50_us", "us"},
	{"server.admit_p50_us", "us"},
	{"http.overhead_p50_us", "us"},
	{"decomp.stage_sum_over_shard", "ratio"},
	{"decomp.shard_over_e2e", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"throughput_ops_s", "ops/s"},
	{"client.gen_lag_p90_ms", "ms"},
	{"client.admit_p50_ms", "ms"},
	{"client.remove_p50_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.admit_p90_ms", "ms"},
	{"client.remove_p90_ms", "ms"},
	{"client.admit_p99_ms", "ms"},
	{"client.admit_p999_ms", "ms"},
	{"client.samples", "count"},
	{"client.admit_reject_share", "ratio"},
}

type metricDef struct {
	name, unit string
}

// loadMetrics derives the end-to-end metrics of the untraced daemon run, and
// the open loop's medians and p90s. The gated latency quantiles come from the
// sequential loop, throughput from the closed loop, and the verdict share
// from all three loops. Gated times are brought to the nominal host by the
// probes of their phase; the raw.* metrics are the times as measured.
func loadMetrics(seq, open, closed *phaseStats, closedDur time.Duration, setup, recover *timed) map[string]float64 {
	attempted := seq.attempted + open.attempted + closed.attempted
	failed := seq.failed + open.failed + closed.failed
	share := 1.0
	if attempted > 0 {
		share = 1 - float64(failed)/float64(attempted)
	}
	q := func(st *phaseStats, k opKind, p float64) float64 { return quantile(sortedCopy(st.lat[k]), p) }
	scale := hostScale(seq.probeMs)
	return map[string]float64{
		"admit_p50_ms":              q(seq, opAdmit, 0.5) * scale,
		"admit_p90_ms":              q(seq, opAdmit, 0.9) * scale,
		"remove_p50_ms":             q(seq, opRemove, 0.5) * scale,
		"remove_p90_ms":             q(seq, opRemove, 0.9) * scale,
		"read_p50_ms":               q(seq, opRead, 0.5) * scale,
		"throughput_ops_s":          float64(closed.mutations) / closedDur.Seconds(),
		"verdict_share":             share,
		"setup_s":                   median(setup.scaled),
		"recover_s":                 median(recover.scaled),
		"raw.admit_p50_ms":          q(seq, opAdmit, 0.5),
		"raw.remove_p50_ms":         q(seq, opRemove, 0.5),
		"raw.read_p50_ms":           q(seq, opRead, 0.5),
		"raw.setup_s":               median(setup.times),
		"raw.recover_s":             median(recover.times),
		"host.probe_p50_ms":         median(seq.probeMs),
		"host.setup_probe_p50_ms":   median(setup.probeMs),
		"host.recover_probe_p50_ms": median(recover.probeMs),
		"client.admit_p50_ms":       q(open, opAdmit, 0.5),
		"client.remove_p50_ms":      q(open, opRemove, 0.5),
		"client.read_p50_ms":        q(open, opRead, 0.5),
		"client.admit_p90_ms":       q(open, opAdmit, 0.9),
		"client.remove_p90_ms":      q(open, opRemove, 0.9),
	}
}

// layerMetrics reduces the replay's span tree to per-layer self times and
// counts. Every layer span is a direct child of its op's root span, so a
// span's duration is its self time.
//
// The decomposition is taken over admits, in means, because means add up:
// the layers' mean self times per admit, "other" included, sum to the mean
// traced admit, which is held against the twin's mean Shard.Admit. Decode is
// left out of both sides, because Shard.Admit takes a decoded task.
func layerMetrics(rr *replayResult) map[string]float64 {
	self := map[string][]float64{}
	var decodeBytes, encodeBytes, snapWrote, handoffs, traced []float64
	var mutations, lsRuns int
	for _, root := range rr.rec.Roots() {
		kind, _ := root.Lookup("op")
		if kind.Str() == "seed" {
			continue
		}
		if kind.Str() != opRead.String() {
			mutations++
		}
		// "other" is the root's self time: the glue between layers, such as
		// cloning the trial system and installing the new state.
		stages := map[string]float64{"other": us(root.Duration())}
		for _, sp := range root.Children() {
			d := us(sp.Duration())
			self[sp.Name()] = append(self[sp.Name()], d)
			stages[sp.Name()] += d
			stages["other"] -= d
			switch sp.Name() {
			case "decode":
				b, _ := sp.Lookup("bytes")
				decodeBytes = append(decodeBytes, b.Float64())
			case "encode":
				b, _ := sp.Lookup("bytes")
				encodeBytes = append(encodeBytes, b.Float64())
			case "minprocs":
				r, _ := sp.Lookup("ls_runs")
				lsRuns += int(r.Int64())
			case "snapshot":
				if w, _ := sp.Lookup("wrote"); w.Bool() {
					snapWrote = append(snapWrote, d)
				}
			}
		}
		self["other"] = append(self["other"], stages["other"])
		if h, ok := stages["handoff"]; ok {
			handoffs = append(handoffs, h)
		}
		if kind.Str() == opAdmit.String() {
			traced = append(traced, us(root.Duration())-stages["decode"])
		}
	}
	p50 := func(name string) float64 { return quantile(sortedCopy(self[name]), 0.5) }
	perOp := func(n int) float64 {
		if mutations == 0 {
			return 0
		}
		return float64(n) / float64(mutations)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	shardMed := quantile(sortedCopy(rr.shardAdmit), 0.5)
	return map[string]float64{
		"decode.p50_us":               p50("decode"),
		"decode.body_bytes_p50":       quantile(sortedCopy(decodeBytes), 0.5),
		"handoff.p50_us":              quantile(sortedCopy(handoffs), 0.5),
		"hash.p50_us":                 p50("hash"),
		"hash.calls_per_op":           perOp(len(self["hash"])),
		"width.p50_us":                p50("width"),
		"width.calls_per_op":          perOp(len(self["width"])),
		"minprocs.p50_us":             p50("minprocs"),
		"minprocs.calls_per_op":       perOp(len(self["minprocs"])),
		"minprocs.ls_runs_per_call":   ratio(float64(lsRuns), float64(len(self["minprocs"]))),
		"phase2.full_p50_us":          p50("phase2.full"),
		"phase2.incr_p50_us":          p50("phase2.incr"),
		"phase2.rebuild_p50_us":       p50("phase2.rebuild"),
		"phase2.warm_share":           perOp(len(self["phase2.incr"])),
		"verify.full_p50_us":          p50("verify.full"),
		"verify.delta_p50_us":         p50("verify.delta"),
		"analyze.p50_us":              p50("analyze"),
		"wal.p50_us":                  p50("wal"),
		"wal.p90_us":                  quantile(sortedCopy(self["wal"]), 0.9),
		"wal.bytes_per_op":            perOp(rr.walBytes),
		"wal.records_per_op":          perOp(len(self["wal"])),
		"snapshot.p50_us":             quantile(sortedCopy(snapWrote), 0.5),
		"snapshot.per_1k_ops":         1000 * perOp(len(snapWrote)),
		"recover.open_us":             rr.recoverOpen,
		"recover.analyze_us":          rr.recoverAnalyze,
		"encode.p50_us":               p50("encode"),
		"encode.bytes_p50":            quantile(sortedCopy(encodeBytes), 0.5),
		"other.p50_us":                p50("other"),
		"shard.admit_p50_us":          shardMed,
		"shard.remove_p50_us":         quantile(sortedCopy(rr.shardRem), 0.5),
		"decomp.stage_sum_over_shard": ratio(stats.Mean(traced), stats.Mean(rr.shardAdmit)),
		"trace.overhead_share":        ratio(quantile(sortedCopy(traced), 0.5)-shardMed, shardMed),
	}
}

// daemonMetrics are the per-layer numbers read from the daemon and the
// generator: the daemon's own admit latency (its histogram's power-of-two
// bucket bound, averaged over shards) and Phase-1 cache, and how well the
// open loop kept its schedule.
func daemonMetrics(vars []shardVars, open *phaseStats) map[string]float64 {
	var server float64
	var hits, misses int64
	for _, v := range vars {
		server += float64(v.AdmitP50Ns) / float64(time.Microsecond) / float64(len(vars))
		hits += v.CacheHits
		misses += v.CacheMisses
	}
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	admit := sortedCopy(open.lat[opAdmit])
	rejectShare := 0.0
	if len(admit) > 0 {
		rejectShare = float64(open.rejected) / float64(len(admit))
	}
	return map[string]float64{
		"client.admit_reject_share": rejectShare,
		"cache.hit_ratio":           hitRatio,
		"server.admit_p50_us":       server,
		"client.gen_lag_p90_ms":     quantile(sortedCopy(open.lagMs), 0.9),
		"client.admit_p99_ms":       quantile(admit, 0.99),
		"client.admit_p999_ms":      quantile(admit, 0.999),
		"client.samples":            float64(len(admit)),
	}
}

// Command fedbench is the fedschedd admission benchmark. For each workload it
// builds ./cmd/fedschedd and boots it seven times from an empty WAL directory
// (set-up: exec → healthz → seed batch answered). From one process with two
// senders it drives the last boot untraced, first one request at a time
// (the sequential loop, which the gated latencies come from), then in an
// open loop at the workload's fixed rate. It brings the daemon to a fixed
// crash state, kills and restarts it fifteen times on its WAL (recovery), and
// drives it in a closed loop. It checks every acknowledged mutation against
// the WAL, every recovery against the pre-crash allocation, and the final
// allocation against core.Schedule on the WAL. Gated times are scaled by a
// host probe timed next to them (see probe.go).
// With -trace 1 it then replays the op stream in-process through a twin
// shard and through a span-traced mirror of the shard's pipeline, for the
// per-layer numbers.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload warm-low --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh -seed 1                     # every workload
//	bash bench/run.sh -compare A.jsonl B.jsonl    # median deltas vs bounds
//
// Every metric is printed as "workload metric value unit"; the last line of
// standard output is one JSON object with the run's correctness, request
// counts and metrics (end-to-end with -trace 0, per-layer with -trace 1).
// Each run is also appended to a JSONL run file for -compare. A failed
// correctness check makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fedsched/internal/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runRecord is one run as stored in a run file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Valid     bool               `json:"valid"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Host      perfgate.Host      `json:"host"`
	Metrics   map[string]float64 `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: warm-low, cold-high, mixed-2shard, typed-low or all")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 16, "measured seconds per run: 5/8 in the sequential loop, the rest split between the open and closed loops")
		trace   = fs.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
		root    = fs.String("root", ".", "repository root holding cmd/fedschedd and BENCHMARK.json")
		runFile = fs.String("runs", "", "append each run as a JSON line to this file (default <root>/.bench_build/fedbench/runs.jsonl)")
		compare = fs.Bool("compare", false, "compare two run files given as arguments: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The daemon is built in root and run from the caller's directory, so
	// every path below root must be absolute.
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 2
	}
	*root = abs
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "fedbench: -compare takes two run files")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "fedbench: want -seconds ≥ 1, -trace 0 or 1, and no arguments")
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "fedbench:", err)
			return 2
		}
		todo = append(todo, w)
	}
	if *runFile == "" {
		*runFile = filepath.Join(*root, ".bench_build", "fedbench", "runs.jsonl")
	}
	status := 0
	for _, w := range todo {
		rec, err := runWorkload(w, *root, *seed, *seconds, *trace == 1, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fedbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := appendRun(*runFile, rec); err != nil {
			fmt.Fprintln(stderr, "fedbench:", err)
			return 1
		}
		defs := endToEnd
		if rec.Trace == 1 {
			defs = perLayer
		}
		line, err := resultLine(rec, defs)
		if err != nil {
			fmt.Fprintln(stderr, "fedbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// setupBoots and restarts are how many set-up and recovery times a run takes
// the median of.
const setupBoots, restarts = 7, 15

// seqWarm, openWarm and closedWarm lead each loop unmeasured: a freshly
// started daemon runs its first seconds measurably slower (runtime heap
// growth, page faults, new connections), and the closed loop follows a
// restart.
const seqWarm, openWarm, closedWarm = 2 * time.Second, time.Second, time.Second

// runWorkload performs one run of w and prints its metrics.
func runWorkload(w *workload, root string, seed int64, seconds int, traced bool, stdout, stderr io.Writer) (*runRecord, error) {
	base := filepath.Join(root, ".bench_build", "fedbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin, err := buildDaemon(root, work)
	if err != nil {
		return nil, err
	}
	total := time.Duration(seconds) * time.Second
	seqDur := total * 5 / 8
	openDur := (total - seqDur) / 2
	closedDur := total - seqDur - openDur
	pl, err := makePlan(w, seed, w.opCounts(seqWarm+seqDur, openWarm+openDur, closedWarm+closedDur))
	if err != nil {
		return nil, err
	}

	pr, err := startProbe(work)
	if err != nil {
		return nil, err
	}
	defer pr.close()

	var c checks
	d, setup, err := setUp(bin, work, w, pl.seedBody, pr)
	if d != nil {
		defer d.kill()
	}
	if err != nil {
		return nil, err
	}
	seedRecords := 0
	if pl.seedBody != nil {
		seedRecords = 1
	}

	ss := make([]*sender, senders)
	for i := range ss {
		ss[i] = &sender{id: i, cluster: pl.clusters[i]}
	}
	seq, err := seqLoop(d.t, ss, pl.seq, seqWarm, seqDur, pr)
	if err != nil {
		return nil, err
	}
	open := openLoop(d.t, ss, pl.open, w.rate, openWarm)
	vars, err := fetchVars(d.t, w.shards)
	if err != nil {
		return nil, err
	}
	// Recovery sits between the open and closed loops, on the crash state.
	crashOK, err := crashState(d.t, w, ss, vars)
	if err != nil {
		return nil, err
	}
	crashed, err := fetchVars(d.t, w.shards)
	if err != nil {
		return nil, err
	}
	c.checkAccounting(seq.ok200+open.ok200+crashOK, seedRecords, crashed)
	owners := shardCluster(pl, w.shards)
	served, err := allocations(d.t, owners)
	if err != nil {
		return nil, err
	}
	recovery, err := restart(d, owners, served, &c, pr)
	if err != nil {
		return nil, err
	}
	cleared := 0
	for _, s := range ss {
		n, err := s.clear(d.t)
		if err != nil {
			return nil, err
		}
		cleared += n
	}

	closed := closedLoop(d.t, ss, pl.closed, closedWarm, closedDur)
	after, err := fetchVars(d.t, w.shards)
	if err != nil {
		return nil, err
	}
	c.checkAccounting(cleared+closed.ok200, 0, after)
	final, err := allocations(d.t, owners)
	if err != nil {
		return nil, err
	}
	if err := c.checkOracle(w, d.walDir, filepath.Join(work, "oracle"), final); err != nil {
		return nil, err
	}
	d.kill()

	metrics := loadMetrics(seq, open, closed, closedDur, setup, recovery)
	for k, v := range daemonMetrics(vars, open) {
		metrics[k] = v
	}
	if traced {
		rr, err := replay(w, pl, seed, filepath.Join(work, "replay"), &c)
		if err != nil {
			return nil, err
		}
		for k, v := range layerMetrics(rr) {
			metrics[k] = v
		}
		// The in-process vs HTTP gap: what the daemon's admit median, as
		// measured, adds to the twin shard's, and the shard's share of it.
		e2e, shard := 1000*metrics["raw.admit_p50_ms"], metrics["shard.admit_p50_us"]
		metrics["http.overhead_p50_us"] = e2e - shard
		metrics["decomp.shard_over_e2e"] = shard / e2e
		spans := filepath.Join(base, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(rr.rec, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "fedbench: %s: %d spans written to %s\n", w.name, rr.rec.Len(), spans)
	}

	rec := &runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Host: perfgate.CurrentHost(), Metrics: metrics,
		Valid:     metrics["client.gen_lag_p90_ms"] <= 1 && !closed.exhausted,
		Correct:   c.ok(),
		Failures:  c.failures,
		Attempted: seq.attempted + open.attempted + closed.attempted,
		Failed:    seq.failed + open.failed + closed.failed,
	}
	if traced {
		rec.Trace = 1
	}
	report(stdout, stderr, rec, seq, open)
	return rec, nil
}

// timed is a phase timed several times. A burst of host probes brackets
// each time, half before and half after, and scales it.
type timed struct {
	times   []float64 // seconds, as measured
	scaled  []float64 // seconds, brought to the nominal host
	probeMs []float64 // every probe of the phase
}

// before runs the probes ahead of a timing and returns how many it ran.
func (t *timed) before(pr *probe) (int, error) {
	n := len(t.probeMs)
	return n, pr.burst(probeBurst/2, &t.probeMs)
}

// after runs the probes behind a timing of sec seconds, whose probes began at
// index from, and records the timing.
func (t *timed) after(pr *probe, from int, sec float64) error {
	if err := pr.burst(probeBurst/2, &t.probeMs); err != nil {
		return err
	}
	t.times = append(t.times, sec)
	t.scaled = append(t.scaled, sec*hostScale(t.probeMs[from:]))
	return nil
}

// setUp boots the daemon setupBoots times, each from an empty WAL directory,
// and times each boot from exec until the seed batch is answered. The last
// boot keeps running and is returned.
func setUp(bin, work string, w *workload, seedBody []byte, pr *probe) (*daemon, *timed, error) {
	var d *daemon
	var ph timed
	for i := 0; i < setupBoots; i++ {
		if d != nil {
			d.kill()
		}
		from, err := ph.before(pr)
		if err != nil {
			return d, nil, err
		}
		d = &daemon{bin: bin, args: w.daemonArgs(), walDir: filepath.Join(work, fmt.Sprintf("wal-%d", i)), dir: work}
		t0 := time.Now()
		if _, err := d.start(); err != nil {
			return d, nil, err
		}
		if seedBody != nil {
			status, body, err := d.t.send(http.MethodPost, "/v1/admit/batch", "", seedBody, true)
			if err != nil {
				return d, nil, fmt.Errorf("seed batch: %w", err)
			}
			if status != http.StatusOK {
				return d, nil, fmt.Errorf("seed batch answered %d: %.300s", status, body)
			}
		}
		if err := ph.after(pr, from, time.Since(t0).Seconds()); err != nil {
			return d, nil, err
		}
	}
	return d, &ph, nil
}

// restart kills the daemon with SIGKILL and restarts it on its WAL directory
// restarts times, timing each restart until healthz answers. Every restart
// must serve the allocations served before the first kill.
func restart(d *daemon, owners []string, served [][]byte, c *checks, pr *probe) (*timed, error) {
	var ph timed
	for i := 0; i < restarts; i++ {
		from, err := ph.before(pr)
		if err != nil {
			return nil, err
		}
		d.kill()
		dur, err := d.start()
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		if err := ph.after(pr, from, dur.Seconds()); err != nil {
			return nil, err
		}
		after, err := allocations(d.t, owners)
		if err != nil {
			return nil, err
		}
		c.checkSame("recovery", served, after)
	}
	return &ph, nil
}

// report prints every metric of a run as "workload metric value unit", the
// tails of the sequential and open-loop latency distributions, and any
// failed check.
func report(stdout, stderr io.Writer, rec *runRecord, seq, open *phaseStats) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := rec.Metrics[d.name]; ok {
				fmt.Fprintf(stdout, "%s %s %s %s\n", rec.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
			}
		}
	}
	for _, loop := range []struct {
		prefix string
		st     *phaseStats
	}{{"", seq}, {"client.", open}} {
		for k, xs := range loop.st.lat {
			s := sortedCopy(xs)
			if p := tailPercentile(len(s)); p > 0 {
				fmt.Fprintf(stdout, "%s %s%s_tail_ms %s ms (p%s, the highest percentile with ≥10 samples beyond it; n=%d)\n",
					rec.Workload, loop.prefix, opKind(k), strconv.FormatFloat(quantile(s, p), 'g', -1, 64), strconv.FormatFloat(100*p, 'g', -1, 64), len(s))
			}
		}
	}
	if !rec.Valid {
		fmt.Fprintf(stdout, "%s INVALID: generator lag p90 %.3f ms > 1 ms or closed-loop stream exhausted; do not score this run\n",
			rec.Workload, rec.Metrics["client.gen_lag_p90_ms"])
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stderr, "fedbench: %s: check failed: %s\n", rec.Workload, f)
	}
}

// resultLine is the final JSON line: correctness, request counts and the
// metrics of defs.
func resultLine(rec *runRecord, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{rec.Metrics[d.name], d.unit}
	}
	attempted := rec.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, attempted, rec.Failed, ms})
	return string(b), err
}

func appendRun(path string, rec *runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

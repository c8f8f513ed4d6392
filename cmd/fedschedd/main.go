// Command fedschedd is the online admission-control daemon for Algorithm
// FEDCONS: a long-running HTTP service that holds a live constrained-deadline
// DAG task system and trial-admits tasks with the full two-phase test,
// backed by a content-addressed cache of Phase-1 MINPROCS analyses.
//
// Usage:
//
//	fedschedd [flags]                 # serve
//	fedschedd -wal-dump <path>        # print a WAL's records as JSON lines
//
// Endpoints:
//
//	POST   /v1/admit        trial-admit a DAG task (task JSON as produced by
//	                        cmd/taskgen; 200 = installed, 409 = rejected;
//	                        ?trace=1 embeds the FEDCONS decision trace)
//	POST   /v1/admit/batch  trial-admit {"tasks": [...]} atomically: all
//	                        installed or none; cold Phase-1 analyses run on
//	                        the -par worker pool
//	DELETE /v1/tasks/{name} remove an admitted task
//	GET    /v1/allocation   current verdict + allocation (same bytes as
//	                        `fedsched -o json` for the same system)
//	GET    /v1/healthz      liveness
//	GET    /debug/vars      metrics (admits, rejects, cache hit rate,
//	                        admission latency p50/p99/p999, queue depth)
//	GET    /debug/traces    flight recorder: recent decision traces, JSONL
//	GET    /debug/traces/{id}  one retained decision trace by trace ID
//	GET    /metrics         the same metrics in Prometheus text exposition,
//	                        plus fleet sums and SLO burn-rate gauges
//
// Every mutating response carries an X-Trace-Id header; -v logs a one-line
// summary per admission, -audit appends a JSONL audit trail, and -debug-addr
// serves net/http/pprof on a separate listener.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains in-flight
// admissions, and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fedsched/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fedschedd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fedschedd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		addrfile     = fs.String("addrfile", "", "write the resolved listen address to this file once bound")
		m            = fs.Int("m", 8, "platform size (identical unit-speed processors)")
		minprocs     = fs.String("minprocs", "ls-scan", "MINPROCS variant: ls-scan (paper) or analytic")
		prio         = fs.String("priority", "insertion", "LS list order: insertion, longest-path, largest-wcet")
		heuristic    = fs.String("partition", "first-fit", "partition heuristic: first-fit (paper), best-fit, worst-fit")
		admission    = fs.String("admission", "dbf-approx", "partition admission test: dbf-approx (paper), edf-exact or dm-rta")
		policy       = fs.String("policy", "fedcons", "admission policy: fedcons (paper), semi, reservation or typed; persisted in snapshots so a shard recovers under the policy it ran")
		mtypesF      = fs.String("m-types", "", "typed platform: per-type processor budgets, e.g. a:4,b:4 (requires -policy=typed; must sum to -m)")
		queue        = fs.Int("queue", 64, "admission queue bound; beyond it requests are shed with 429")
		shards       = fs.Int("shards", 1, "independent admission domains (clusters route to shards by consistent hashing)")
		walDir       = fs.String("wal-dir", "", "if set, make shards durable: WAL + snapshots under this directory, replayed on restart")
		snapEvery    = fs.Int("snapshot-every", 0, "mutations between per-shard snapshots (0 = default cadence; requires -wal-dir)")
		fleet        = fs.String("fleet", "", "comma-separated base URLs of every fleet member; foreign-owned clusters answer 307 to their owner")
		fleetSelf    = fs.Int("fleet-self", 0, "this process's index into -fleet")
		flightSize   = fs.Int("flight-recorder", 0, "per-shard flight-recorder entries for GET /debug/traces (0 = default, negative disables)")
		flightSample = fs.Int("flight-sample", 0, "record a full decision trace for 1 in this many untraced admissions (0 = default, negative disables sampling)")
		sloLatency   = fs.Duration("slo-latency", 0, "admit-latency SLO budget for the burn-rate metrics (0 = default 5ms)")
		sloWindow    = fs.Duration("slo-window", 0, "rolling window for the SLO burn-rate metrics (0 = default 1m)")
		walDump      = fs.String("wal-dump", "", "dump the WAL at this path (file, shard dir, or -wal-dir root) as JSON lines and exit")
		par          = fs.Int("par", runtime.GOMAXPROCS(0), "Phase-1 analysis worker pool size for every full analysis with ≥ 2 high-density tasks: cold and batch admissions, and recovery; verdicts are identical for every value")
		admitTimeout = fs.Duration("admit-timeout", 2*time.Second, "per-request admission deadline")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		verbose      = fs.Bool("v", false, "log a one-line summary of every admission (trace ID, verdict, latency, cache hit/miss)")
		auditPath    = fs.String("audit", "", "append one JSON line per admission decision to this file")
		debugAddr    = fs.String("debug-addr", "", "if set, serve net/http/pprof on this separate debug listener")
		debugAddrf   = fs.String("debug-addrfile", "", "write the resolved debug listen address to this file once bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *par < 1 {
		return fmt.Errorf("-par must be ≥ 1, got %d", *par)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", *shards)
	}
	if *snapEvery < 0 {
		return fmt.Errorf("-snapshot-every must be ≥ 0, got %d", *snapEvery)
	}
	if *snapEvery > 0 && *walDir == "" {
		return fmt.Errorf("-snapshot-every requires -wal-dir")
	}
	var fleetURLs []string
	if *fleet != "" {
		for _, u := range strings.Split(*fleet, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				return fmt.Errorf("-fleet has an empty member in %q", *fleet)
			}
			fleetURLs = append(fleetURLs, u)
		}
		if *fleetSelf < 0 || *fleetSelf >= len(fleetURLs) {
			return fmt.Errorf("-fleet-self %d out of range for a %d-member fleet", *fleetSelf, len(fleetURLs))
		}
	} else if *fleetSelf != 0 {
		return fmt.Errorf("-fleet-self requires -fleet")
	}

	if *sloLatency < 0 {
		return fmt.Errorf("-slo-latency must be ≥ 0, got %v", *sloLatency)
	}
	if *sloWindow < 0 {
		return fmt.Errorf("-slo-window must be ≥ 0, got %v", *sloWindow)
	}

	if *walDump != "" {
		return runWALDump(out, *walDump)
	}

	opt, err := service.ParseOptions(*minprocs, *prio, *heuristic, *admission)
	if err != nil {
		return err
	}
	opt.Par = *par
	if opt.Policy, err = service.ParsePolicy(*policy); err != nil {
		return err
	}
	if opt.MTypes, err = service.ParseMTypes(*mtypesF); err != nil {
		return err
	}
	if opt.MTypes != nil && opt.Policy != "typed" {
		return fmt.Errorf("-m-types requires -policy=typed")
	}
	observer, closeAudit, err := buildObserver(out, *verbose, *auditPath)
	if err != nil {
		return err
	}
	defer closeAudit()
	svc, err := service.New(service.Config{
		M:                  *m,
		Options:            opt,
		QueueBound:         *queue,
		AdmitTimeout:       *admitTimeout,
		Observer:           observer,
		Shards:             *shards,
		WALDir:             *walDir,
		SnapshotEvery:      *snapEvery,
		Fleet:              fleetURLs,
		Self:               *fleetSelf,
		FlightRecorderSize: *flightSize,
		FlightSampleEvery:  *flightSample,
		SLOLatencyBudget:   *sloLatency,
		SLOWindow:          *sloWindow,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(resolved), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	durable := ""
	if *walDir != "" {
		durable = " wal-dir=" + *walDir
	}
	// The policy prefix appears only for non-default policies, keeping the
	// default startup line byte-identical to earlier releases.
	variant := fmt.Sprintf("%s/%s/%s/%s", *minprocs, *prio, *heuristic, *admission)
	if opt.Policy != "" {
		variant = opt.Policy + "/" + variant
	}
	fmt.Fprintf(out, "fedschedd: m=%d shards=%d %s%s listening on http://%s\n",
		*m, *shards, variant, durable, resolved)

	stopDebug, err := startDebugServer(out, *debugAddr, *debugAddrf)
	if err != nil {
		ln.Close()
		return err
	}
	defer stopDebug()

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "fedschedd: shutdown requested, draining in-flight admissions")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	svc.Close()
	fmt.Fprintln(out, "fedschedd: drained, bye")
	return nil
}

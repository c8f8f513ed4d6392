// Command fedsched runs Algorithm FEDCONS on a task-system JSON file and
// prints the resulting processor allocation, or the failure diagnosis.
//
// Usage:
//
//	fedsched [flags] system.json
//
// The input format is produced by cmd/taskgen:
//
//	{"processors": 8, "tasks": [{"name": "...", "deadline": 16,
//	 "period": 20, "dag": {"vertices": [{"wcet": 2}, ...],
//	 "edges": [[0,1], ...]}}, ...]}
//
// Flags select the MINPROCS variant, the LS priority, the partitioning
// heuristic and admission test, and optional verification and simulation of
// the produced allocation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/service"
	"fedsched/internal/sim"
	"fedsched/internal/task"
)

// errUnschedulable distinguishes an analysis verdict (exit code 2) from an
// operational failure (exit code 1).
var errUnschedulable = errors.New("unschedulable")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, errUnschedulable):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "fedsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fedsched", flag.ContinueOnError)
	var (
		minprocs  = fs.String("minprocs", "ls-scan", "MINPROCS variant: ls-scan (paper) or analytic")
		prio      = fs.String("priority", "insertion", "LS list order: insertion, longest-path, largest-wcet")
		heuristic = fs.String("partition", "first-fit", "partition heuristic: first-fit (paper), best-fit, worst-fit")
		admission = fs.String("admission", "dbf-approx", "partition admission test: dbf-approx (paper), edf-exact or dm-rta")
		verify    = fs.Bool("verify", true, "independently audit the allocation before printing")
		output    = fs.String("o", "text", "output format: text or json (the service.Verdict encoding, byte-identical to the fedschedd daemon's answer)")
		simulate  = fs.Int64("simulate", 0, "if > 0, simulate the allocation over this release horizon")
		save      = fs.String("save", "", "write the allocation (with template schedules) to this JSON file")
		seed      = fs.Int64("seed", 1, "simulation seed")
		explain   = fs.Bool("explain", false, "print a step-by-step explanation of the FEDCONS decision (which phase, which task, which inequality)")
		traceOut  = fs.String("trace", "", "write the decision trace as JSONL to this file ('-' = stdout); byte-deterministic for fixed input and options")
		par       = fs.Int("par", runtime.GOMAXPROCS(0), "Phase-1 analysis worker pool size; output (including -trace and -explain) is byte-identical for every value")
		policy    = fs.String("policy", "fedcons", "admission policy: fedcons (paper), semi (semi-federated fractional grants), reservation (reservation servers) or typed (per-vertex processor types)")
		mtypesF   = fs.String("m-types", "", "typed platform: per-type processor budgets, e.g. a:4,b:2 (requires -policy=typed; must sum to the system's processor count)")
		mA        = fs.Int("m-a", -1, "shorthand for the type-a budget of -m-types (combine with -m-b)")
		mB        = fs.Int("m-b", -1, "shorthand for the type-b budget of -m-types (combine with -m-a)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d args", fs.NArg())
	}
	if *par < 1 {
		return fmt.Errorf("-par must be ≥ 1, got %d", *par)
	}

	if *output != "text" && *output != "json" {
		return fmt.Errorf("unknown -o %q (want text or json)", *output)
	}
	if *output == "json" && *simulate > 0 {
		return fmt.Errorf("-o json does not support -simulate")
	}
	if *output == "json" && *explain {
		return fmt.Errorf("-o json does not support -explain (use the daemon's ?trace=1 for machine-readable traces)")
	}
	opt, err := buildOptions(*minprocs, *prio, *heuristic, *admission)
	if err != nil {
		return err
	}
	opt.Par = *par
	if opt.Policy, err = service.ParsePolicy(*policy); err != nil {
		return err
	}
	mtypes, err := service.ParseMTypes(*mtypesF)
	if err != nil {
		return err
	}
	if *mA >= 0 || *mB >= 0 {
		if mtypes != nil {
			return fmt.Errorf("-m-a/-m-b and -m-types are mutually exclusive")
		}
		a, b := *mA, *mB
		if a < 0 {
			a = 0
		}
		if b < 0 {
			b = 0
		}
		mtypes = []int{a, b}
	}
	if mtypes != nil && opt.Policy != core.PolicyTyped {
		return fmt.Errorf("per-type budgets (-m-types/-m-a/-m-b) require -policy=typed")
	}
	opt.MTypes = mtypes
	if opt.Policy != "" && opt.Policy != core.PolicyTyped && *simulate > 0 {
		// The simulator replays template schedules; split-shape allocations
		// have none (servers are dispatched work-conservingly at run time).
		// Typed allocations carry templates, so they simulate like strict ones.
		return fmt.Errorf("-simulate supports only -policy=fedcons or -policy=typed")
	}
	var rec *obs.Recorder
	if *explain || *traceOut != "" {
		rec = obs.New(obs.DefaultLimits)
		opt.Trace = rec
	}

	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sf, err := task.DecodeSystem(data)
	if err != nil {
		return err
	}
	if err := core.CheckMTypes(opt.MTypes, sf.Processors); err != nil {
		return err
	}

	if *output == "text" {
		fmt.Fprintf(out, "system: %d tasks on m=%d processors (U_sum=%.3f, Σδ=%.3f)\n",
			len(sf.Tasks), sf.Processors, sf.Tasks.USum(), sf.Tasks.DensitySum())
	}

	alloc, schedErr := core.Schedule(sf.Tasks, sf.Processors, opt)
	if schedErr == nil && *verify {
		if err := core.Verify(sf.Tasks, sf.Processors, alloc); err != nil {
			return fmt.Errorf("allocation failed verification: %w", err)
		}
	}
	if *traceOut != "" {
		// Timings off: the trace is a pure function of (input, options), so
		// two runs produce byte-identical files — diffable evidence.
		if err := writeTrace(out, rec, *traceOut); err != nil {
			return err
		}
	}
	if *output == "json" {
		// The exact bytes fedschedd serves from GET /v1/allocation for the
		// same system: one shared encoder, no drift between CLI and daemon.
		body, err := service.NewVerdict(sf.Tasks, sf.Processors, alloc, schedErr).Encode()
		if err != nil {
			return err
		}
		if _, err := out.Write(body); err != nil {
			return err
		}
		if schedErr != nil {
			return errUnschedulable
		}
		return saveAllocation(out, alloc, *save, true)
	}
	if schedErr != nil {
		fmt.Fprintln(out, "verdict: UNSCHEDULABLE")
		fmt.Fprintln(out, "reason: ", schedErr)
		if *explain {
			writeExplanation(out, rec)
		}
		return errUnschedulable
	}
	printAllocation(out, sf.Tasks, alloc)
	if *explain {
		writeExplanation(out, rec)
	}

	if err := saveAllocation(out, alloc, *save, false); err != nil {
		return err
	}

	if *simulate > 0 {
		rep, err := sim.Federated(sf.Tasks, alloc, sim.Config{
			Horizon:  *simulate,
			Arrivals: sim.SporadicRandom,
			Exec:     sim.UniformExec,
			Seed:     *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsimulation over horizon %d: %d dag-jobs, %d deadline misses\n",
			*simulate, rep.TotalReleased(), rep.TotalMissed())
		for _, st := range rep.PerTask {
			fmt.Fprintf(out, "  %-12s released=%-6d missed=%-4d maxResp=%-6d meanResp=%.1f\n",
				st.Name, st.Released, st.Missed, st.MaxResponse, st.MeanResponse())
		}
	}
	return nil
}

// buildOptions delegates to the parser shared with cmd/fedschedd, so the
// batch CLI and the daemon accept exactly the same variant vocabulary.
func buildOptions(minprocs, prio, heuristic, admission string) (core.Options, error) {
	return service.ParseOptions(minprocs, prio, heuristic, admission)
}

// saveAllocation writes the allocation artifact when -save is set; quiet
// suppresses the confirmation line so -o json emits pure JSON.
func saveAllocation(out io.Writer, alloc *core.Allocation, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	data, err := core.EncodeAllocation(alloc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(out, "allocation written to %s\n", path)
	}
	return nil
}

func printAllocation(out io.Writer, sys task.System, alloc *core.Allocation) {
	fmt.Fprintln(out, "verdict: SCHEDULABLE")
	switch {
	case alloc.Policy == core.PolicyTyped:
		fmt.Fprintf(out, "policy: typed (platform %s)\n", core.FormatMTypes(alloc.MTypes))
	case alloc.Policy != "":
		fmt.Fprintf(out, "policy: %s (%d reservation servers)\n", alloc.Policy, len(alloc.Servers))
	}
	ded, shared := alloc.ProcessorsUsed()
	fmt.Fprintf(out, "processors: %d dedicated (federated), %d shared (partitioned EDF)\n", ded, shared)
	for _, h := range alloc.High {
		tk := sys[h.TaskIndex]
		if h.Template == nil { // split-shape grant: no template schedule
			fmt.Fprintf(out, "  high-density %-12s δ=%.3f → procs %v + fractional server\n",
				tk.Name, tk.Density(), h.Procs)
			continue
		}
		fmt.Fprintf(out, "  high-density %-12s δ=%.3f → procs %v, template makespan %d ≤ D=%d\n",
			tk.Name, tk.Density(), h.Procs, h.Template.Makespan, tk.D)
	}
	srvNames := core.ServerNames(sys, alloc)
	for j, sv := range alloc.Servers {
		owner := sys[sv.TaskIndex]
		w := owner.D
		if owner.T < w {
			w = owner.T
		}
		fmt.Fprintf(out, "  server %-14s budget %d per window %d (owner %s)\n", srvNames[j], sv.Budget, w, owner.Name)
	}
	for k, p := range alloc.SharedProcs {
		fmt.Fprintf(out, "  shared proc %d: %d tasks:", p, len(alloc.Low.Assignment[k]))
		for _, pos := range alloc.Low.Assignment[k] {
			if pos < len(alloc.Servers) {
				fmt.Fprintf(out, " %s(E=%d)", srvNames[pos], alloc.Servers[pos].Budget)
				continue
			}
			i := alloc.LowIndices[pos-len(alloc.Servers)]
			fmt.Fprintf(out, " %s(δ=%.2f)", sys[i].Name, sys[i].Density())
		}
		fmt.Fprintln(out)
	}
}

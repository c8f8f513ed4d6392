package runner

import (
	"runtime"

	"fedsched/internal/baseline"
	"fedsched/internal/core"
	"fedsched/internal/partition"
	"fedsched/internal/sim"
	"fedsched/internal/task"
)

// Built-in analyzers: FEDCONS in both MINPROCS modes and its partition-phase
// ablation variants, the baseline algorithms of package baseline, and the
// pure-partition (no federation) variants used by the E8 ablation. The names
// are the vocabulary the experiment tables use.
func init() {
	// FEDCONS, paper configuration: LS-scan MINPROCS, first-fit DBF*.
	Register(fedcons("fedcons", core.Options{}))
	// The same analysis with Phase-1 MINPROCS scans fanned out across a
	// GOMAXPROCS worker pool — byte-identical verdicts (core's differential
	// matrix pins this; TestFedconsParEquivalence diffs the analyzers), so
	// sweeps may substitute it freely for wall-clock.
	Register(fedcons("fedcons-par", core.Options{Par: runtime.GOMAXPROCS(0)}))
	// FEDCONS with the analytic closed-form MINPROCS (E7 ablation).
	Register(fedcons("fedcons-analytic", core.Options{Minprocs: core.Analytic}))
	// FEDCONS with alternative phase-2 packings and admission tests
	// (E8/E16 ablations).
	Register(fedcons("fedcons-bf", core.Options{Partition: partition.Options{Heuristic: partition.BestFit}}))
	Register(fedcons("fedcons-wf", core.Options{Partition: partition.Options{Heuristic: partition.WorstFit}}))
	Register(fedcons("fedcons-exact-edf", core.Options{Partition: partition.Options{Test: partition.ExactEDF}}))
	Register(fedcons("fedcons-dm-rta", core.Options{Partition: partition.Options{Test: partition.DMRta}}))

	// The pluggable policies (E22): semi-federated fractional grants and
	// reservation-based federated scheduling, each falling back to strict
	// FEDCONS, so their acceptance dominates "fedcons" pointwise.
	Register(fedcons("semifed", core.Options{Policy: core.PolicySemi}))
	Register(fedcons("reservation", core.Options{Policy: core.PolicyReservation}))

	// Typed federated scheduling (E23): "typed" runs the degenerate
	// single-type platform (delegates to strict FEDCONS on untyped systems),
	// "typed-even" splits the platform evenly between types a and b.
	Register(fedcons("typed", core.Options{Policy: core.PolicyTyped}))
	Register(NewFunc("typed-even", func(sys task.System, m int) bool {
		return core.Schedulable(sys, m, core.Options{Policy: core.PolicyTyped, MTypes: []int{m - m/2, m / 2}})
	}))

	// Baselines (package baseline documents each).
	Register(NewFunc("part-seq", baseline.PartSeq))
	Register(NewFunc("li-fed", baseline.LiFed))
	Register(NewFunc("li-fed-d", baseline.LiFedD))
	Register(NewFunc("necessary", baseline.Necessary))

	// Pure partitioned scheduling of the collapsed sequential tasks under
	// each heuristic/test combination — PART-SEQ is "part-seq-ff-dbf" by
	// another name; the variants are what E8 sweeps.
	Register(partSeq("part-seq-ff-dbf", partition.Options{}))
	Register(partSeq("part-seq-bf-dbf", partition.Options{Heuristic: partition.BestFit}))
	Register(partSeq("part-seq-wf-dbf", partition.Options{Heuristic: partition.WorstFit}))
	Register(partSeq("part-seq-ff-exact", partition.Options{Test: partition.ExactEDF}))

	// Empirical cross-check: FEDCONS acceptance followed by a stress
	// simulation (sporadic arrivals, random execution times) under the fast
	// event-calendar engine, accepting only miss-free runs. An analytic
	// accept/simulation miss disagreement in a sweep would expose a soundness
	// bug, so experiments can diff this column against "fedcons".
	Register(NewFunc("fedcons-sim", fedconsSim))
}

// simCheckConfig is the fixed stress scenario fedcons-sim replays. The
// horizon is long enough to cover many hyperperiods of the generator's
// period range while staying cheap under the event-calendar engine.
var simCheckConfig = sim.Config{
	Horizon:  20_000,
	Arrivals: sim.SporadicRandom,
	Exec:     sim.UniformExec,
	Seed:     1,
}

func fedconsSim(sys task.System, m int) bool {
	alloc, err := core.Schedule(sys, m, core.Options{})
	if err != nil {
		return false
	}
	rep, err := sim.Federated(sys, alloc, simCheckConfig)
	if err != nil {
		return false
	}
	return rep.TotalMissed() == 0
}

func fedcons(name string, opt core.Options) Analyzer {
	return NewFunc(name, func(sys task.System, m int) bool {
		return core.Schedulable(sys, m, opt)
	})
}

func partSeq(name string, opt partition.Options) Analyzer {
	return NewFunc(name, func(sys task.System, m int) bool {
		_, err := partition.Partition(sys, m, opt)
		return err == nil
	})
}

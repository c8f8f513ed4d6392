// Package exp implements the experiment suite of DESIGN.md §4 (E1–E12):
// the code that regenerates every evaluation claim of the paper — the worked
// examples, the Lemma 1 / Theorem 1 bounds, the schedulability experiments
// the paper reports in prose, and the ablations of FEDCONS's design choices.
//
// Each experiment is a pure function of a Config (seed and sample sizes) and
// returns a Result whose Table is what EXPERIMENTS.md records. cmd/experiments
// runs the whole suite; bench_test.go exposes one benchmark per experiment.
package exp

import (
	"fmt"
	"math/rand"

	"fedsched/internal/gen"
	"fedsched/internal/runner"
	"fedsched/internal/stats"
	"fedsched/internal/task"
)

// Time is re-exported for convenience.
type Time = task.Time

// Config scales the experiment suite. The zero value is invalid; use
// DefaultConfig or QuickConfig.
type Config struct {
	// Seed drives all generation; the suite is reproducible from it.
	Seed int64
	// SystemsPerPoint is the number of random task systems evaluated at
	// each sweep point.
	SystemsPerPoint int
	// SimHorizon is the release horizon for simulation-based experiments.
	SimHorizon Time
	// Par bounds the worker pool of engine-backed sweep experiments;
	// 0 means GOMAXPROCS and negative values are rejected by Validate.
	// Results are byte-identical for every value — trial RNGs derive from
	// (Seed, experiment, point, trial), never from execution order (see
	// internal/runner).
	Par int
	// Progress, when non-nil, receives trial-completion updates from
	// engine-backed experiments. It may be called concurrently with the
	// experiment's own work but calls are serialized; done increases
	// strictly to total.
	Progress ProgressFunc
}

// ProgressFunc receives sweep progress: the experiment id and how many of
// its trials have completed.
type ProgressFunc func(id string, done, total int)

// DefaultConfig is the full-size configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{Seed: 2015, SystemsPerPoint: 200, SimHorizon: 50_000}
}

// QuickConfig is a scaled-down configuration for benchmarks and smoke tests.
func QuickConfig() Config {
	return Config{Seed: 2015, SystemsPerPoint: 20, SimHorizon: 5_000}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SystemsPerPoint < 1 {
		return fmt.Errorf("exp: SystemsPerPoint must be ≥ 1, got %d", c.SystemsPerPoint)
	}
	if c.SimHorizon < 1 {
		return fmt.Errorf("exp: SimHorizon must be ≥ 1, got %d", c.SimHorizon)
	}
	if c.Par < 0 {
		return fmt.Errorf("exp: Par must be ≥ 0 (0 = GOMAXPROCS), got %d", c.Par)
	}
	return nil
}

// PlotSpec tells renderers how to draw the experiment's figure from its
// table: which column is the x-axis and which columns are curves.
type PlotSpec struct {
	XCol  int
	YCols []int
}

// Result is one experiment's output.
type Result struct {
	// ID is the DESIGN.md experiment id (e.g. "E4").
	ID string
	// Title describes the claim being regenerated.
	Title string
	// Table holds the measured rows.
	Table *stats.Table
	// Notes are prose observations recorded alongside the table
	// (paper-vs-measured commentary, invariant checks).
	Notes []string
	// Plot, when non-nil, identifies the figure columns (cmd/experiments
	// renders it with stats.PlotTable under -plot).
	Plot *PlotSpec
}

// Render returns the ASCII figure for the result, or "" if it has none.
func (r *Result) Render(width, height int) string {
	if r.Plot == nil || r.Table == nil {
		return ""
	}
	return stats.PlotTable(r.Table, r.Plot.XCol, r.Plot.YCols, width, height)
}

// Experiment is a runnable suite entry.
type Experiment struct {
	ID   string
	Run  func(Config) (*Result, error)
	Name string
}

// Suite lists all experiments in DESIGN.md order.
func Suite() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "Paper Example 1 quantities", Run: E1Example1},
		{ID: "E2", Name: "Example 2: capacity augmentation unbounded", Run: E2CapacityAugmentation},
		{ID: "E3", Name: "Lemma 1: LS makespan bound", Run: E3LSMakespanBound},
		{ID: "E4", Name: "Acceptance ratio vs normalized utilization", Run: E4AcceptanceVsUtil},
		{ID: "E5", Name: "Acceptance ratio vs deadline tightness", Run: E5AcceptanceVsDeadlineRatio},
		{ID: "E6", Name: "Baseline comparison", Run: E6BaselineComparison},
		{ID: "E7", Name: "Ablation: MINPROCS LS scan vs analytic", Run: E7MinprocsAblation},
		{ID: "E8", Name: "Ablation: partition heuristics and tests", Run: E8PartitionAblation},
		{ID: "E9", Name: "Graham anomaly and template replay", Run: E9Anomaly},
		{ID: "E10", Name: "Simulation validation of accepted systems", Run: E10SimulationValidation},
		{ID: "E11", Name: "Analysis scalability", Run: E11Scalability},
		{ID: "E12", Name: "Weighted schedulability vs platform size", Run: E12WeightedSchedVsM},
		{ID: "E13", Name: "Extension: arbitrary-deadline systems", Run: E13ArbitraryDeadlines},
		{ID: "E14", Name: "Extension: implicit-deadline comparison with LI-FED", Run: E14ImplicitDeadlineComparison},
		{ID: "E15", Name: "Extension: empirical speedup-bound conservatism", Run: E15EmpiricalSpeedup},
		{ID: "E16", Name: "Ablation: EDF vs deadline-monotonic shared processors", Run: E16SharedSchedulerAblation},
		{ID: "E17", Name: "Extension: sustainability under WCET reduction", Run: E17SustainabilityProbe},
		{ID: "E18", Name: "Extension: Lemma 1 measured against the exact optimum", Run: E18LemmaOneVsOptimal},
		{ID: "E19", Name: "Extension: empirical speed factors vs Theorem 1", Run: E19SpeedFactorSearch},
		{ID: "E20", Name: "Extension: partition optimality gap on implicit systems", Run: E20PartitionOptimality},
		{ID: "E21", Name: "Extension: generator-sensitivity of the acceptance curve", Run: E21GeneratorSensitivity},
		{ID: "E22", Name: "Policy comparison: fedcons vs semi vs reservation", Run: E22PolicyComparison},
		{ID: "E23", Name: "Typed federated scheduling: acceptance vs platform type mix", Run: E23TypedMixSweep},
	}
}

// All runs the full suite in order.
func All(cfg Config) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []*Result
	for _, e := range Suite() {
		res, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// rng derives a deterministic per-experiment random source for the
// experiments that still run sequentially (worked examples, timing, and
// simulation studies). Sweep experiments instead derive one source per
// trial through the engine — see sweep.
func (c Config) rng(experiment int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + experiment))
}

// sweep runs points × trials independent trials of fn on the shared engine
// (internal/runner) and returns the outcomes indexed [point][trial]. id is
// the experiment id used for progress reporting; sweepID keys the RNG
// derivation and must be unique per sweep (experiments with several
// sub-sweeps use expID*100+k — see sweepID).
func sweep[T any](cfg Config, id string, sweepID int64, points, trials int, fn func(point, trial int, r *rand.Rand) (T, error)) ([][]T, error) {
	s := runner.Sweep{Seed: cfg.Seed, Exp: sweepID, Points: points, Trials: trials, Workers: cfg.Par}
	if cfg.Progress != nil {
		s.OnTrial = func(done, total int) { cfg.Progress(id, done, total) }
	}
	return runner.Run(s, fn)
}

// sweepID namespaces the RNG stream of sub-sweep k of experiment expNum.
// Experiments with a single sweep use k = 0.
func sweepID(expNum, k int64) int64 { return expNum*100 + k }

// sweepParams builds the generator parameters shared by the acceptance
// sweeps: n tasks on m processors at normalized utilization normU = U_sum/m.
func sweepParams(n, m int, normU float64) gen.Params {
	p := gen.DefaultParams(n, normU*float64(m))
	return p
}

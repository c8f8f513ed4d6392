package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/gen"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

// density selects which generated tasks a taskSpec keeps.
type density int

const (
	anyDensity density = iota
	lowOnly
	highOnly
)

// taskSpec is the generator setting for one family of DAG tasks: Erdős–Rényi
// graphs of minV..maxV vertices, utilization drawn uniformly from [uMin,
// uMax], deadline tightness β from [betaMin, betaMax], each vertex type-b
// with probability typeProb. Draws outside the density class are redrawn.
type taskSpec struct {
	minV, maxV       int
	uMin, uMax       float64
	betaMin, betaMax float64
	typeProb         float64
	class            density
}

// workload is one traffic mix. Its platform, rate and sizes are constants of
// the benchmark, not options: a run is comparable with another only when
// every one of them is the same.
type workload struct {
	name    string
	m       int
	mtypes  string // -m-types value; "" runs the untyped fedcons policy
	shards  int
	seedN   int // tasks in the seed batch admitted before the run
	seed    taskSpec
	churn   taskSpec
	maxLive int // live churn tasks per sender; 0 leaves the platform to bound it
	// admitShare is the chance that a mutation slot is an admit. Above 0.5,
	// admits outrun removes until the platform is full and rejects the
	// surplus.
	admitShare float64
	// rate is the open-loop op rate over both senders, about 40% of the
	// closed-loop throughput in the runs that defined the benchmark
	// (bench/results/). warm-low's is 13%: at half, the host's slow periods
	// pushed it into a growing backlog behind its snapshot stalls.
	rate float64
	// peak is the op rate the closed loop's stream is sized for, above the
	// fastest closed loop measured on the host class. A closed loop that
	// runs out of ops is reported invalid.
	peak float64
	// replayOps is how many sequential-loop ops the traced replay runs.
	replayOps int
}

// senders is the number of load-generating goroutines, each with one
// connection: the 2 cores of the host class the benchmark was defined on.
const senders = 2

// readEvery makes every readEvery-th op of a sender an allocation read: one
// read per 8 mutations.
const readEvery = 9

var (
	// highSeed is the 50-task seed of warm-low and typed-low: large, tightly
	// constrained DAGs that each need a few dedicated processors.
	highSeed = taskSpec{minV: 150, maxV: 250, uMin: 0.5, uMax: 0.8, betaMin: 0.1, betaMax: 0.3, class: highOnly}
	// lowChurn is the churn of warm-low and typed-low: small untyped
	// low-density tasks, which the warm path serves.
	lowChurn = taskSpec{minV: 10, maxV: 30, uMin: 0.05, uMax: 0.5, betaMin: 0.25, betaMax: 1, class: lowOnly}
)

var workloads = []workload{
	{
		// Every 256 mutations the daemon writes a 1 MB snapshot of the seed
		// inside its writer loop, stalling admissions for ~80 ms. At this
		// rate a stall holds up about one op in 25, so the gated medians
		// measure the warm path, not the snapshot cadence.
		name: "warm-low", m: 176, shards: 1,
		seedN: 50, seed: highSeed, churn: lowChurn, maxLive: 16, admitShare: 0.5,
		rate: 150, peak: 3300, replayOps: 1500,
	},
	{
		name: "cold-high", m: 64, shards: 1,
		churn:   taskSpec{minV: 100, maxV: 300, uMin: 0.5, uMax: 1, betaMin: 0.1, betaMax: 0.3, class: highOnly},
		maxLive: 6, admitShare: 0.5,
		rate: 100, peak: 650, replayOps: 200,
	},
	{
		// The loadgen mix: any density, so admits take both the warm and the
		// full path, and a platform small enough that about 45% are rejected.
		name: "mixed-2shard", m: 8, shards: 2,
		churn:      taskSpec{minV: 10, maxV: 30, uMin: 0.05, uMax: 1.5, betaMin: 0.25, betaMax: 1},
		admitShare: 0.65,
		rate:       1400, peak: 9000, replayOps: 1500,
	},
	{
		name: "typed-low", m: 224, mtypes: "a:152,b:72", shards: 1,
		seedN: 50, churn: lowChurn, maxLive: 16, admitShare: 0.5,
		seed: taskSpec{minV: 150, maxV: 250, uMin: 0.5, uMax: 0.8, betaMin: 0.1, betaMax: 0.3, typeProb: 0.3, class: highOnly},
		rate: 35, peak: 220, replayOps: 150,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs are the fedschedd flags that differ from the defaults.
func (w *workload) daemonArgs() []string {
	args := []string{"-m", strconv.Itoa(w.m)}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.mtypes != "" {
		args = append(args, "-policy", "typed", "-m-types", w.mtypes)
	}
	return args
}

// options are the analysis options the daemon runs with under daemonArgs:
// the flag defaults, including -par = GOMAXPROCS.
func (w *workload) options() (core.Options, error) {
	opt, err := service.ParseOptions("ls-scan", "insertion", "first-fit", "dbf-approx")
	if err != nil {
		return opt, err
	}
	opt.Par = runtime.GOMAXPROCS(0)
	if w.mtypes != "" {
		opt.Policy = core.PolicyTyped
		if opt.MTypes, err = service.ParseMTypes(w.mtypes); err != nil {
			return opt, err
		}
	}
	return opt, nil
}

// serviceConfig is the in-process twin of the daemon under daemonArgs.
func (w *workload) serviceConfig(walDir string) (service.Config, error) {
	opt, err := w.options()
	if err != nil {
		return service.Config{}, err
	}
	return service.Config{M: w.m, Options: opt, Shards: w.shards, WALDir: walDir}, nil
}

// clusters returns each sender's cluster name. On one shard every sender uses
// the default cluster; on several, sender s gets a cluster that the router
// places on shard s, checked with Server.ShardFor.
func (w *workload) clusters() ([]string, error) {
	out := make([]string, senders)
	if w.shards == 1 {
		return out, nil
	}
	probe, err := service.New(service.Config{M: 1, Shards: w.shards})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	for s := range out {
		for i := 0; ; i++ {
			name := fmt.Sprintf("c%d", i)
			if probe.ShardFor(name).ID() == s%w.shards {
				out[s] = name
				break
			}
		}
	}
	return out, nil
}

// opKind is what a slot of the op stream does.
type opKind uint8

const (
	opAdmit  opKind = iota // POST /v1/admit with body
	opRemove               // DELETE the sender's oldest live task
	opRead                 // GET /v1/allocation
)

func (k opKind) String() string {
	return [...]string{"admit", "remove", "read"}[k]
}

// op is one slot of a sender's stream. The stream's removes name no task:
// each is resolved when it runs, to the sender's oldest live task, and
// skipped when the sender has none.
type op struct {
	kind opKind
	name string // admitted task, or removed task when set on a remove
	body []byte // admitted task JSON
}

// stream generates one sender's ops. Its slot kinds follow a simulated live
// count that assumes every admit succeeds; the real live count never exceeds
// it, so a sender never holds more than maxLive tasks.
type stream struct {
	w       *workload
	r       *rand.Rand
	sender  int
	seq     int
	simLive int
}

func newStream(w *workload, seed int64, sender int) *stream {
	return &stream{w: w, r: rand.New(rand.NewSource(seed*1_000_003 + int64(sender+1)*7919)), sender: sender}
}

func (st *stream) next() op {
	st.seq++
	if st.seq%readEvery == 0 {
		return op{kind: opRead}
	}
	full := st.w.maxLive > 0 && st.simLive >= st.w.maxLive
	if st.simLive > 0 && (full || st.r.Float64() >= st.w.admitShare) {
		st.simLive--
		return op{kind: opRemove}
	}
	st.simLive++
	tk := genTask(st.r, st.w.churn)
	tk.Name = fmt.Sprintf("s%d-%d", st.sender, st.seq)
	body, err := json.Marshal(tk)
	if err != nil {
		panic(err) // generated tasks always encode
	}
	return op{kind: opAdmit, name: tk.Name, body: body}
}

func (st *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// genTask draws one task of spec from r, redrawing until it falls in the
// spec's density class.
func genTask(r *rand.Rand, spec taskSpec) *task.DAGTask {
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts = spec.minV, spec.maxV
	p.BetaMin, p.BetaMax = spec.betaMin, spec.betaMax
	p.TypeProb = spec.typeProb
	for {
		g := gen.Graph(r, p)
		u := spec.uMin + r.Float64()*(spec.uMax-spec.uMin)
		tk, err := gen.TaskFor(r, g, u, p)
		if err != nil {
			continue
		}
		switch {
		case spec.class == lowOnly && tk.HighDensity(), spec.class == highOnly && !tk.HighDensity():
			continue
		}
		return tk
	}
}

// seedTasks generates the workload's seed batch.
func (w *workload) seedTasks(seed int64) []*task.DAGTask {
	r := rand.New(rand.NewSource(seed * 1_000_003))
	out := make([]*task.DAGTask, w.seedN)
	for i := range out {
		out[i] = genTask(r, w.seed)
		out[i].Name = fmt.Sprintf("seed-%d", i)
	}
	return out
}

// plan is every input of one run, generated from the seed before the daemon
// starts: the seed batch and, per sender, the ops of the sequential, open
// and closed loops.
type plan struct {
	seedBody []byte // {"tasks": [...]}, nil without a seed batch
	seq      [][]op
	open     [][]op
	closed   [][]op
	clusters []string
}

// loopOps are the per-sender op counts of a run's three loops.
type loopOps struct {
	seq, open, closed int
}

// opCounts sizes a run's loops: the slots the open loop schedules at the
// workload's rate, and for the sequential and closed loops enough ops to
// last at its peak rate.
func (w *workload) opCounts(seq, open, closed time.Duration) loopOps {
	atPeak := func(d time.Duration) int { return int(w.peak*d.Seconds())/senders + 100 }
	return loopOps{seq: atPeak(seq), open: int(w.rate*open.Seconds())/senders + 1, closed: atPeak(closed)}
}

// makePlan generates a run's inputs: per sender, n.seq, then n.open, then
// n.closed ops of one stream.
func makePlan(w *workload, seed int64, n loopOps) (*plan, error) {
	clusters, err := w.clusters()
	if err != nil {
		return nil, err
	}
	p := &plan{clusters: clusters}
	if w.seedN > 0 {
		body, err := json.Marshal(service.BatchRequest{Tasks: w.seedTasks(seed)})
		if err != nil {
			return nil, err
		}
		p.seedBody = body
	}
	// Each sender's stream is independent, so the two are generated at once.
	p.seq, p.open, p.closed = make([][]op, senders), make([][]op, senders), make([][]op, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := newStream(w, seed, s)
			p.seq[s] = st.take(n.seq)
			p.open[s] = st.take(n.open)
			p.closed[s] = st.take(n.closed)
		}(s)
	}
	wg.Wait()
	return p, nil
}

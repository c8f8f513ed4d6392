package partition

import (
	"errors"
	"math/rand"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/task"
)

// lowTask builds a low-density DAG task whose sporadic collapse is (c, d, t).
func lowTask(name string, c, d, t task.Time) *task.DAGTask {
	return task.MustNew(name, dag.Singleton(c), d, t)
}

func TestEmptySystem(t *testing.T) {
	res, err := Partition(nil, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 3 {
		t.Errorf("assignment for %d processors, want 3", len(res.Assignment))
	}
	if err := Verify(nil, 3, res); err != nil {
		t.Error(err)
	}
}

func TestZeroProcessorsFails(t *testing.T) {
	sys := task.System{lowTask("a", 1, 4, 8)}
	_, err := Partition(sys, 0, Options{})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("want FailureError, got %v", err)
	}
}

func TestNegativeProcessorsRejected(t *testing.T) {
	if _, err := Partition(nil, -1, Options{}); err == nil {
		t.Fatal("accepted m=-1")
	}
}

func TestSingleTaskFits(t *testing.T) {
	sys := task.System{lowTask("a", 3, 8, 10)}
	res, err := Partition(sys, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 1, res); err != nil {
		t.Error(err)
	}
}

func TestDeadlineOrderIsUsed(t *testing.T) {
	// Input deliberately in reverse-deadline order; partition must succeed
	// regardless (it sorts internally).
	sys := task.System{
		lowTask("late", 2, 20, 40),
		lowTask("early", 2, 4, 40),
	}
	res, err := Partition(sys, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 1, res); err != nil {
		t.Error(err)
	}
}

func TestOverloadFails(t *testing.T) {
	// Two tasks each demanding the full window [0, D) cannot share one
	// processor but fit on two.
	sys := task.System{
		lowTask("a", 4, 5, 100),
		lowTask("b", 4, 5, 100),
	}
	if _, err := Partition(sys, 1, Options{}); err == nil {
		t.Fatal("overload on m=1 must fail")
	}
	res, err := Partition(sys, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 2, res); err != nil {
		t.Error(err)
	}
	// They must be on different processors.
	if len(res.Assignment[0]) != 1 || len(res.Assignment[1]) != 1 {
		t.Errorf("assignment = %v, want one task per processor", res.Assignment)
	}
}

func TestUtilizationConditionImpliedForConstrained(t *testing.T) {
	// For constrained-deadline tasks the DBF* breakpoint check at the
	// largest deadline implies Σu ≤ 1 (DBF*(τj, Dmax) ≥ uj·Dmax whenever
	// Dj ≤ Tj), so FitsApprox acceptances never exceed unit utilization.
	r := rand.New(rand.NewSource(99))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		sys := randomLowDensitySystem(r, 2+r.Intn(6))
		res, err := Partition(sys, 1, Options{})
		if err != nil {
			continue
		}
		checked++
		u := 0.0
		for _, i := range res.Assignment[0] {
			u += sys[i].Utilization()
		}
		if u > 1+1e-9 {
			t.Fatalf("accepted constrained set with Σu = %v > 1", u)
		}
	}
	if checked == 0 {
		t.Fatal("test vacuous")
	}
}

func TestUtilizationConditionGuardsArbitraryDeadlines(t *testing.T) {
	// For an arbitrary-deadline task (D > T) the DBF* check at D alone is
	// not enough: τ = (3, 10, 2) has u = 1.5 yet demand 3 ≤ 10 at its own
	// deadline. The explicit Σu ≤ 1 condition must reject it.
	over := task.MustNew("over", dag.Singleton(3), 10, 2)
	if _, err := Partition(task.System{over}, 1, Options{}); err == nil {
		t.Fatal("u = 1.5 arbitrary-deadline task must be rejected")
	}
}

func randomLowDensitySystem(r *rand.Rand, n int) task.System {
	sys := make(task.System, 0, n)
	for i := 0; i < n; i++ {
		tt := task.Time(10 + r.Intn(90))
		d := task.Time(2 + r.Intn(int(tt)-1))
		c := task.Time(1 + r.Intn(int(d)))
		if c >= d { // keep density < 1
			c = d - 1
		}
		if c < 1 {
			c = 1
		}
		sys = append(sys, lowTask("r", c, d, tt))
	}
	return sys
}

func TestRandomPartitionsAlwaysVerify(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	succeeded := 0
	for trial := 0; trial < 200; trial++ {
		sys := randomLowDensitySystem(r, 1+r.Intn(10))
		m := 1 + r.Intn(6)
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit} {
			res, err := Partition(sys, m, Options{Heuristic: h})
			if err != nil {
				continue
			}
			succeeded++
			if verr := Verify(sys, m, res); verr != nil {
				t.Fatalf("trial %d %v: %v", trial, h, verr)
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("test vacuous: no partition ever succeeded")
	}
}

func TestExactTestDominatesApprox(t *testing.T) {
	// Whatever ApproxDBF can place, ExactEDF can place too (possibly
	// differently); count acceptances over a random ensemble.
	r := rand.New(rand.NewSource(22))
	approxWins, exactWins := 0, 0
	for trial := 0; trial < 150; trial++ {
		sys := randomLowDensitySystem(r, 2+r.Intn(8))
		m := 1 + r.Intn(3)
		_, errA := Partition(sys, m, Options{Test: ApproxDBF})
		resE, errE := Partition(sys, m, Options{Test: ExactEDF})
		if errA == nil {
			approxWins++
			if errE != nil {
				t.Fatalf("approx placed but exact failed: %v", errE)
			}
		}
		if errE == nil {
			exactWins++
			if verr := Verify(sys, m, resE); verr != nil {
				t.Fatal(verr)
			}
		}
	}
	if exactWins < approxWins {
		t.Errorf("exact admission accepted %d < approx %d", exactWins, approxWins)
	}
}

func TestHeuristicsDiffer(t *testing.T) {
	// Construct a case where first-fit and worst-fit place differently:
	// after a big task lands on proc 0, worst-fit sends the next to proc 1.
	sys := task.System{
		lowTask("big", 6, 10, 20),
		lowTask("small", 1, 10, 20),
	}
	ff, err := Partition(sys, 2, Options{Heuristic: FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := Partition(sys, 2, Options{Heuristic: WorstFit})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Assignment[0]) != 2 {
		t.Errorf("first-fit should stack both on processor 0: %v", ff.Assignment)
	}
	if len(wf.Assignment[0]) != 1 || len(wf.Assignment[1]) != 1 {
		t.Errorf("worst-fit should spread: %v", wf.Assignment)
	}
}

func TestBestFitPrefersTighterBin(t *testing.T) {
	// Prime two bins with different loads, then check best-fit picks the
	// fuller one for a small task.
	sys := task.System{
		lowTask("loadA", 8, 10, 20), // goes to proc 0 (first-fit order: D=10)
		lowTask("loadB", 2, 12, 20), // best-fit: slack on proc0 smaller...
		lowTask("tiny", 1, 100, 200),
	}
	res, err := Partition(sys, 2, Options{Heuristic: BestFit})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 2, res); err != nil {
		t.Error(err)
	}
}

func TestFailureErrorIdentifiesTask(t *testing.T) {
	sys := task.System{
		lowTask("fits", 1, 10, 20),
		lowTask("huge", 9, 10, 11),
		lowTask("huge2", 9, 10, 11),
	}
	_, err := Partition(sys, 1, Options{})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("want FailureError, got %v", err)
	}
	if fe.TaskName != "huge" && fe.TaskName != "huge2" {
		t.Errorf("failure names %q, want one of the huge tasks", fe.TaskName)
	}
}

func TestVerifyCatchesBadResult(t *testing.T) {
	sys := task.System{lowTask("a", 4, 5, 10), lowTask("b", 4, 5, 10)}
	// Force both tasks onto one processor: exact test must reject.
	bad := &Result{Assignment: [][]int{{0, 1}, {}}}
	if err := Verify(sys, 2, bad); err == nil {
		t.Error("Verify accepted overloaded processor")
	}
	// Unassigned task.
	bad2 := &Result{Assignment: [][]int{{0}, {}}}
	if err := Verify(sys, 2, bad2); err == nil {
		t.Error("Verify accepted missing task")
	}
	// Double assignment.
	bad3 := &Result{Assignment: [][]int{{0}, {0, 1}}}
	if err := Verify(sys, 2, bad3); err == nil {
		t.Error("Verify accepted duplicate task")
	}
	// Out-of-range indices must be reported, not panic.
	one := sys[:1]
	for _, idx := range []int{1, -1} {
		if err := Verify(one, 1, &Result{Assignment: [][]int{{idx}}}); err == nil {
			t.Errorf("Verify accepted out-of-range index %d", idx)
		}
	}
}

func TestLemma2FlavorSpeedup(t *testing.T) {
	// Sanity-scale check of Lemma 2's direction: if a system partitions on
	// m processors, scaling every WCET down by 3 must still partition
	// (equivalently, the original partitions on speed-3 processors). Not the
	// lemma itself (which compares against OPT) but a monotonicity corollary
	// the implementation must satisfy.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		sys := randomLowDensitySystem(r, 2+r.Intn(8))
		m := 1 + r.Intn(4)
		if _, err := Partition(sys, m, Options{}); err != nil {
			continue
		}
		scaled := make(task.System, len(sys))
		for i, tk := range sys {
			c := tk.Volume() / 3
			if c < 1 {
				c = 1
			}
			scaled[i] = lowTask(tk.Name, c, tk.D, tk.T)
		}
		if _, err := Partition(scaled, m, Options{}); err != nil {
			t.Fatalf("scaled-down system failed to partition: %v", err)
		}
	}
}

func BenchmarkPartitionFirstFit(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	sys := randomLowDensitySystem(r, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Partition(sys, 16, Options{})
	}
}

func TestDMRtaAdmission(t *testing.T) {
	// EDF-feasible-only set: DM must reject on one processor, EDF accepts.
	sys := task.System{
		lowTask("a", 3, 6, 6),
		lowTask("b", 4, 8, 8),
	}
	if _, err := Partition(sys, 1, Options{Test: DMRta}); err == nil {
		t.Fatal("DM-RTA accepted an EDF-only set")
	}
	res, err := Partition(sys, 1, Options{Test: ApproxDBF})
	if err != nil {
		t.Fatalf("DBF* should accept the implicit U=1 set: %v", err)
	}
	if err := Verify(sys, 1, res); err != nil {
		t.Fatal(err)
	}
	// DM spreads it over two processors.
	res2, err := Partition(sys, 2, Options{Test: DMRta})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sys, 2, res2); err != nil {
		t.Fatal(err)
	}
}

func TestDMRtaPlacementsAreEDFFeasible(t *testing.T) {
	// Per-processor, DM feasibility implies EDF feasibility (EDF is
	// uniprocessor-optimal), so every DM-RTA placement must pass the
	// exact-EDF auditor. (System-level acceptance is NOT comparable across
	// admission tests — first-fit packs differently under each — so only
	// the per-processor invariant is asserted.)
	r := rand.New(rand.NewSource(71))
	dmAccepted := 0
	for trial := 0; trial < 150; trial++ {
		sys := randomLowDensitySystem(r, 2+r.Intn(8))
		m := 1 + r.Intn(3)
		res, errDM := Partition(sys, m, Options{Test: DMRta})
		if errDM != nil {
			continue
		}
		dmAccepted++
		if err := Verify(sys, m, res); err != nil {
			t.Fatalf("DM placement failed the exact-EDF audit: %v", err)
		}
	}
	if dmAccepted == 0 {
		t.Fatal("test vacuous")
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FirstFit.String(), "first-fit"},
		{BestFit.String(), "best-fit"},
		{WorstFit.String(), "worst-fit"},
		{ApproxDBF.String(), "dbf-approx"},
		{ExactEDF.String(), "edf-exact"},
		{DMRta.String(), "dm-rta"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
	if Heuristic(9).String() == "" || AdmissionTest(9).String() == "" {
		t.Error("unknown enum values must still render")
	}
}

func TestFailureErrorMessage(t *testing.T) {
	sys := task.System{lowTask("whale", 9, 10, 11)}
	_, err := Partition(sys, 0, Options{})
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatal(err)
	}
	msg := fe.Error()
	if !errors.As(err, &fe) || msg == "" {
		t.Fatal("empty failure message")
	}
	for _, want := range []string{"whale", "0 processors"} {
		if !containsStr(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

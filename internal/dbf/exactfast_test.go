package dbf

import (
	"math/rand"
	"testing"

	"fedsched/internal/task"
)

// refExactFeasible is the pre-fast-path implementation — pure big.Rat
// utilization comparison and the exact L_a bound — kept here as the oracle
// the integer-accelerated ExactFeasible must agree with everywhere.
func refExactFeasible(set []task.Sporadic) bool {
	if len(set) == 0 {
		return true
	}
	cmp := TotalUtilizationRat(set).Cmp(one)
	if cmp > 0 {
		return false
	}
	if cmp == 0 {
		return exactFeasibleFullUtil(set)
	}
	bound, ok := exactTestBound(set)
	if !ok {
		return false
	}
	return qpa(set, bound)
}

func drawSporadic(r *rand.Rand, huge bool) task.Sporadic {
	if huge {
		c := r.Int63n(1 << 40)
		return task.Sporadic{C: c + 1, D: c + 1 + r.Int63n(1<<41), T: c + 1 + r.Int63n(1<<42)}
	}
	c := int64(1 + r.Intn(8))
	d := c + int64(r.Intn(16))
	return task.Sporadic{C: c, D: d, T: d + int64(r.Intn(16))}
}

// TestExactFeasibleFastMatchesReference: the accelerated test and the pure
// rational oracle agree on random sets, small (dense utilization ties) and
// huge (forcing the overflow fallbacks).
func TestExactFeasibleFastMatchesReference(t *testing.T) {
	for _, huge := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 5000; trial++ {
			set := make([]task.Sporadic, r.Intn(6))
			for i := range set {
				set[i] = drawSporadic(r, huge)
			}
			if got, want := ExactFeasible(set), refExactFeasible(set); got != want {
				t.Fatalf("huge=%v: ExactFeasible=%v ref=%v\nset=%v", huge, got, want, set)
			}
		}
	}
}

// TestUtilizationCmpOneMatchesRat pins the exact three-way comparison,
// including sets whose utilization is exactly 1.
func TestUtilizationCmpOneMatchesRat(t *testing.T) {
	cases := [][]task.Sporadic{
		{},
		{{C: 1, D: 2, T: 2}, {C: 1, D: 2, T: 2}}, // exactly 1
		{{C: 1, D: 3, T: 3}, {C: 1, D: 3, T: 3}, {C: 1, D: 3, T: 3}}, // exactly 1 via thirds
		{{C: 2, D: 3, T: 3}, {C: 1, D: 2, T: 2}},                     // just over
		{{C: 1, D: 7, T: 11}, {C: 3, D: 13, T: 17}},                  // well under
		{{C: 5, D: 5, T: 5}},                                         // single full task
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		set := make([]task.Sporadic, 1+r.Intn(5))
		for i := range set {
			set[i] = drawSporadic(r, trial%2 == 0)
		}
		cases = append(cases, set)
	}
	for _, set := range cases {
		got, ok := utilizationCmpOne(set)
		if !ok {
			continue // overflow fallback: nothing to compare
		}
		if want := TotalUtilizationRat(set).Cmp(one); got != want {
			t.Fatalf("utilizationCmpOne=%d, Rat cmp=%d\nset=%v", got, want, set)
		}
	}
}

// TestExactBoundFastIsUpperBound: wherever the fast bound applies it must
// dominate the exact L_a — that is the whole correctness argument for using
// it with QPA.
func TestExactBoundFastIsUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 5000; trial++ {
		set := make([]task.Sporadic, 1+r.Intn(6))
		for i := range set {
			set[i] = drawSporadic(r, false)
		}
		if cmp, ok := utilizationCmpOne(set); !ok || cmp >= 0 {
			continue
		}
		fast, ok := exactBoundFast(set)
		if !ok {
			continue
		}
		exact, ok := exactTestBound(set)
		if !ok {
			t.Fatalf("exactTestBound rejected a set with U < 1: %v", set)
		}
		if fast < exact {
			t.Fatalf("fast bound %d < exact L_a %d\nset=%v", fast, exact, set)
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d sets exercised the fast bound; generator drifted", checked)
	}
}

// TestExactFeasibleZeroAllocFastPath pins that within 64-bit range the
// accelerated exact test allocates nothing — it sits on VerifyDelta's warm
// admission path.
func TestExactFeasibleZeroAllocFastPath(t *testing.T) {
	set := []task.Sporadic{
		{C: 2, D: 9, T: 12}, {C: 1, D: 11, T: 13}, {C: 3, D: 17, T: 21}, {C: 2, D: 23, T: 40},
	}
	if !ExactFeasible(set) {
		t.Fatal("reference set unexpectedly infeasible")
	}
	if allocs := testing.AllocsPerRun(200, func() { ExactFeasible(set) }); allocs != 0 {
		t.Errorf("ExactFeasible allocated %.1f times, want 0", allocs)
	}
}

// TestFracSumReduceRetry forces the lcm-overflow → gcd-reduce retry in
// fracSum by summing fractions over large pairwise-coprime denominators, and
// cross-checks the fast fit test against the rational one on such inputs.
func TestFracSumReduceRetry(t *testing.T) {
	// Denominators chosen so the running lcm leaves uint64 range quickly.
	primesish := []int64{1<<31 - 1, 1<<29 - 3, 1<<27 - 39, 1<<25 - 35, 1<<23 - 15}
	var assigned []task.Sporadic
	for _, p := range primesish {
		assigned = append(assigned, task.Sporadic{C: p / 3, D: p / 2, T: p})
	}
	cand := task.Sporadic{C: 1 << 20, D: 1 << 40, T: 1 << 41}
	if got, want := FitsApproxFast(assigned, cand), FitsApprox(assigned, cand); got != want {
		t.Fatalf("reduce-retry path diverged: fast=%v rat=%v", got, want)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		set := make([]task.Sporadic, 1+r.Intn(len(primesish)))
		for i := range set {
			p := primesish[r.Intn(len(primesish))]
			c := 1 + r.Int63n(p/2)
			d := c + r.Int63n(p)
			set[i] = task.Sporadic{C: c, D: d, T: d + r.Int63n(p)}
		}
		c := drawSporadic(r, true)
		if got, want := FitsApproxFast(set, c), FitsApprox(set, c); got != want {
			t.Fatalf("trial %d: fast=%v rat=%v\nset=%v cand=%v", trial, got, want, set, c)
		}
	}
}

package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

var update = flag.Bool("update", false, "rewrite the split policies' testdata/*_schedule.golden from current output")

// splitTask draws a DAG task; tight deadlines (D close to the critical
// path) bias the draw toward high density.
func splitTask(r *rand.Rand) *task.DAGTask {
	nv := 1 + r.Intn(8)
	b := dag.NewBuilder(nv)
	for v := 0; v < nv; v++ {
		b.AddJob(task.Time(1 + r.Intn(6)))
	}
	for u := 0; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			if r.Float64() < 0.25 {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.MustBuild()
	l := g.LongestChain()
	d := l + task.Time(r.Intn(int(g.Volume())+1))
	return task.MustNew("t", g, d, d+task.Time(r.Intn(30)))
}

func splitSystem(r *rand.Rand, n int) task.System {
	sys := make(task.System, 0, n)
	for i := 0; i < n; i++ {
		sys = append(sys, splitTask(r))
	}
	return sys
}

// splitPolicies are the split-shape rows with the per-policy seeds of the
// randomized tests below (verifies, dominates).
var splitPolicies = []struct {
	name                string
	verifies, dominates int64
}{
	{PolicySemi, 3, 4},
	{PolicyReservation, 12, 13},
}

// TestSplitScheduleGolden pins each split policy's output bytes: for a fixed
// set of seeds and platforms, the allocation JSON (or the surfaced error)
// and the exported decision trace, which records the split attempt and,
// when it is rejected, the strict fallback. Each policy's matrix must cover
// an accepted split, a Phase-1 rejection and a Phase-2 rejection of the
// split attempt.
func TestSplitScheduleGolden(t *testing.T) {
	for _, pc := range splitPolicies {
		t.Run(pc.name, func(t *testing.T) {
			var buf bytes.Buffer
			seen := map[string]bool{}
			for seed := int64(1); seed <= 6; seed++ {
				r := rand.New(rand.NewSource(seed))
				var sys task.System
				for i, tk := range splitSystem(r, 2+r.Intn(4)) {
					sys = append(sys, task.MustNew(fmt.Sprintf("t%d", i), tk.G, tk.D, tk.T))
				}
				for _, m := range []int{1, 3, 6} {
					rec := obs.New(obs.DefaultLimits)
					alloc, err := Schedule(sys, m, Options{Policy: pc.name, Trace: rec})
					fmt.Fprintf(&buf, "== seed %d m=%d\n", seed, m)
					if err != nil {
						fmt.Fprintf(&buf, "error: %v\n", err)
					} else {
						b, err := EncodeAllocation(alloc)
						if err != nil {
							t.Fatal(err)
						}
						buf.Write(append(b, '\n'))
					}
					if err := rec.WriteJSONL(&buf, obs.ExportOptions{}); err != nil {
						t.Fatal(err)
					}
					if a, ok := rec.Roots()[0].Lookup("phase"); ok {
						seen[a.Str()] = true
					} else {
						seen["split"] = true
					}
				}
			}
			for _, kind := range []string{"split", PhaseHighDensity.String(), PhaseLowDensity.String()} {
				if !seen[kind] {
					t.Errorf("golden matrix has no %s outcome of the split attempt", kind)
				}
			}
			path := filepath.Join("testdata", pc.name+"_schedule.golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s output differs from %s (rerun with -update only for an intended change)", pc.name, path)
			}
		})
	}
}

// Every allocation a split policy returns must pass the policy-aware
// verifier, and split-shape results must be rejected by the dedicated-only
// (strict) verifier once the tag is stripped. Semi grants carry no template;
// reservation allocations grant no dedicated processors and share all m.
func TestSplitScheduleVerifies(t *testing.T) {
	for _, pc := range splitPolicies {
		t.Run(pc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(pc.verifies))
			splits := 0
			for trial := 0; trial < 300; trial++ {
				sys := splitSystem(r, 1+r.Intn(6))
				m := 1 + r.Intn(8)
				alloc, err := Schedule(sys, m, Options{Policy: pc.name})
				if err != nil {
					continue
				}
				if err := Verify(sys, m, alloc); err != nil {
					t.Fatalf("trial %d: accepted allocation fails Verify: %v", trial, err)
				}
				if alloc.Policy != pc.name {
					continue // fallback path
				}
				splits++
				if pc.name == PolicyReservation {
					if len(alloc.High) != 0 {
						t.Fatalf("trial %d: reservation allocation grants dedicated processors", trial)
					}
					if len(alloc.SharedProcs) != m {
						t.Fatalf("trial %d: reservation shape must share all %d processors, got %d", trial, m, len(alloc.SharedProcs))
					}
				}
				if len(alloc.Servers) > 0 {
					stripped := *alloc
					stripped.Policy = ""
					if Verify(sys, m, &stripped) == nil {
						t.Fatalf("trial %d: strict verifier accepted a %s allocation", trial, pc.name)
					}
				}
				for _, h := range alloc.High {
					if h.Template != nil {
						t.Fatalf("trial %d: split grant carries a template", trial)
					}
				}
			}
			if splits == 0 {
				t.Fatalf("test vacuous: no %s-shape acceptances", pc.name)
			}
		})
	}
}

// Acceptance dominance: every system strict FEDCONS accepts, each split
// policy accepts too (the fallback guarantees it).
func TestSplitDominatesFedcons(t *testing.T) {
	for _, pc := range splitPolicies {
		t.Run(pc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(pc.dominates))
			hits := 0
			for trial := 0; trial < 300; trial++ {
				sys := splitSystem(r, 1+r.Intn(6))
				m := 1 + r.Intn(8)
				if !Schedulable(sys, m, Options{}) {
					continue
				}
				if !Schedulable(sys, m, Options{Policy: pc.name}) {
					t.Fatalf("trial %d: fedcons accepts but %s rejects", trial, pc.name)
				}
				hits++
			}
			if hits == 0 {
				t.Fatal("test vacuous: no fedcons acceptances")
			}
		})
	}
}

// rigidSystem returns a one-task system whose critical path fills its
// window with volume left over: no split grant exists, but strict federation
// schedules it on two processors.
func rigidSystem() (*task.DAGTask, task.System) {
	b := dag.NewBuilder(2)
	b.AddJob(5)
	b.AddJob(5) // two parallel chains: len = 5, vol = 10
	g := b.MustBuild()
	tk := task.MustNew("rigid", g, 5, 5) // w = 5 = len, vol > w
	return tk, task.System{tk}
}

// A task whose critical path fills its window admits no split grant, but
// strict federation can still schedule it on width processors: the fallback
// must return a strict-shape allocation.
func TestSplitFallback(t *testing.T) {
	tk, sys := rigidSystem()
	for _, pc := range splitPolicies {
		t.Run(pc.name, func(t *testing.T) {
			if _, ok := policies[pc.name].size(0, tk, math.MaxInt, nil); ok {
				t.Fatal("the split sizing should be infeasible when len == window < vol")
			}
			alloc, err := Schedule(sys, 2, Options{Policy: pc.name})
			if err != nil {
				t.Fatalf("fallback did not engage: %v", err)
			}
			if alloc.Policy != "" || len(alloc.Servers) != 0 {
				t.Fatalf("fallback allocation not strict-shaped: policy=%q servers=%d", alloc.Policy, len(alloc.Servers))
			}
			if err := Verify(sys, 2, alloc); err != nil {
				t.Fatalf("fallback allocation fails Verify: %v", err)
			}
		})
	}
}

// When both the split and the strict path fail, the strict path's
// high-density *FailureError surfaces.
func TestSplitDoubleFailure(t *testing.T) {
	_, sys := rigidSystem()
	for _, pc := range splitPolicies {
		t.Run(pc.name, func(t *testing.T) {
			_, err := Schedule(sys, 1, Options{Policy: pc.name})
			var fe *FailureError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FailureError, got %T: %v", err, err)
			}
			if fe.Phase != PhaseHighDensity {
				t.Fatalf("want high-density failure, got %v", fe.Phase)
			}
		})
	}
}

// The semi split must satisfy the service condition d·w + E ≥ vol + d·len
// with equality, keep the budget in [1, w], and fail exactly when the
// critical path fills the window with volume left over.
func TestSemiSplitServiceCondition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	highs := 0
	for trial := 0; trial < 2000; trial++ {
		tk := splitTask(r)
		if !tk.HighDensity() {
			continue
		}
		highs++
		vol, l, w := tk.Volume(), tk.Len(), window(tk)
		g, ok := semiSize(0, tk, math.MaxInt, nil)
		if !ok {
			if l < w {
				t.Fatalf("split failed with slack: vol=%d len=%d w=%d", vol, l, w)
			}
			continue
		}
		d, e := g.Procs, g.Budget
		if g.Servers != 1 {
			t.Fatalf("semi split grants %d servers, want 1", g.Servers)
		}
		if e < 1 || e > w {
			t.Fatalf("budget %d outside [1, %d] (vol=%d len=%d d=%d)", e, w, vol, l, d)
		}
		if d < 0 || (vol > w && d < 1) {
			t.Fatalf("vol=%d > w=%d needs a dedicated processor, got d=%d", vol, w, d)
		}
		supply := task.Time(d)*w + e
		need := vol + task.Time(d)*l
		if supply != need {
			t.Fatalf("service condition not tight: %d·%d+%d = %d, want %d", d, w, e, supply, need)
		}
	}
	if highs == 0 {
		t.Fatal("test vacuous: no high-density draws")
	}
}

// The semi split saves exactly one whole processor against the analytic
// strict bound: the Graham-style dedicated count is μ = ⌈(vol−len)/(w−len)⌉,
// and because (vol−w)/(w−len) = (vol−len)/(w−len) − 1 exactly, the split
// always yields d = μ − 1 dedicated processors plus a fractional server
// E ≤ w — the reclaimed rounding loss.
func TestSemiSplitSavesOneProcessor(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	hits := 0
	for trial := 0; trial < 2000; trial++ {
		tk := splitTask(r)
		if !tk.HighDensity() {
			continue
		}
		vol, l, w := tk.Volume(), tk.Len(), window(tk)
		if vol <= w || l >= w {
			continue
		}
		g, ok := semiSize(0, tk, math.MaxInt, nil)
		if !ok {
			t.Fatalf("split failed with slack: vol=%d len=%d w=%d", vol, l, w)
		}
		mu := int((vol - l + (w - l) - 1) / (w - l))
		if g.Procs != mu-1 {
			t.Fatalf("d=%d, want analytic μ−1 = %d (vol=%d len=%d w=%d)", g.Procs, mu-1, vol, l, w)
		}
		hits++
	}
	if hits == 0 {
		t.Fatal("test vacuous")
	}
}

// The reservation sizing must satisfy r·E ≥ vol + (r−1)·len with E ≤ w —
// and E ≤ w must hold from minimality of r alone, without any budget
// clamping.
func TestReservationServiceCondition(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	highs := 0
	for trial := 0; trial < 2000; trial++ {
		tk := splitTask(r)
		if !tk.HighDensity() {
			continue
		}
		highs++
		vol, l, w := tk.Volume(), tk.Len(), window(tk)
		g, ok := reservationSize(0, tk, 0, nil)
		if !ok {
			if l < w {
				t.Fatalf("reservation sizing failed with slack: vol=%d len=%d w=%d", vol, l, w)
			}
			continue
		}
		rr, e := g.Servers, g.Budget
		if g.Procs != 0 {
			t.Fatalf("reservation sizing dedicates %d processors, want 0", g.Procs)
		}
		if rr < 1 {
			t.Fatalf("server count %d < 1", rr)
		}
		if e < 1 || e > w {
			t.Fatalf("budget %d outside [1, %d] (vol=%d len=%d r=%d)", e, w, vol, l, rr)
		}
		if task.Time(rr)*e < vol+task.Time(rr-1)*l {
			t.Fatalf("service condition violated: %d·%d < %d + %d·%d", rr, e, vol, rr-1, l)
		}
		// Minimality: one server fewer cannot satisfy the condition with any
		// budget ≤ w.
		if rr > 1 && task.Time(rr-1)*w >= vol+task.Time(rr-2)*l {
			t.Fatalf("r=%d not minimal: r−1 servers of full budget suffice (vol=%d len=%d w=%d)", rr, vol, l, w)
		}
	}
	if highs == 0 {
		t.Fatal("test vacuous: no high-density draws")
	}
}

// Mutating a semi server budget in either direction must break verification:
// the sizing is tight, so any decrement starves the service inequality, and
// any increment past the window breaks the budget bound.
func TestVerifyRejectsMutatedSemiBudget(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 400 && checked < 25; trial++ {
		sys := splitSystem(r, 1+r.Intn(6))
		m := 1 + r.Intn(8)
		alloc, err := Schedule(sys, m, Options{Policy: PolicySemi})
		if err != nil || alloc.Policy != PolicySemi || len(alloc.Servers) == 0 {
			continue
		}
		checked++
		for j := range alloc.Servers {
			mut := *alloc
			mut.Servers = append([]ServerSpec(nil), alloc.Servers...)
			mut.Servers[j].Budget--
			if err := Verify(sys, m, &mut); err == nil {
				t.Fatalf("trial %d: decremented budget of server %d still verifies", trial, j)
			}
			mut.Servers = append([]ServerSpec(nil), alloc.Servers...)
			mut.Servers[j].Budget = window(sys[mut.Servers[j].TaskIndex]) + 1
			if err := Verify(sys, m, &mut); err == nil {
				t.Fatalf("trial %d: over-window budget of server %d still verifies", trial, j)
			}
		}
	}
	if checked == 0 {
		t.Fatal("test vacuous: no split allocations with servers")
	}
}

// Dropping a reservation server or zeroing its budget must break
// verification.
func TestVerifyRejectsMutatedReservationServers(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	checked := 0
	for trial := 0; trial < 400 && checked < 25; trial++ {
		sys := splitSystem(r, 1+r.Intn(6))
		m := 1 + r.Intn(8)
		alloc, err := Schedule(sys, m, Options{Policy: PolicyReservation})
		if err != nil || alloc.Policy != PolicyReservation || len(alloc.Servers) == 0 {
			continue
		}
		checked++
		// Dropping any single server breaks either the service inequality or
		// the partition coverage.
		for j := range alloc.Servers {
			mut := *alloc
			mut.Servers = append([]ServerSpec(nil), alloc.Servers[:j]...)
			mut.Servers = append(mut.Servers, alloc.Servers[j+1:]...)
			if err := Verify(sys, m, &mut); err == nil {
				t.Fatalf("trial %d: dropped server %d still verifies", trial, j)
			}
		}
		// Zero and over-window budgets are out of range.
		mut := *alloc
		mut.Servers = append([]ServerSpec(nil), alloc.Servers...)
		mut.Servers[0].Budget = 0
		if err := Verify(sys, m, &mut); err == nil {
			t.Fatalf("trial %d: zero budget still verifies", trial)
		}
	}
	if checked == 0 {
		t.Fatal("test vacuous: no reservation allocations")
	}
}

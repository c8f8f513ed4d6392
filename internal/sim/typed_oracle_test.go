package sim_test

// Typed arm of the differential oracle: the fast event-calendar engine and
// the time-stepped reference replay typed allocations (per-type dedicated
// groups, per-type shared processors) and must agree exactly — identical
// per-task statistics and byte-identical canonical traces — across the same
// policy matrix as the untyped suite. On top of the engine agreement, every
// traced execution slice is audited against the platform's type-major
// numbering: a vertex may only ever run on a processor of its own type, and
// a shared processor only ever serves low tasks of its type.

import (
	"fmt"
	"math/rand"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/sim"
	"fedsched/internal/sim/reference"
	"fedsched/internal/task"
)

// typedOracleSystem is oracleSystem with every vertex independently
// re-pinned to type b with probability 0.3.
func typedOracleSystem(r *rand.Rand, n int) task.System {
	sys := oracleSystem(r, n)
	for i, tk := range sys {
		g := tk.G
		b := dag.NewBuilder(g.N())
		for v := 0; v < g.N(); v++ {
			ty := 0
			if r.Float64() < 0.3 {
				ty = 1
			}
			b.AddTypedVertex(g.Vertex(v).Name, g.WCET(v), ty)
		}
		for _, e := range g.Edges() {
			b.AddEdge(e[0], e[1])
		}
		sys[i] = task.MustNew(tk.Name, b.MustBuild(), tk.D, tk.T)
	}
	return sys
}

// typedAcceptedSystem draws typed systems until the typed policy accepts one
// on some genuinely two-type platform, returning the system and its verified
// allocation.
func typedAcceptedSystem(r *rand.Rand) (task.System, *core.Allocation) {
	for tries := 0; tries < 50; tries++ {
		sys := typedOracleSystem(r, 2+r.Intn(4))
		for m := 2; m <= 10; m++ {
			mtypes := []int{m - m/2, m / 2}
			alloc, err := core.Schedule(sys, m, core.Options{Policy: core.PolicyTyped, MTypes: mtypes})
			if err != nil {
				continue
			}
			if len(alloc.MTypes) == 0 {
				continue // degenerated to the strict shape
			}
			return sys, alloc
		}
	}
	return nil, nil
}

// typeOfGlobalProc returns the type owning global processor p under the
// type-major numbering declared by mtypes.
func typeOfGlobalProc(mtypes []int, p int) int {
	base := 0
	for s, m := range mtypes {
		if p < base+m {
			return s
		}
		base += m
	}
	return -1
}

// auditTypedTraces asserts no execution slice ever runs on a wrong-type
// processor: dedicated-group slices carry global processor ids and each
// vertex must stay inside its type's block; a shared processor's slices may
// only belong to low tasks of the processor's type.
func auditTypedTraces(t *testing.T, label string, sys task.System, alloc *core.Allocation, pt *sim.PlatformTrace) {
	t.Helper()
	for k, h := range alloc.High {
		g := sys[h.TaskIndex].G
		for _, s := range pt.High[k].Slices {
			want := g.TypeOf(s.Job.Vertex)
			if got := typeOfGlobalProc(alloc.MTypes, s.Proc); got != want {
				t.Fatalf("%s: task %d vertex %d (type %d) ran on processor %d of type %d",
					label, h.TaskIndex, s.Job.Vertex, want, s.Proc, got)
			}
		}
	}
	for k, p := range alloc.SharedProcs {
		procType := typeOfGlobalProc(alloc.MTypes, p)
		for _, s := range pt.Shared[k].Slices {
			want, _ := sys[s.Job.Task].G.UniformType()
			if want != procType {
				t.Fatalf("%s: low task %d (type %d) ran on shared processor %d of type %d",
					label, s.Job.Task, want, p, procType)
			}
		}
	}
}

// TestOracleTypedFederated differentials typed allocations across the full
// policy matrix. NaiveRerun is the most typed-sensitive mode: it re-runs
// typed list scheduling per instance (RunTyped), so an engine that forgot
// the budgets would dispatch across type boundaries.
func TestOracleTypedFederated(t *testing.T) {
	const wantSystems = 10
	trials, audited := 0, 0
	for seed := int64(0); seed < 80 && trials < wantSystems*len(oracleMatrix); seed++ {
		r := rand.New(rand.NewSource(5000 + seed))
		sys, alloc := typedAcceptedSystem(r)
		if sys == nil {
			continue
		}
		for ci, combo := range oracleMatrix {
			cfg := sim.Config{
				Horizon:  1500,
				Arrivals: combo.arr,
				Exec:     combo.exec,
				Shared:   combo.shared,
				Seed:     seed*100 + int64(ci),
			}
			label := fmt.Sprintf("typed seed=%d arr=%v exec=%v shared=%v mode=%d", seed, combo.arr, combo.exec, combo.shared, combo.mode)
			if combo.mode == sim.TemplateReplay {
				fastRep, fastPT, ferr := sim.FederatedTraced(sys, alloc, cfg)
				refRep, refPT, rerr := reference.FederatedTraced(sys, alloc, cfg)
				if ferr != nil || rerr != nil {
					t.Fatalf("%s: fast err=%v, ref err=%v", label, ferr, rerr)
				}
				diffReports(t, label, fastRep, refRep)
				diffTraces(t, label+" high", fastPT.High, refPT.High)
				diffTraces(t, label+" shared", fastPT.Shared, refPT.Shared)
				auditTypedTraces(t, label+" fast", sys, alloc, fastPT)
				auditTypedTraces(t, label+" ref", sys, alloc, refPT)
				audited++
			} else {
				fastRep, ferr := sim.FederatedMode(sys, alloc, cfg, combo.mode, nil)
				refRep, rerr := reference.FederatedMode(sys, alloc, cfg, combo.mode, nil)
				if ferr != nil || rerr != nil {
					t.Fatalf("%s: fast err=%v, ref err=%v", label, ferr, rerr)
				}
				diffReports(t, label, fastRep, refRep)
			}
			trials++
		}
	}
	if trials < 100 {
		t.Fatalf("only %d typed oracle trials ran, want ≥ 100", trials)
	}
	if audited == 0 {
		t.Fatal("no traced typed trials were type-audited")
	}
	t.Logf("typed federated oracle: %d trials, %d type-audited", trials, audited)
}

// TestOracleTypedDedicatedGroups retries until systems with at least one
// dedicated typed group are found, so the template-replay and rerun paths of
// both engines demonstrably exercise multi-type grants, not just per-type
// partitioned EDF.
func TestOracleTypedDedicatedGroups(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 200 && found < 5; seed++ {
		r := rand.New(rand.NewSource(7000 + seed))
		sys, alloc := typedAcceptedSystem(r)
		if sys == nil || len(alloc.High) == 0 {
			continue
		}
		found++
		cfg := sim.Config{Horizon: 2000, Arrivals: sim.SporadicRandom, Exec: sim.UniformExec, Shared: sim.EDFPolicy, Seed: seed}
		label := fmt.Sprintf("typed-groups seed=%d", seed)
		fastRep, fastPT, ferr := sim.FederatedTraced(sys, alloc, cfg)
		refRep, refPT, rerr := reference.FederatedTraced(sys, alloc, cfg)
		if ferr != nil || rerr != nil {
			t.Fatalf("%s: fast err=%v, ref err=%v", label, ferr, rerr)
		}
		diffReports(t, label, fastRep, refRep)
		diffTraces(t, label+" high", fastPT.High, refPT.High)
		diffTraces(t, label+" shared", fastPT.Shared, refPT.Shared)
		auditTypedTraces(t, label, sys, alloc, fastPT)

		fastN, ferr := sim.FederatedMode(sys, alloc, cfg, sim.NaiveRerun, nil)
		refN, rerr := reference.FederatedMode(sys, alloc, cfg, sim.NaiveRerun, nil)
		if ferr != nil || rerr != nil {
			t.Fatalf("%s rerun: fast err=%v, ref err=%v", label, ferr, rerr)
		}
		diffReports(t, label+" rerun", fastN, refN)
	}
	if found == 0 {
		t.Fatal("no typed system with dedicated groups was accepted in 200 seeds")
	}
	t.Logf("typed dedicated-group oracle: %d systems", found)
}

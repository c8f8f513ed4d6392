package core

import (
	"math/rand"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// traceSystem is a small mixed system: one high-density parallel task plus
// two low-density singletons, schedulable on 4 processors.
func traceSystem() task.System {
	return task.System{
		highTask("hi", 4, 5, 10, 10), // δ = 2 → dedicated pair
		lowTask("lo1", 2, 8, 16),
		lowTask("lo2", 3, 12, 24),
	}
}

func TestScheduleTraceShape(t *testing.T) {
	rec := obs.New(obs.DefaultLimits)
	if _, err := Schedule(traceSystem(), 4, Options{Trace: rec}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	roots := rec.Roots()
	if len(roots) != 1 || roots[0].Name() != "fedcons" {
		t.Fatalf("roots = %v", roots)
	}
	root := roots[0]
	if v, ok := root.Lookup("schedulable"); !ok || !v.Bool() {
		t.Errorf("root schedulable attr = %v, %v", v, ok)
	}
	p1 := root.Children()[0]
	if p1.Name() != "phase1" {
		t.Fatalf("first child = %q, want phase1", p1.Name())
	}
	tasks := p1.Children()
	if len(tasks) != 3 {
		t.Fatalf("phase1 has %d task spans, want 3", len(tasks))
	}
	hi := tasks[0]
	if v, _ := hi.Lookup("high"); !v.Bool() {
		t.Errorf("task %q not classified high-density", "hi")
	}
	if v, ok := hi.Lookup("density"); !ok || v.Float64() != 2.0 {
		t.Errorf("density attr = %v, want 2.0", v)
	}
	mus := hi.Children()
	if len(mus) == 0 {
		t.Fatal("no mu candidate spans under the high-density task")
	}
	last := mus[len(mus)-1]
	if v, _ := last.Lookup("ok"); !v.Bool() {
		t.Errorf("final mu candidate not ok: %v", last.Attrs())
	}
	if _, ok := last.Lookup("lemma1_bound"); !ok {
		t.Error("mu span lacks lemma1_bound")
	}
	if v, ok := hi.Lookup("mu"); !ok || v.Int64() != 2 {
		t.Errorf("chosen mu attr = %v, want 2", v)
	}
	// Phase 2 places both low tasks.
	p2 := root.Children()[1]
	if p2.Name() != "phase2" {
		t.Fatalf("second child = %q, want phase2", p2.Name())
	}
	places := p2.Children()
	if len(places) != 2 {
		t.Fatalf("phase2 has %d place spans, want 2", len(places))
	}
	for _, pl := range places {
		if pl.Name() != "place" {
			t.Errorf("phase2 child %q, want place", pl.Name())
		}
		if len(pl.Children()) == 0 {
			t.Errorf("place span %v has no fit probes", pl.Attrs())
		}
	}
}

func TestScheduleTracePhase1Rejection(t *testing.T) {
	// Four independent jobs of 6, D = 11, T = 12: δ = 24/11 → scan starts at
	// 3, capped at min(scanCap 4, m_r 3) = 3, and μ = 3 gives makespan 12 > 11.
	sys := task.System{task.MustNew("hot", dag.Independent(6, 6, 6, 6), 11, 12)}
	rec := obs.New(obs.DefaultLimits)
	if _, err := Schedule(sys, 3, Options{Trace: rec}); err == nil {
		t.Fatal("want rejection")
	}
	root := rec.Roots()[0]
	if v, _ := root.Lookup("schedulable"); v.Bool() {
		t.Error("root claims schedulable after failure")
	}
	if v, _ := root.Lookup("phase"); v.Str() != "high-density" {
		t.Errorf("failure phase = %q", v.Str())
	}
	tsp := root.Children()[0].Children()[0]
	if v, _ := tsp.Lookup("failed"); !v.Bool() {
		t.Error("task span not marked failed")
	}
	mus := tsp.Children()
	if len(mus) != 1 {
		t.Fatalf("tried %d mu candidates, want 1 (scan 3..3)", len(mus))
	}
	if v, _ := mus[0].Lookup("makespan"); v.Int64() != 12 {
		t.Errorf("mu=3 makespan = %d, want 12", v.Int64())
	}
	if v, _ := mus[0].Lookup("ok"); v.Bool() {
		t.Error("failing candidate marked ok")
	}
}

func TestScheduleTracePhase2Rejection(t *testing.T) {
	// One processor, two C=3 D=5 T=10 singletons: the second demands
	// 3 + 3 = 6 > 5 at its own deadline.
	sys := task.System{lowTask("a", 3, 5, 10), lowTask("b", 3, 5, 10)}
	rec := obs.New(obs.DefaultLimits)
	if _, err := Schedule(sys, 1, Options{Trace: rec}); err == nil {
		t.Fatal("want rejection")
	}
	root := rec.Roots()[0]
	if v, _ := root.Lookup("phase"); v.Str() != "low-density" {
		t.Errorf("failure phase = %q", v.Str())
	}
	p2 := root.Children()[1]
	places := p2.Children()
	if len(places) != 2 {
		t.Fatalf("%d place spans, want 2", len(places))
	}
	fail := places[1]
	if v, _ := fail.Lookup("failed"); !v.Bool() {
		t.Error("second place span not marked failed")
	}
	fits := fail.Children()
	if len(fits) != 1 {
		t.Fatalf("%d fit probes, want 1", len(fits))
	}
	if v, ok := fits[0].Lookup("demand_ok"); !ok || v.Bool() {
		t.Errorf("demand_ok = %v, %v; want recorded false", v, ok)
	}
	if v, ok := fits[0].Lookup("demand"); !ok || v.Float64() != 6 {
		t.Errorf("demand = %v, want 6", v)
	}
}

// TestTraceAnalyticMode covers the MinprocsAnalyticTrace path.
func TestTraceAnalyticMode(t *testing.T) {
	rec := obs.New(obs.DefaultLimits)
	if _, err := Schedule(traceSystem(), 4, Options{Minprocs: Analytic, Trace: rec}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	hi := rec.Roots()[0].Children()[0].Children()[0]
	mus := hi.Children()
	if len(mus) != 1 {
		t.Fatalf("analytic mode tried %d candidates, want 1", len(mus))
	}
	if v, _ := mus[0].Lookup("ok"); !v.Bool() {
		t.Error("analytic candidate not ok")
	}
}

// TestNoopTraceZeroOverhead pins the disabled-tracing contract: Schedule with
// a nil recorder (explicitly spelled obs.Noop) allocates exactly as much as
// Schedule with no Trace field at all.
func TestNoopTraceZeroOverhead(t *testing.T) {
	sys := traceSystem()
	base := testing.AllocsPerRun(50, func() {
		if _, err := Schedule(sys, 4, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	noop := testing.AllocsPerRun(50, func() {
		if _, err := Schedule(sys, 4, Options{Trace: obs.Noop}); err != nil {
			t.Fatal(err)
		}
	})
	if noop != base {
		t.Errorf("Noop-traced Schedule allocates %v, untraced %v", noop, base)
	}
}

// BenchmarkScheduleTrace quantifies the cost of decision tracing on the
// 20-task mixed workload of BenchmarkScheduleMixed: "off" is the pre-obs
// baseline (no Trace field), "noop" the explicit disabled recorder, and "on"
// a live recorder rebuilt per run. The off/noop pair must be statistically
// indistinguishable; off-vs-on is the enabled overhead recorded in
// results/timing_obs.json.
func BenchmarkScheduleTrace(b *testing.B) {
	r := rand.New(rand.NewSource(36))
	sys := randomSystem(r, 20)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Schedule(sys, 16, Options{})
		}
	})
	b.Run("noop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Schedule(sys, 16, Options{Trace: obs.Noop})
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Schedule(sys, 16, Options{Trace: obs.New(obs.Limits{})})
		}
	})
}

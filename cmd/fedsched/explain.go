package main

import (
	"fmt"
	"io"
	"os"

	"fedsched/internal/obs"
)

// writeTrace exports the decision trace as JSONL (timings off, so the bytes
// are deterministic for a fixed input and option set). path "-" writes to the
// CLI's own output stream.
func writeTrace(out io.Writer, rec *obs.Recorder, path string) error {
	if path == "-" {
		return rec.WriteJSONL(out, obs.ExportOptions{})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f, obs.ExportOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExplanation renders the recorded FEDCONS decision trace as a
// human-readable narrative: per-task density classification, every MINPROCS
// candidate with its makespan against the Lemma-1 bound, and every Phase-2
// placement with the DBF* inequalities of the processors probed. On a
// rejection the narrative names the phase, the task, and the decisive
// inequality.
func writeExplanation(out io.Writer, rec *obs.Recorder) {
	roots := rec.Roots()
	if len(roots) == 0 {
		fmt.Fprintln(out, "explanation: no trace recorded")
		return
	}
	root := roots[0]
	fmt.Fprintln(out, "\nexplanation:")
	for _, phase := range root.Children() {
		switch phase.Name() {
		case "phase1":
			explainPhase1(out, phase)
		case "phase2":
			explainPhase2(out, phase)
		}
	}
	if v, ok := root.Lookup("schedulable"); ok && !v.Bool() {
		if p, ok := root.Lookup("phase"); ok {
			fmt.Fprintf(out, "  verdict: UNSCHEDULABLE — FEDCONS gave up in the %s phase\n", p.Str())
		}
	} else {
		fmt.Fprintln(out, "  verdict: SCHEDULABLE — both phases succeeded")
	}
}

func explainPhase1(out io.Writer, p1 *obs.Span) {
	fmt.Fprintln(out, "  phase 1 — MINPROCS sizing of high-density tasks:")
	for _, tsp := range p1.Children() {
		name := attrStr(tsp, "task")
		vol, l := attrInt(tsp, "vol"), attrInt(tsp, "len")
		window := attrInt(tsp, "window")
		density := attrFloat(tsp, "density")
		if !attrBool(tsp, "high") {
			fmt.Fprintf(out, "    %-12s δ=%.3f < 1 → low-density, deferred to phase 2\n", name, density)
			continue
		}
		fmt.Fprintf(out, "    %-12s δ=%.3f ≥ 1 → high-density (vol=%d, len=%d, window=%d)\n",
			name, density, vol, l, window)
		if cache := attrStr(tsp, "cache"); cache == "hit" {
			fmt.Fprintf(out, "      μ*=%d replayed from the analysis cache\n", attrInt(tsp, "mu"))
			continue
		}
		if reason := attrStr(tsp, "reason"); reason == "critical-path-exceeds-window" {
			fmt.Fprintf(out, "      REJECTED: len=%d > window=%d — no processor count can meet the deadline\n", l, window)
			continue
		}
		if start, ok := tsp.Lookup("scan_start"); ok {
			fmt.Fprintf(out, "      scan μ = %d..%d (⌈δ⌉=%d, cap=%d, %d processors remaining)\n",
				start.Int64(), attrInt(tsp, "limit"), start.Int64(), attrInt(tsp, "cap"), attrInt(tsp, "remaining"))
		}
		for _, mu := range tsp.Children() {
			if mu.Name() != "mu" {
				continue
			}
			m, makespan := attrInt(mu, "mu"), attrInt(mu, "makespan")
			bound := attrFloat(mu, "lemma1_bound")
			if attrBool(mu, "ok") {
				fmt.Fprintf(out, "      μ=%d: LS makespan %d ≤ window %d (Lemma-1 bound %.3f) → ACCEPT, dedicate %d processors\n",
					m, makespan, window, bound, m)
			} else {
				fmt.Fprintf(out, "      μ=%d: LS makespan %d > window %d (Lemma-1 bound %.3f) → too slow\n",
					m, makespan, window, bound)
			}
		}
		if attrBool(tsp, "failed") {
			fmt.Fprintf(out, "      REJECTED: no μ up to the %d remaining processors meets window %d\n",
				attrInt(tsp, "remaining"), window)
		}
	}
}

func explainPhase2(out io.Writer, p2 *obs.Span) {
	fmt.Fprintf(out, "  phase 2 — %s partition of low-density tasks onto %d shared processors (%s test):\n",
		attrStr(p2, "heuristic"), attrInt(p2, "procs"), attrStr(p2, "test"))
	if attrInt(p2, "low") == 0 {
		fmt.Fprintln(out, "    no low-density tasks — nothing to place")
		return
	}
	for _, place := range p2.Children() {
		if place.Name() != "place" {
			continue
		}
		name := attrStr(place, "task")
		c, d, t := attrInt(place, "C"), attrInt(place, "D"), attrInt(place, "T")
		if !attrBool(place, "failed") {
			fmt.Fprintf(out, "    place %-12s (C=%d D=%d T=%d) → proc %d\n", name, c, d, t, attrInt(place, "proc"))
			continue
		}
		fmt.Fprintf(out, "    place %-12s (C=%d D=%d T=%d):\n", name, c, d, t)
		for _, fit := range place.Children() {
			if fit.Name() != "fit" {
				continue
			}
			fmt.Fprintf(out, "      proc %d: %s → does not fit\n", attrInt(fit, "proc"), fitInequality(fit))
		}
		fmt.Fprintln(out, "      REJECTED: fits no shared processor")
	}
}

// fitInequality renders the decisive inequality of one failed fit probe.
func fitInequality(fit *obs.Span) string {
	if _, ok := fit.Lookup("util"); !ok {
		// edf-exact / dm-rta probes record only the boolean outcome.
		return fmt.Sprintf("%s test rejects", attrStr(fit, "test"))
	}
	if !attrBool(fit, "util_ok") {
		return fmt.Sprintf("Σu = %.4g > 1", attrFloat(fit, "util"))
	}
	if !attrBool(fit, "demand_ok") {
		return fmt.Sprintf("C + ΣDBF*(D=%d) = %.4g > %d", attrInt(fit, "capacity"), attrFloat(fit, "demand"), attrInt(fit, "capacity"))
	}
	return fmt.Sprintf("Σu = %.4g ≤ 1, C + ΣDBF* = %.4g ≤ %d", attrFloat(fit, "util"), attrFloat(fit, "demand"), attrInt(fit, "capacity"))
}

// Attr accessors with zero-value defaults for absent keys.
func attrInt(s *obs.Span, key string) int64 {
	if v, ok := s.Lookup(key); ok {
		return v.Int64()
	}
	return 0
}

func attrFloat(s *obs.Span, key string) float64 {
	if v, ok := s.Lookup(key); ok {
		return v.Float64()
	}
	return 0
}

func attrStr(s *obs.Span, key string) string {
	if v, ok := s.Lookup(key); ok {
		return v.Str()
	}
	return ""
}

func attrBool(s *obs.Span, key string) bool {
	if v, ok := s.Lookup(key); ok {
		return v.Bool()
	}
	return false
}

package core

import (
	"fmt"
	"strings"

	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// This file is the core analysis layer of the typed/heterogeneous processor
// model (after Han et al.'s typed federated scheduling): the typed MINPROCS
// sizing procedure the "typed" policy (internal/typedfed) runs per dedicated
// task. Platform shape: MTypes[s] processors of type s, numbered type-major —
// type s owns the global ids [Σ_{t<s} MTypes[t], Σ_{t≤s} MTypes[t]).

// FormatMTypes renders per-type budgets in the -m-types flag vocabulary:
// "a:4,b:2" (type indices 0,1,… spelled a,b,…; indices past 'z' fall back to
// "t26:" and up). Used by banners, traces and error messages.
func FormatMTypes(mtypes []int) string {
	var sb strings.Builder
	for s, m := range mtypes {
		if s > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(TypeName(s))
		fmt.Fprintf(&sb, ":%d", m)
	}
	return sb.String()
}

// TypeName spells processor type index s as a letter ("a" for 0, "b" for 1,
// …), falling back to "t<index>" past "z".
func TypeName(s int) string {
	if s >= 0 && s < 26 {
		return string(rune('a' + s))
	}
	return fmt.Sprintf("t%d", s)
}

// MinprocsTyped is the typed analogue of procedure MINPROCS: the smallest
// (by the greedy residual order below) per-type budget vector μ, with
// μ[s] ≤ avail[s], for which typed list scheduling of tk's dag-job finishes
// within the scheduling window min(D, T). The scan starts each type at its
// density floor ⌈vol_s/window⌉ (≥ 1 wherever the task has type-s work) and,
// while the witness makespan overshoots, grants one more processor to the
// type with the largest per-processor residual (vol_s − len_s(λ))/μ_s —
// the term of the typed Graham bound that shrinks. Budgets are capped at
// the task's per-type vertex count: at that cap no type-s job ever waits,
// so the makespan has collapsed to len(G), which fits the window whenever
// anything does.
//
// The returned vector is padded to len(avail) entries and is also recorded
// on the witness template (Template.MTypes). ok is false when no vector
// within avail suffices. When sp is non-nil the scan window and every
// candidate vector are traced, mirroring MinprocsTrace.
func MinprocsTyped(tk *task.DAGTask, avail []int, prio listsched.Priority, sp *obs.Span) (mu []int, tmpl *listsched.Schedule, ok bool) {
	ntypes := len(avail)
	g := tk.G
	if g.NumTypes() > ntypes {
		sp.Str("reason", "task-types-exceed-platform")
		return nil, nil, false
	}
	d := window(tk)
	if tk.Len() > d {
		sp.Str("reason", "critical-path-exceeds-window")
		return nil, nil, false
	}
	counts := pad(g.CountByType(), ntypes)
	vols := padTime(g.VolumeByType(), ntypes)
	lens := padTime(listsched.ChainWorkByType(g, g.NumTypes()), ntypes)

	mu = make([]int, ntypes)
	caps := make([]int, ntypes)
	total := 0
	for s := 0; s < ntypes; s++ {
		if counts[s] == 0 {
			continue
		}
		caps[s] = counts[s]
		if avail[s] < caps[s] {
			caps[s] = avail[s]
		}
		// Density floor: vol_s work must fit in the window on μ_s type-s
		// processors, so μ_s·window ≥ vol_s is necessary.
		mu[s] = int((vols[s] + d - 1) / d)
		if mu[s] < 1 {
			mu[s] = 1
		}
		if mu[s] > avail[s] {
			sp.Str("reason", "type-density-exceeds-remaining")
			return nil, nil, false
		}
		total += mu[s]
	}
	if sp != nil {
		sp.Str("scan_start", FormatMTypes(mu)).Str("avail", FormatMTypes(avail))
	}
	for {
		s, err := listsched.RunTyped(g, mu, prio)
		if err != nil {
			return nil, nil, false
		}
		if sp != nil {
			sp.Child("mu").Str("mu", FormatMTypes(mu)).Int("mu_total", int64(total)).
				Int("makespan", int64(s.Makespan)).
				Float("typed_bound", listsched.TypedBound(g, mu)).
				Bool("ok", s.Makespan <= d).Finish()
		}
		if s.Makespan <= d {
			return mu, s, true
		}
		// Grant one more processor to the type with the largest residual
		// (vol_s − len_s)/μ_s among those below cap; exact comparison by
		// cross-multiplication, ties to the lowest type index.
		best := -1
		for s := 0; s < ntypes; s++ {
			if mu[s] >= caps[s] {
				continue
			}
			if best < 0 || (vols[s]-lens[s])*Time(mu[best]) > (vols[best]-lens[best])*Time(mu[s]) {
				best = s
			}
		}
		if best < 0 {
			sp.Str("reason", "scan-exhausted")
			return nil, nil, false
		}
		mu[best]++
		total++
	}
}

func pad(v []int, n int) []int {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

func padTime(v []Time, n int) []Time {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

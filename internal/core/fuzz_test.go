package core_test

import (
	"math/rand"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/task"

	// Registering the policies lets the fuzzer request split-shape
	// allocations through the ordinary core.Schedule dispatch. This file is
	// an external test package precisely so these imports are legal.
	_ "fedsched/internal/reservation"
	_ "fedsched/internal/semifed"
	_ "fedsched/internal/typedfed"
)

// retypeSysForFuzz rebuilds each task with every vertex independently
// re-pinned to type b with the given probability (structure, WCETs, D and T
// unchanged) — the typed-system counterpart of FuzzSystemForTest.
func retypeSysForFuzz(r *rand.Rand, sys task.System, prob float64) task.System {
	out := make(task.System, len(sys))
	for i, tk := range sys {
		g := tk.G
		b := dag.NewBuilder(g.N())
		for v := 0; v < g.N(); v++ {
			ty := 0
			if r.Float64() < prob {
				ty = 1
			}
			b.AddTypedVertex(g.Vertex(v).Name, g.WCET(v), ty)
		}
		for _, e := range g.Edges() {
			b.AddEdge(e[0], e[1])
		}
		out[i] = task.MustNew(tk.Name, b.MustBuild(), tk.D, tk.T)
	}
	return out
}

// flipOneVertexType rebuilds tk with exactly vertex v's processor type
// toggled a↔b.
func flipOneVertexType(tk *task.DAGTask, v int) *task.DAGTask {
	g := tk.G
	b := dag.NewBuilder(g.N())
	for w := 0; w < g.N(); w++ {
		ty := g.TypeOf(w)
		if w == v {
			ty = 1 - ty
		}
		b.AddTypedVertex(g.Vertex(w).Name, g.WCET(w), ty)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return task.MustNew(tk.Name, b.MustBuild(), tk.D, tk.T)
}

// procTypeOf returns the type owning global processor p under the type-major
// numbering declared by mtypes.
func procTypeOf(mtypes []int, p int) int {
	base := 0
	for s, m := range mtypes {
		if p < base+m {
			return s
		}
		base += m
	}
	return -1
}

// FuzzVerifyAllocation checks the two faces of core.Verify on fuzz-chosen
// systems: every allocation Schedule produces passes it unchanged, and no
// single structural corruption slips through. Mutations 0–7 corrupt the
// strict FEDCONS shape — wrong platform size, dropped or duplicated task,
// out-of-range or double-claimed processor, missing or inconsistent
// template, discarded partition. Mutations 8–12 corrupt split-shape
// allocations produced by the semi-federated (even seeds) and reservation
// (odd seeds) policies: a cleared policy tag smuggling servers past the
// strict verifier, fractional-server budgets forced to zero or past the
// owner's window, and dropped or duplicated reservation servers.
// Mutations 13–16 corrupt typed allocations on a two-type platform: the
// policy tag cleared so the per-type budgets hit the strict verifier, a
// vertex's processor type flipped in the system the allocation is audited
// against, two dedicated processors of different types swapped in a grant's
// local→global mapping, and a type's budget zeroed. Mutation 17 places an
// out-of-range partition index (−1 on even seeds, one past the partitioned
// tasks on odd ones) on a strict allocation's first shared processor.
func FuzzVerifyAllocation(f *testing.F) {
	for seed := uint32(0); seed < 4; seed++ {
		for mut := uint8(0); mut < 17; mut++ {
			f.Add(seed, mut)
		}
	}
	// Mutation 17 seeds go after the others so the earlier seeds keep
	// their corpus indices.
	for seed := uint32(0); seed < 4; seed++ {
		f.Add(seed, uint8(17))
	}
	f.Fuzz(func(t *testing.T, seed uint32, mut uint8) {
		r := rand.New(rand.NewSource(int64(seed)))
		sys := core.FuzzSystemForTest(r, 2+r.Intn(4))
		mut %= 18
		typed, split := mut >= 13 && mut < 17, mut >= 8 && mut < 13
		var opt core.Options
		if typed {
			opt.Policy = core.PolicyTyped
			sys = retypeSysForFuzz(r, sys, 0.3)
		} else if split {
			opt.Policy = core.PolicySemi
			if seed%2 == 1 {
				opt.Policy = core.PolicyReservation
			}
		}
		var alloc *core.Allocation
		var m int
		for m = 2; m <= 8; m++ {
			if typed {
				// Both budgets positive: a genuinely heterogeneous platform,
				// so the typed path cannot degenerate to strict FEDCONS.
				opt.MTypes = []int{m - m/2, m / 2}
			}
			a, err := core.Schedule(sys, m, opt)
			if err == nil {
				alloc = a
				break
			}
		}
		if alloc == nil {
			t.Skip("system rejected on every platform size")
		}
		if typed && len(alloc.MTypes) == 0 {
			t.Skip("typed allocation degenerated to the strict shape")
		}
		if split && (alloc.Policy == "" || len(alloc.Servers) == 0) {
			// Either the policy fell back to the strict shape, or the system
			// has no high-density tasks so the split shape degenerates to a
			// pure partition — nothing fractional to corrupt either way.
			t.Skip("no reservation servers to corrupt")
		}
		if err := core.Verify(sys, m, alloc); err != nil {
			t.Fatalf("clean allocation failed Verify: %v", err)
		}
		checkSys := sys

		mutated := core.CloneAllocForTest(alloc)
		var desc string
		switch mut {
		case 0:
			mutated.M++
			desc = "wrong platform size"
		case 1:
			if len(mutated.LowIndices) > 0 {
				mutated.LowIndices = mutated.LowIndices[:len(mutated.LowIndices)-1]
				desc = "dropped low task"
			} else {
				mutated.High = mutated.High[:len(mutated.High)-1]
				desc = "dropped high task"
			}
		case 2:
			if len(mutated.LowIndices) > 0 {
				mutated.LowIndices = append(mutated.LowIndices, mutated.LowIndices[0])
				desc = "duplicated low task"
			} else {
				mutated.High = append(mutated.High, mutated.High[0])
				desc = "duplicated high task"
			}
		case 3:
			if len(mutated.SharedProcs) > 0 {
				mutated.SharedProcs[0] = m
			} else {
				mutated.High[0].Procs[0] = -1
			}
			desc = "processor out of range"
		case 4:
			switch {
			case len(mutated.High) > 0 && len(mutated.SharedProcs) > 0:
				mutated.SharedProcs[0] = mutated.High[0].Procs[0]
			case len(mutated.SharedProcs) >= 2:
				mutated.SharedProcs[1] = mutated.SharedProcs[0]
			case len(mutated.High) >= 1 && len(mutated.High[0].Procs) >= 2:
				mutated.High[0].Procs[1] = mutated.High[0].Procs[0]
			default:
				t.Skip("no way to double-claim with one resource")
			}
			desc = "processor claimed twice"
		case 5:
			if len(mutated.High) == 0 {
				t.Skip("no dedicated groups to corrupt")
			}
			mutated.High[0].Template = nil
			desc = "missing template"
		case 6:
			if len(mutated.High) == 0 {
				t.Skip("no dedicated groups to corrupt")
			}
			mutated.High[0].Template.Makespan++
			desc = "inconsistent template makespan"
		case 7:
			mutated.Low = nil
			desc = "discarded partition"
		case 8:
			mutated.Policy = ""
			desc = "split allocation relabeled as strict"
		case 9:
			mutated.Servers[0].Budget = 0
			desc = "zero server budget"
		case 10:
			owner := sys[mutated.Servers[0].TaskIndex]
			mutated.Servers[0].Budget = core.Window(owner) + 1
			desc = "server budget beyond the owner's window"
		case 11:
			mutated.Servers = mutated.Servers[:len(mutated.Servers)-1]
			desc = "dropped reservation server"
		case 12:
			mutated.Servers = append(mutated.Servers, mutated.Servers[0])
			desc = "duplicated reservation server"
		case 13:
			mutated.Policy = ""
			desc = "typed allocation relabeled as strict"
		case 14:
			ti := r.Intn(len(sys))
			vi := r.Intn(sys[ti].G.N())
			checkSys = append(task.System(nil), sys...)
			checkSys[ti] = flipOneVertexType(sys[ti], vi)
			desc = "vertex processor type flipped in the audited system"
		case 15:
			i, j := -1, -1
			for _, h := range mutated.High {
				for a := range h.Procs {
					for b := a + 1; b < len(h.Procs); b++ {
						if procTypeOf(mutated.MTypes, h.Procs[a]) != procTypeOf(mutated.MTypes, h.Procs[b]) {
							i, j = a, b
						}
					}
				}
				if i >= 0 {
					h.Procs[i], h.Procs[j] = h.Procs[j], h.Procs[i]
					break
				}
			}
			if i < 0 {
				t.Skip("no dedicated grant spans both processor types")
			}
			desc = "cross-type processor swap in a dedicated grant"
		case 16:
			mutated.MTypes = append([]int(nil), mutated.MTypes...)
			mutated.MTypes[1] = 0
			desc = "type-b budget zeroed"
		case 17:
			if len(mutated.SharedProcs) == 0 {
				t.Skip("no shared processor to corrupt")
			}
			bad := -1
			if seed%2 == 1 {
				bad = len(mutated.LowIndices)
			}
			mutated.Low.Assignment[0] = append(mutated.Low.Assignment[0], bad)
			desc = "partition index out of range"
		}
		if err := core.Verify(checkSys, m, mutated); err == nil {
			t.Fatalf("mutated allocation (%s, policy %q) passed Verify; seed=%d", desc, alloc.Policy, seed)
		}
	})
}

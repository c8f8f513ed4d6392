package core

import (
	"errors"
	"fmt"

	"fedsched/internal/listsched"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// This file is the incremental FEDCONS entry point: the warm-path composition
// of the (already memoized) Phase-1 outcome with an incremental Phase-2
// state. A single low-density admission or removal leaves every Phase-1
// decision untouched — dedicated grants, reservation servers, processor
// numbering and the shared-processor set are all functions of the tasks
// that need dedicated service only — so the new allocation is the old one
// with the low-density fields replaced by the state's replayed partition.
// The results are byte-identical to a from-scratch Schedule on the mutated
// system (pinned by the differential harnesses in internal/partition,
// internal/core and internal/service); traced analyses never come here, so
// -trace/-explain output is produced by exactly the same batch code as
// before.

// LowState is the live incremental Phase-2 state of one installed
// allocation: one partition.State per bank of shared processors, each
// mirroring the partition the batch analysis ran over that bank.
//
//   - Strict and split shapes have exactly one bank over all SharedProcs,
//     fed the servers-first PartitionSystem input.
//   - A typed allocation has one bank per processor type t, over that
//     type's leftover processors (contiguous in SharedProcs, because
//     numbering is type-major) and fed the low-density tasks of type t in
//     LowIndices order — the independent per-type Baruah–Fisher partitions
//     of the typed policy's Phase 2 (typed.go).
//
// A mutation touches only the bank of the task's type: every other bank
// keeps the identical input and processors, so the batch analysis would
// rebuild its identical partition. LowState is not safe for concurrent use.
type LowState struct {
	typed bool
	banks []lowBank
}

// lowBank is one bank's partition state. pos maps the bank's input index to
// the task's LowIndices position (typed banks only: the single bank's input
// index is its PartitionSystem position, servers first).
type lowBank struct {
	st  *partition.State
	pos []int
}

// NewLowState builds the LowState mirroring a's Phase-2 outcome, the state
// the batch analysis of (sys, m, opt) would leave behind. a must be a
// verified allocation of sys; its partition is validated for exactly-once
// coverage and type-correct banks, not re-checked for schedulability.
func NewLowState(sys task.System, a *Allocation, opt partition.Options) (*LowState, error) {
	if !policies[a.Policy].typed {
		part, err := PartitionSystem(sys, a)
		if err != nil {
			return nil, err
		}
		st, err := partition.Rebuild(part, len(a.SharedProcs), a.Low, opt)
		if err != nil {
			return nil, err
		}
		return &LowState{banks: []lowBank{{st: st}}}, nil
	}
	if a.Low == nil || len(a.Low.Assignment) != len(a.SharedProcs) {
		return nil, fmt.Errorf("fedcons: typed partition does not cover the %d shared processors", len(a.SharedProcs))
	}
	ntypes := len(a.MTypes)
	// Bank t's input: the type-t low tasks in LowIndices order; LowIndices
	// position p is input local[p] of bank typ[p].
	banks := make([]lowBank, ntypes)
	subs := make([]task.System, ntypes)
	typ := make([]int, len(a.LowIndices))
	local := make([]int, len(a.LowIndices))
	for p, i := range a.LowIndices {
		if i < 0 || i >= len(sys) {
			return nil, fmt.Errorf("fedcons: low index %d out of range", i)
		}
		t, uniform := sys[i].G.UniformType()
		if !uniform || t >= ntypes {
			return nil, fmt.Errorf("fedcons: low task %d has no processor type of the platform's %d", i, ntypes)
		}
		typ[p], local[p] = t, len(banks[t].pos)
		banks[t].pos = append(banks[t].pos, p)
		subs[t] = append(subs[t], sys[i])
	}
	// Bank t covers the SharedProcs entries of type t: a contiguous run,
	// because SharedProcs ascends and numbering is type-major.
	typeBase := listsched.TypedProcBase(a.MTypes)
	k := 0
	for t := range banks {
		res := &partition.Result{}
		for ; k < len(a.SharedProcs) && typeOf(typeBase, a.SharedProcs[k]) == t; k++ {
			var procTasks []int
			for _, p := range a.Low.Assignment[k] {
				if p < 0 || p >= len(typ) || typ[p] != t {
					return nil, fmt.Errorf("fedcons: typed partition places position %d on a processor of type %s", p, TypeName(t))
				}
				procTasks = append(procTasks, local[p])
			}
			res.Assignment = append(res.Assignment, procTasks)
		}
		st, err := partition.Rebuild(subs[t], len(res.Assignment), res, opt)
		if err != nil {
			return nil, err
		}
		banks[t].st = st
	}
	if k != len(a.SharedProcs) {
		return nil, fmt.Errorf("fedcons: shared processor %d is out of type-major order", a.SharedProcs[k])
	}
	return &LowState{typed: true, banks: banks}, nil
}

// Len returns the number of partitioned tasks (servers included), summed
// over the banks.
func (ls *LowState) Len() int {
	n := 0
	for _, b := range ls.banks {
		n += b.st.Len()
	}
	return n
}

// M returns the number of shared processors, summed over the banks.
func (ls *LowState) M() int {
	n := 0
	for _, b := range ls.banks {
		n += b.st.M()
	}
	return n
}

// Covers reports whether a bank takes tasks of tk's processor type: the
// single bank takes every task; typed banks take a uniformly-typed task of a
// type the platform declares.
func (ls *LowState) Covers(tk *task.DAGTask) bool {
	return ls.bankOf(tk) >= 0
}

// bankOf returns the bank tk's placement belongs to, or -1.
func (ls *LowState) bankOf(tk *task.DAGTask) int {
	if !ls.typed {
		return 0
	}
	if t, uniform := tk.G.UniformType(); uniform && t < len(ls.banks) {
		return t
	}
	return -1
}

// fits checks that base has the shape ls was built for.
func (ls *LowState) fits(base *Allocation) error {
	if ls.typed != policies[base.Policy].typed || ls.typed && len(ls.banks) != len(base.MTypes) {
		return fmt.Errorf("fedcons: a %d-bank partition state does not mirror a %q allocation", len(ls.banks), base.Policy)
	}
	return nil
}

// Admit returns the Allocation Schedule would produce for the base system +
// tk appended, where tk is a task base's shape places on a shared processor
// and base is the current verified allocation ls mirrors. ls is mutated on
// success; on failure (the identical *FailureError Schedule would return) it
// is unchanged. base is not mutated: unchanged fields are shared.
func (ls *LowState) Admit(base *Allocation, tk *task.DAGTask) (*Allocation, error) {
	if err := ls.fits(base); err != nil {
		return nil, err
	}
	bi := ls.bankOf(tk)
	if bi < 0 {
		return nil, fmt.Errorf("fedcons: task %q has no processor type of the platform's %d", tk.Name, len(ls.banks))
	}
	b := &ls.banks[bi]
	newIdx := systemSize(base) // tk's input index
	if err := b.st.Admit(tk.AsSporadic()); err != nil {
		return nil, ls.lift(err, b, b.pos, base.Servers, base.LowIndices, newIdx)
	}
	if ls.typed {
		b.pos = append(b.pos, len(base.LowIndices))
	}
	li := make([]int, len(base.LowIndices)+1)
	copy(li, base.LowIndices)
	li[len(li)-1] = newIdx
	return &Allocation{
		M:           base.M,
		High:        base.High,
		SharedProcs: base.SharedProcs,
		LowIndices:  li,
		Low:         ls.result(),
		Policy:      base.Policy,
		Servers:     base.Servers,
		MTypes:      base.MTypes,
	}, nil
}

// Remove returns the Allocation Schedule would produce after deleting the
// low-density task at input index sysIdx from the base system (the remaining
// tasks keep their relative order, so indices above sysIdx shift down by
// one). Removal can fail — deadline-ordered bin packing is not monotone under
// removal — and then the returned error is the identical *FailureError
// Schedule would produce for the shrunken system, with ls unchanged.
func (ls *LowState) Remove(base *Allocation, sysIdx int) (*Allocation, error) {
	if err := ls.fits(base); err != nil {
		return nil, err
	}
	pos := -1
	for i, li := range base.LowIndices {
		if li == sysIdx {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("fedcons: input index %d is not a low-density task of the base allocation", sysIdx)
	}
	// The shrunken system's low indices: drop position pos, shift the rest.
	// Schedule builds these slices by append, so an empty set is nil — keep
	// that encoding for byte-identical results.
	var li []int
	for i, v := range base.LowIndices {
		if i == pos {
			continue
		}
		if v > sysIdx {
			v--
		}
		li = append(li, v)
	}
	var high []HighAssignment
	if len(base.High) > 0 {
		high = make([]HighAssignment, len(base.High))
		copy(high, base.High)
		for i := range high {
			if high[i].TaskIndex > sysIdx {
				high[i].TaskIndex--
			}
		}
	}
	servers := base.Servers
	if len(servers) > 0 {
		servers = make([]ServerSpec, len(base.Servers))
		copy(servers, base.Servers)
		for j := range servers {
			if servers[j].TaskIndex > sysIdx {
				servers[j].TaskIndex--
			}
		}
	}
	// The task's bank-local input index: the single bank's input is
	// servers-first (see PartitionSystem), so LowIndices position pos sits at
	// len(Servers)+pos; a typed bank lists its positions in pos.
	bi, local := 0, len(base.Servers)+pos
	var shrunk []int // the typed bank's positions after the removal
	if ls.typed {
		if bi, local = ls.bankAt(pos); bi < 0 {
			return nil, fmt.Errorf("fedcons: low position %d is in no bank of the partition state", pos)
		}
		shrunk = dropPos(ls.banks[bi].pos, local, pos)
	}
	b := &ls.banks[bi]
	if err := b.st.Remove(local); err != nil {
		return nil, ls.lift(err, b, shrunk, servers, li, -1)
	}
	if ls.typed {
		for i := range ls.banks {
			if i == bi {
				ls.banks[i].pos = shrunk
				continue
			}
			for j, p := range ls.banks[i].pos {
				if p > pos {
					ls.banks[i].pos[j] = p - 1
				}
			}
		}
	}
	return &Allocation{
		M:           base.M,
		High:        high,
		SharedProcs: base.SharedProcs,
		LowIndices:  li,
		Low:         ls.result(),
		Policy:      base.Policy,
		Servers:     servers,
		MTypes:      base.MTypes,
	}, nil
}

// bankAt returns the typed bank holding LowIndices position pos and the
// position's bank-local index, or -1 when no bank holds it.
func (ls *LowState) bankAt(pos int) (int, int) {
	for bi, b := range ls.banks {
		for j, p := range b.pos {
			if p == pos {
				return bi, j
			}
		}
	}
	return -1, -1
}

// dropPos returns positions without its entry j (which holds pos), with every
// later LowIndices position shifted down one, as a fresh slice.
func dropPos(positions []int, j, pos int) []int {
	out := make([]int, 0, len(positions)-1)
	for i, p := range positions {
		if i == j {
			continue
		}
		if p > pos {
			p--
		}
		out = append(out, p)
	}
	return out
}

// result materializes the current Phase-2 assignment in the batch encoding:
// the single bank's result as is, or the typed banks' results stitched in
// type order with bank-local indices mapped to LowIndices positions, exactly
// as the typed policy's Phase 2 stitches its per-type partitions.
func (ls *LowState) result() *partition.Result {
	if !ls.typed {
		return ls.banks[0].st.Result()
	}
	assignment := make([][]int, 0, ls.M())
	for _, b := range ls.banks {
		for _, procTasks := range b.st.Result().Assignment {
			var out []int
			for _, j := range procTasks {
				out = append(out, b.pos[j])
			}
			assignment = append(assignment, out)
		}
	}
	return &partition.Result{Assignment: assignment}
}

// lift wraps bank b's State failure into the *FailureError Schedule builds
// for a Phase-2 rejection of the mutated system. The failing bank-local
// index maps to a LowIndices position — through positions (the bank's
// positions in the mutated system) for a typed bank, past the servers for
// the single bank, where a server position maps to its owner's input index —
// and from there through lowIndices; the one index past the bank's input is
// the task being admitted, newIdx (-1 for a removal). Remaining is the
// bank's processor count, as the per-bank batch partition reports it.
func (ls *LowState) lift(err error, b *lowBank, positions []int, servers []ServerSpec, lowIndices []int, newIdx int) error {
	fe := &FailureError{Phase: PhaseLowDensity, Remaining: b.st.M(), Err: err}
	var pf *partition.FailureError
	if errors.As(err, &pf) {
		k := pf.TaskIndex
		switch {
		case ls.typed && k < len(positions):
			fe.TaskIndex = lowIndices[positions[k]]
		case ls.typed:
			fe.TaskIndex = newIdx
		case k < len(servers):
			fe.TaskIndex = servers[k].TaskIndex
		case k-len(servers) == len(lowIndices) && newIdx >= 0:
			fe.TaskIndex = newIdx
		default:
			fe.TaskIndex = lowIndices[k-len(servers)]
		}
		fe.TaskName = pf.TaskName
	}
	return fe
}

// AdmitLow is LowState.Admit on a single-bank state over the flat partition
// state st of a strict or split allocation (see LowState).
func AdmitLow(base *Allocation, st *partition.State, tk *task.DAGTask) (*Allocation, error) {
	return (&LowState{banks: []lowBank{{st: st}}}).Admit(base, tk)
}

// RemoveLow is LowState.Remove on a single-bank state over the flat
// partition state st of a strict or split allocation (see LowState).
func RemoveLow(base *Allocation, st *partition.State, sysIdx int) (*Allocation, error) {
	return (&LowState{banks: []lowBank{{st: st}}}).Remove(base, sysIdx)
}

package core

import (
	"errors"
	"fmt"

	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// This file is the incremental FEDCONS entry point: the warm-path composition
// of the (already memoized) Phase-1 outcome with an incremental Phase-2
// partition.State. A single low-density admission or removal leaves every
// Phase-1 decision untouched — high-density assignments, processor numbering
// and the shared-processor set are all functions of the high-density tasks
// only — so the new allocation is the old one with the low-density fields
// replaced by the State's replayed partition. The results are byte-identical
// to a from-scratch Schedule on the mutated system (pinned by the
// differential harnesses in internal/partition and internal/service); traced
// analyses never come here, so -trace/-explain output is produced by exactly
// the same batch code as before.

// AdmitLow returns the Allocation Schedule would produce for the system
// base system + tk appended, where tk is low-density and base is the current
// verified allocation whose Phase-2 partition st mirrors. st is mutated on
// success; on failure (the identical *FailureError Schedule would return) it
// is unchanged. base is not mutated: unchanged fields are shared.
func AdmitLow(base *Allocation, st *partition.State, tk *task.DAGTask) (*Allocation, error) {
	newIdx := systemSize(base) // tk's input index
	if err := st.Admit(tk.AsSporadic()); err != nil {
		return nil, liftPartitionError(err, base.Servers, base.LowIndices, newIdx, len(base.SharedProcs))
	}
	li := make([]int, len(base.LowIndices)+1)
	copy(li, base.LowIndices)
	li[len(li)-1] = newIdx
	return &Allocation{
		M:           base.M,
		High:        base.High,
		SharedProcs: base.SharedProcs,
		LowIndices:  li,
		Low:         st.Result(),
		Policy:      base.Policy,
		Servers:     base.Servers,
		MTypes:      base.MTypes,
	}, nil
}

// RemoveLow returns the Allocation Schedule would produce after deleting the
// low-density task at input index sysIdx from the base system (the remaining
// tasks keep their relative order, so indices above sysIdx shift down by
// one). Removal can fail — deadline-ordered bin packing is not monotone under
// removal — and then the returned error is the identical *FailureError
// Schedule would produce for the shrunken system, with st unchanged.
func RemoveLow(base *Allocation, st *partition.State, sysIdx int) (*Allocation, error) {
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
	// The partitionable input is servers-first (see PartitionSystem), so the
	// low task at LowIndices position pos sits at combined input index
	// len(Servers)+pos.
	if err := st.Remove(len(base.Servers) + pos); err != nil {
		return nil, liftPartitionError(err, base.Servers, li, -1, len(base.SharedProcs))
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
	return &Allocation{
		M:           base.M,
		High:        high,
		SharedProcs: base.SharedProcs,
		LowIndices:  li,
		Low:         st.Result(),
		Policy:      base.Policy,
		Servers:     servers,
		MTypes:      base.MTypes,
	}, nil
}

// liftPartitionError wraps a State failure into the *FailureError Schedule
// builds for a Phase-2 rejection, mapping the partition's combined-input
// task index (servers first, then low tasks) through the mutated system's
// indices: a server position maps to its owner's input index, a low position
// through lowIndices. newIdx is the input index of a task being admitted
// (one past the combined input), or -1 for a removal.
func liftPartitionError(err error, servers []ServerSpec, lowIndices []int, newIdx, remaining int) error {
	fe := &FailureError{Phase: PhaseLowDensity, Remaining: remaining, Err: err}
	var pf *partition.FailureError
	if errors.As(err, &pf) {
		s := len(servers)
		switch {
		case pf.TaskIndex < s:
			fe.TaskIndex = servers[pf.TaskIndex].TaskIndex
		case pf.TaskIndex-s == len(lowIndices) && newIdx >= 0:
			fe.TaskIndex = newIdx
		default:
			fe.TaskIndex = lowIndices[pf.TaskIndex-s]
		}
		fe.TaskName = pf.TaskName
	}
	return fe
}

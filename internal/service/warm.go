package service

import (
	"fedsched/internal/core"
	"fedsched/internal/task"
)

// This file decides when the shard's warm admission path applies and keeps
// its state in step: untraced single mutations of a task the installed shape
// places on a shared processor are analysed by the live core.LowState's
// Admit / Remove instead of the full analysis (commit's warm step); the
// audit, WAL append, install and verdict that follow are the full path's
// own.
//
// The state holds one incremental partition.State per bank of shared
// processors, so every shape rides the same code:
//
//   - strict FEDCONS and the split shapes (semi, reservation) have one bank
//     over all shared processors, partitioning the servers and the
//     low-density tasks;
//   - the typed shape has one bank per processor type, over that type's
//     leftover processors: a uniformly type-t low-density task is admitted
//     to, or removed from, bank t alone, exactly as the typed policy's
//     per-type Phase 2 would re-partition it.
//
// Everything that could diverge from a from-scratch analysis falls back to
// it:
//
//   - traced requests (rec != nil): the decision trace must come from the
//     batch code that produces -trace/-explain bytes;
//   - tasks that need dedicated service under the installed shape
//     (core.NeedsDedicated: high-density tasks, and mixed-type tasks under
//     the typed shape): they change Phase-1 sizing, processor numbering and
//     the shared-processor set, so Phase 2 must re-partition anyway;
//   - a task of a processor type the platform does not declare (the full
//     analysis owns that error);
//   - the first admission into an empty shard (no base allocation to extend)
//     and batch admissions (one WAL record, atomic semantics);
//   - a strict-shape base under a split policy (the split attempt had failed
//     and strict FEDCONS was installed instead), and a warm Phase-2 failure
//     under a split shape: that policy retries strict FEDCONS, which may
//     still accept. Strict and typed warm failures are final;
//   - a missing or inconsistent state (never expected; the state is
//     re-derived from the installed allocation after every full-path install
//     and on recovery);
//   - Config.FullRepartition, the oracle configuration the warm-path
//     differential tests compare bytes against.

// warmFor reports whether the warm path may serve a mutation of tk.
func (s *Shard) warmFor(tk *task.DAGTask) bool {
	// The warm path extends the installed shape in place, so it only applies
	// when that shape is the one the configured policy would produce.
	return !s.cfg.FullRepartition && s.alloc != nil && s.alloc.Policy == s.cfg.Options.Policy &&
		s.pstateConsistent() && !core.NeedsDedicated(s.alloc.Policy, tk) && s.pstate.Covers(tk)
}

// pstateConsistent reports whether the live state plausibly mirrors the
// installed allocation: its banks together partition every server and
// low-density task over every shared processor. The two are maintained in
// lockstep, so a mismatch means a bug — the warm path declines and the full
// analysis (which ends in syncPartitionState) repairs it, at
// full-repartition cost but with correct output.
func (s *Shard) pstateConsistent() bool {
	return s.pstate != nil &&
		s.pstate.Len() == len(s.alloc.Servers)+len(s.alloc.LowIndices) &&
		s.pstate.M() == len(s.alloc.SharedProcs)
}

// syncPartitionState re-derives pstate from the installed system+allocation.
// Called after every full-path install, after recovery, and by commit to
// roll back a warm step whose result failed the audit or the WAL append. A rebuild failure
// (never expected: the allocation passed core.Verify) only disables the warm
// path.
func (s *Shard) syncPartitionState() {
	if s.alloc == nil {
		s.pstate = nil
		return
	}
	st, err := core.NewLowState(s.sys, s.alloc, s.cfg.Options.Partition)
	if err != nil {
		s.pstate = nil
		return
	}
	s.pstate = st
}

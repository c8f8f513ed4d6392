package service

import (
	"fmt"
	"net/http"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// This file is the shard's warm admission path: untraced single mutations of
// a task the installed shape places on a shared processor are served from the
// live core.LowState via its Admit / Remove instead of re-running the full
// analysis, then audited with core.VerifyDelta before the identical
// persist/install/verdict sequence as the full path.
//
// The state holds one incremental partition.State per bank of shared
// processors, so every shape rides the same code:
//
//   - strict FEDCONS and the split shapes (semi, reservation) have one bank
//     over all shared processors, partitioning the servers and the
//     low-density tasks;
//   - the typed shape has one bank per processor type, over that type's
//     leftover processors: a uniformly type-t low-density task is admitted
//     to, or removed from, bank t alone, exactly as typedfed's per-type
//     Phase 2 would re-partition it.
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
//   - Config.FullRepartition, the operator escape hatch — and the oracle
//     configuration the warm-path differential tests compare bytes against.

// warmFor reports whether the warm path may serve a mutation of tk.
func (s *Shard) warmFor(tk *task.DAGTask) bool {
	// The warm path extends the installed shape in place, so it only applies
	// when that shape is the one the configured policy would produce.
	return !s.cfg.FullRepartition && s.alloc != nil && s.alloc.Policy == s.cfg.Options.Policy &&
		s.pstateConsistent() && !core.NeedsDedicated(s.alloc.Policy, tk) && s.pstate.Covers(tk)
}

// fastAdmit serves one shared-processor admission from the live state. ok is
// false when the warm path does not apply and the caller must run the full
// analysis.
func (s *Shard) fastAdmit(tk *task.DAGTask, rec *obs.Recorder, meta mutMeta) (opResult, bool) {
	if rec != nil || !s.warmFor(tk) {
		return opResult{}, false
	}
	trial := append(s.sys.Clone(), tk)
	alloc, err := s.pstate.Admit(s.alloc, tk)
	if err != nil {
		if core.RetriesStrict(s.alloc.Policy) {
			return opResult{}, false
		}
		s.met.rejects.Add(1)
		// A warm-path rejection carries no span tree (the incremental test is
		// not the traced code path), but the decision itself is still
		// retained: metadata-only entries are how a rejection that never
		// asked for ?trace=1 stays explainable at all.
		res := verdictResult(http.StatusConflict, NewVerdict(trial, s.cfg.M, nil, err))
		return s.noteFlight(res, meta, "admit", tk.Name, false, nil), true
	}
	if err := core.VerifyDelta(trial, s.cfg.M, alloc, s.sys, s.alloc); err != nil {
		// The state already committed the admission: re-derive it from the
		// (unchanged) installed allocation before refusing.
		s.syncPartitionState()
		return errResult(http.StatusInternalServerError, "allocation failed verification: "+err.Error()), true
	}
	hash := s.cache.hashOf(tk).String()
	if res := s.persistAdmit([]*task.DAGTask{tk}, []string{hash}, meta); res != nil {
		s.syncPartitionState()
		return *res, true
	}
	s.install(trial, alloc, append(append([]string(nil), s.sysHashes...), hash))
	s.met.admits.Add(1)
	s.maybeSnapshot()
	return verdictResult(http.StatusOK, NewVerdict(trial, s.cfg.M, alloc, nil)), true
}

// fastRemove serves one shared-processor removal from the live state. idx is
// the task's position in s.sys; trial/hashes are the spliced system and hash
// list the caller already built (shared with the full path).
func (s *Shard) fastRemove(name string, idx int, trial task.System, hashes []string, meta mutMeta) (opResult, bool) {
	if !s.warmFor(s.sys[idx]) {
		return opResult{}, false
	}
	alloc, err := s.pstate.Remove(s.alloc, idx)
	if err != nil {
		if core.RetriesStrict(s.alloc.Policy) {
			return opResult{}, false
		}
		// Same non-monotonicity surface as the full path: keep the verified
		// old state installed and report the identical failure.
		s.met.errors.Add(1)
		res := errResult(http.StatusConflict, fmt.Sprintf("system unschedulable after removing %q: %v", name, err))
		return s.noteFlight(res, meta, "remove", name, false, nil), true
	}
	if err := core.VerifyDelta(trial, s.cfg.M, alloc, s.sys, s.alloc); err != nil {
		s.syncPartitionState()
		return errResult(http.StatusInternalServerError, "allocation failed verification: "+err.Error()), true
	}
	if res := s.persistRemove(name, meta); res != nil {
		s.syncPartitionState()
		return *res, true
	}
	s.install(trial, alloc, hashes)
	s.met.removes.Add(1)
	s.maybeSnapshot()
	return verdictResult(http.StatusOK, NewVerdict(trial, s.cfg.M, alloc, nil)), true
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
// Called after every full-path install, after recovery, and to roll back a
// warm-path state mutation that could not be installed. A rebuild failure
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

package core

import (
	"fmt"
	"sort"

	"fedsched/internal/dag"
	"fedsched/internal/task"
)

// This file is the pluggable scheduling-policy layer. The paper's FEDCONS
// rounds every high-density grant up to whole processors; semi-federated
// scheduling (Jiang et al., arXiv 1705.03245) and reservation-based federated
// scheduling (Ueter et al., arXiv 1712.05040) reclaim the rounding loss by
// granting a high-density task ⌊x⌋ dedicated processors plus fractional
// reservation servers that the ordinary Phase-2 partitioner places alongside
// the low-density tasks. Both are implemented outside this package
// (internal/semifed, internal/reservation) behind the Policy interface below;
// this file owns what must stay policy-independent:
//
//   - the policy registry Schedule and the service layer dispatch through;
//   - the split allocation shape (Allocation.Policy + Allocation.Servers) and
//     the construction of server tasks for the shared Phase-2 partitioner;
//   - the two-phase loop itself (TwoPhase in fedcons.go): a split policy
//     supplies only its per-task sizing step.
//
// The split shapes' entries in the auditor's shape table (verify.go) let
// Verify audit their output without importing the policy packages.
//
// Soundness of the split shape rests on one lemma (Ueter et al., Lemma 2 /
// Theorem 1 specialized to equal-deadline reservations): if a DAG task τ_i
// with volume vol_i, critical-path length len_i and scheduling window
// w_i = min(D_i, T_i) is served by r_i reservation units — d_i of them whole
// dedicated processors (budget w_i) and the rest servers with budgets
// E_j ≤ w_i released at each dag-job arrival with deadline w_i — then
// work-conserving list scheduling of the dag-job inside the reservations
// meets the deadline whenever
//
//	d_i·w_i + Σ_j E_j  ≥  vol_i + (r_i − 1)·len_i.
//
// Verify re-checks exactly this inequality per high-density task, plus
// EDF-feasibility of the servers' placement on the shared processors, so a
// mutated budget or dropped server never verifies.

// Policy names. PolicyFedcons is reserved: Options.Policy == "" (or
// "fedcons") selects the paper's strict algorithm directly, never through the
// registry, so the default path cannot be perturbed by registration.
const (
	PolicyFedcons     = "fedcons"
	PolicySemi        = "semi"
	PolicyReservation = "reservation"
	PolicyTyped       = "typed"
)

// ScheduleFunc is the signature of a strict-FEDCONS scheduler. Policies
// receive one as their fallback; ScheduleWith builds it from the caller's
// Sizer, so a memoizing caller (the service layer) keeps its memo there.
type ScheduleFunc func(sys task.System, m int, opt Options) (*Allocation, error)

// Policy is one pluggable admission strategy. Schedule must be a pure
// function of its arguments: same inputs, byte-identical Allocation. The
// fallback is the strict FEDCONS scheduler of the calling layer; policies
// that try a split-shape allocation first and fall back on failure guarantee
// pointwise acceptance dominance over the paper's algorithm. Implementations
// must clear opt.Policy before invoking the fallback.
type Policy interface {
	// Name is the registry key (the -policy flag vocabulary).
	Name() string
	// Schedule runs the policy's admission test.
	Schedule(sys task.System, m int, opt Options, fallback ScheduleFunc) (*Allocation, error)
}

// policies is the registry. Registration happens in package init functions
// (each policy package registers itself); it is not safe for concurrent use.
var policies = make(map[string]Policy)

// RegisterPolicy adds a policy to the registry. It panics on an empty or
// duplicate name, or on the reserved name "fedcons" — programmer errors
// caught at init time.
func RegisterPolicy(p Policy) {
	name := p.Name()
	if name == "" {
		panic("core: RegisterPolicy with empty name")
	}
	if name == PolicyFedcons {
		panic("core: RegisterPolicy cannot override the built-in fedcons policy")
	}
	if _, dup := policies[name]; dup {
		panic(fmt.Sprintf("core: RegisterPolicy called twice for %q", name))
	}
	policies[name] = p
}

// LookupPolicy returns the named registered policy.
func LookupPolicy(name string) (Policy, error) {
	p, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("fedcons: unknown policy %q (have %s)", name, policyVocabulary())
	}
	return p, nil
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// policyVocabulary renders the accepted -policy values for error messages.
func policyVocabulary() string {
	s := PolicyFedcons
	for _, name := range PolicyNames() {
		s += ", " + name
	}
	return s
}

// NormalizePolicy canonicalizes a policy name: "" and "fedcons" normalize to
// "" (the strict default); any registered name passes through; anything else
// is an error.
func NormalizePolicy(name string) (string, error) {
	if name == "" || name == PolicyFedcons {
		return "", nil
	}
	if _, err := LookupPolicy(name); err != nil {
		return "", err
	}
	return name, nil
}

// Window exposes the dag-job scheduling window min(D_i, T_i) to policy
// implementations and the service layer.
func Window(tk *task.DAGTask) Time { return window(tk) }

// ValidateInput is Schedule's input check, exported so a policy rejects
// malformed input with the same errors as the strict path.
func ValidateInput(sys task.System, m int, opt Options) error {
	if err := sys.Validate(); err != nil {
		return err
	}
	if m < 1 {
		return fmt.Errorf("fedcons: m must be ≥ 1, got %d", m)
	}
	if opt.Par < 0 {
		return fmt.Errorf("fedcons: par must be ≥ 0, got %d", opt.Par)
	}
	return nil
}

// ServerSpec is one reservation server of a split-shape allocation: a budget
// of E time units granted to the high-density task at TaskIndex within every
// scheduling window. The server is placed by the Phase-2 partitioner as an
// ordinary sporadic task (C = Budget, D = min(D_i, T_i), T = T_i).
type ServerSpec struct {
	// TaskIndex is the input index of the high-density task the server
	// belongs to.
	TaskIndex int
	// Budget is the server's execution budget per window, 1 ≤ Budget ≤
	// min(D_i, T_i).
	Budget Time
}

// ServerNames returns display names for a's servers, index aligned: the
// owner's name suffixed with a per-owner sequence number ("τ3#srv0"). The
// names are deterministic functions of the allocation, so the CLI, the
// daemon verdicts and the partitionable system built by PartitionSystem all
// agree.
func ServerNames(sys task.System, a *Allocation) []string {
	if len(a.Servers) == 0 {
		return nil
	}
	seq := make(map[int]int, len(a.Servers))
	names := make([]string, len(a.Servers))
	for j, sv := range a.Servers {
		owner := "?"
		if sv.TaskIndex >= 0 && sv.TaskIndex < len(sys) {
			owner = sys[sv.TaskIndex].Name
		}
		names[j] = fmt.Sprintf("%s#srv%d", owner, seq[sv.TaskIndex])
		seq[sv.TaskIndex]++
	}
	return names
}

// PartitionSystem builds the system the Phase-2 partitioner sees for
// allocation a: the reservation servers first (one single-vertex DAG task
// per ServerSpec, in Servers order), then the low-density tasks in input
// order. For a strict-shape allocation (no servers) this is exactly the
// low-density subsystem, so partition.Partition, partition.Verify and
// partition.Rebuild work unchanged for every shape; positions < len(Servers)
// in a.Low refer to servers, later positions to LowIndices[pos−len(Servers)].
func PartitionSystem(sys task.System, a *Allocation) (task.System, error) {
	out := make(task.System, 0, len(a.Servers)+len(a.LowIndices))
	names := ServerNames(sys, a)
	for j, sv := range a.Servers {
		if sv.TaskIndex < 0 || sv.TaskIndex >= len(sys) {
			return nil, fmt.Errorf("fedcons: server %d owner index %d out of range", j, sv.TaskIndex)
		}
		owner := sys[sv.TaskIndex]
		if sv.Budget < 1 {
			return nil, fmt.Errorf("fedcons: server %d budget must be ≥ 1, got %d", j, sv.Budget)
		}
		srv, err := task.New(names[j], dag.Chain(sv.Budget), window(owner), owner.T)
		if err != nil {
			return nil, fmt.Errorf("fedcons: server %d: %w", j, err)
		}
		out = append(out, srv)
	}
	for _, i := range a.LowIndices {
		if i < 0 || i >= len(sys) {
			return nil, fmt.Errorf("fedcons: low index %d out of range", i)
		}
		out = append(out, sys[i])
	}
	return out, nil
}

// systemSize returns the number of input tasks a covers: the low-density
// tasks plus the distinct high-density tasks appearing in High and/or
// Servers. For the strict shape this is len(High) + len(LowIndices).
func systemSize(a *Allocation) int {
	n := len(a.LowIndices) + len(a.High)
	if len(a.Servers) == 0 {
		return n
	}
	seen := make(map[int]bool, len(a.High)+len(a.Servers))
	for _, h := range a.High {
		seen[h.TaskIndex] = true
	}
	for _, sv := range a.Servers {
		if !seen[sv.TaskIndex] {
			seen[sv.TaskIndex] = true
			n++
		}
	}
	return n
}

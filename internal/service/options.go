package service

import (
	"fmt"
	"strconv"
	"strings"

	"fedsched/internal/core"
	"fedsched/internal/listsched"
	"fedsched/internal/partition"
)

// ParseOptions maps the flag vocabulary shared by cmd/fedsched and
// cmd/fedschedd onto core.Options, so the batch CLI and the daemon cannot
// drift apart in what variants they accept.
func ParseOptions(minprocs, prio, heuristic, admission string) (core.Options, error) {
	var opt core.Options
	switch minprocs {
	case "ls-scan":
		opt.Minprocs = core.LSScan
	case "analytic":
		opt.Minprocs = core.Analytic
	default:
		return opt, fmt.Errorf("unknown -minprocs %q", minprocs)
	}
	switch prio {
	case "insertion":
		opt.Priority = nil
	case "longest-path":
		opt.Priority = listsched.LongestPathFirst
	case "largest-wcet":
		opt.Priority = listsched.LargestWCETFirst
	default:
		return opt, fmt.Errorf("unknown -priority %q", prio)
	}
	switch heuristic {
	case "first-fit":
		opt.Partition.Heuristic = partition.FirstFit
	case "best-fit":
		opt.Partition.Heuristic = partition.BestFit
	case "worst-fit":
		opt.Partition.Heuristic = partition.WorstFit
	default:
		return opt, fmt.Errorf("unknown -partition %q", heuristic)
	}
	switch admission {
	case "dbf-approx":
		opt.Partition.Test = partition.ApproxDBF
	case "edf-exact":
		opt.Partition.Test = partition.ExactEDF
	case "dm-rta":
		opt.Partition.Test = partition.DMRta
	default:
		return opt, fmt.Errorf("unknown -admission %q", admission)
	}
	return opt, nil
}

// ParsePolicy maps the -policy flag vocabulary shared by the cmds onto the
// normalized core.Options.Policy value: "" for the strict default, the policy
// name otherwise. The vocabulary is the core policy registry, which this
// package's imports populate with every policy.
func ParsePolicy(name string) (string, error) {
	p, err := core.NormalizePolicy(name)
	if err != nil {
		return "", fmt.Errorf("unknown -policy %q (want %s)", name, strings.Join(append([]string{core.PolicyFedcons}, core.PolicyNames()...), ", "))
	}
	return p, nil
}

// ParseMTypes maps the -m-types flag vocabulary ("a:4,b:2") onto the
// per-type processor-budget vector of core.Options.MTypes: letters name type
// indices (a = 0, b = 1, …), each may appear at most once, and unnamed types
// below the largest named one default to 0 processors. The budgets' sum is
// validated against the platform size by the caller (the cmds know m).
func ParseMTypes(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	budgets := make(map[int]int)
	maxIdx := -1
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-m-types entry %q: want <type>:<count>", part)
		}
		if len(name) != 1 || name[0] < 'a' || name[0] > 'z' {
			return nil, fmt.Errorf("-m-types entry %q: type must be a letter a-z", part)
		}
		idx := int(name[0] - 'a')
		if _, dup := budgets[idx]; dup {
			return nil, fmt.Errorf("-m-types names type %q twice", name)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-m-types entry %q: count must be a non-negative integer", part)
		}
		budgets[idx] = n
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	out := make([]int, maxIdx+1)
	for idx, n := range budgets {
		out[idx] = n
	}
	return out, nil
}

// policyLabel renders a normalized policy value for operator-facing messages:
// the empty strict default reads back as "fedcons".
func policyLabel(p string) string {
	if p == "" {
		return core.PolicyFedcons
	}
	return p
}

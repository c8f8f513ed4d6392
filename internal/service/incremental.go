package service

import (
	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// Schedule runs the configured admission policy exactly as core.Schedule
// does, with the strict shape's Phase-1 MINPROCS results drawn from the memo
// cache (sizer) — also in a policy's strict fallback. The memo only removes
// redundant list-scheduling work: allocations and *core.FailureErrors are
// identical, which the differential tests in incremental_test.go pin.
func (c *AnalysisCache) Schedule(sys task.System, m int, opt core.Options) (*core.Allocation, error) {
	return core.ScheduleWith(sys, m, opt, c.sizer)
}

// sizer is the strict shape's Phase-1 step over the memo. It replays μ*
// when μ* ≤ m_r, which reproduces the bounded scan: the scan visits
// μ = ⌈δ⌉, ⌈δ⌉+1, … in an order independent of m_r, so the bounded result
// is μ* exactly when μ* ≤ m_r and FAILURE otherwise.
//
// With opt.Par > 1 the memo lookups and misses' analyses run first on the
// hash-grouped prewarmPhase1 pool, in place of core's LS prefetch. Traced
// task spans match core.Schedule's apart from a "cache" attr ("hit" or
// "miss"); a hit replays μ* without LS, so its span has no "mu" candidate
// children, and neither has a miss analyzed in the pool, which ran off-trace.
func (c *AnalysisCache) sizer(sys task.System, opt core.Options) core.SizeFunc {
	var pre map[*task.DAGTask]prewarmed
	if opt.Par > 1 {
		pre = c.prewarmPhase1(sys, opt, opt.Par)
	}
	return func(_ int, tk *task.DAGTask, mr int, sp *obs.Span) (core.Grant, bool) {
		p, warmed := pre[tk]
		if !warmed {
			p.res, p.hit = c.minprocsTraced(tk, opt, mr, sp)
		}
		if sp != nil {
			if p.hit {
				sp.Str("cache", "hit")
			} else {
				sp.Str("cache", "miss")
			}
		}
		if !p.res.feasible || p.res.mu > mr {
			return core.Grant{}, false
		}
		sp.Int("mu", int64(p.res.mu))
		return core.Grant{Procs: p.res.mu, Template: p.res.tmpl}, true
	}
}

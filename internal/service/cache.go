// Package service implements the fedschedd online admission-control daemon:
// a long-running HTTP server that holds a live constrained-deadline DAG task
// system and answers trial-admission requests with the full two-phase
// FEDCONS test. No constant speedup or capacity-augmentation bound exists
// for constrained-deadline federated scheduling (paper Example 2), so an
// online admission controller cannot substitute a cheap utilization
// threshold — it must run the real analysis on every request. The package
// therefore makes the real analysis cheap to re-run: Phase-1 MINPROCS
// results are memoized in a content-addressed cache keyed by core.TaskHash,
// so admitting or removing one task re-runs list scheduling only for DAGs
// the server has never analyzed before, while the cheap Phase-2 partition is
// always recomputed and every accepted state is audited (core.VerifyDelta
// against the installed state, which skips re-validating the templates the
// memo hands back unchanged) before it is installed.
package service

import (
	"math"
	"sync"

	"fedsched/internal/core"
	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// phase1Result is the platform-independent outcome of MINPROCS for one task:
// the minimum processor count μ* over an unbounded platform and its witness
// template, or infeasibility at any processor count. Bounding by the
// processors actually remaining happens at lookup time (μ* ≤ m_r), which is
// exactly equivalent to the paper's bounded scan because the scan order does
// not depend on m_r.
type phase1Result struct {
	feasible bool
	mu       int
	tmpl     *listsched.Schedule
}

// cacheEntry pairs a memoized result with the labeled task content it was
// computed from. Lookups compare content with task.SameAnalysisInput, so a
// hash collision (SHA or a residual canonicalization tie between isomorphic
// relabelings) degrades to a chained miss, never to a wrong answer.
type cacheEntry struct {
	tk  *task.DAGTask
	res phase1Result
}

// AnalysisCache is the content-addressed memo of Phase-1 analyses. It is
// safe for concurrent use; in the daemon all writes come from the single
// admission loop while reads may come from anywhere.
type AnalysisCache struct {
	mu      sync.Mutex
	entries map[core.Hash][]cacheEntry
	// hashes memoizes core.TaskHash per task object: the daemon re-analyzes
	// the same installed *DAGTask pointers on every admission, and canonical
	// hashing (WL refinement) is the dominant cost of a fully warm pass.
	// DAGTask contents are immutable by repo convention, so identity keying
	// is sound.
	hashes map[*task.DAGTask]core.Hash
	hits   int64
	misses int64
}

// NewAnalysisCache returns an empty cache.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{
		entries: make(map[core.Hash][]cacheEntry),
		hashes:  make(map[*task.DAGTask]core.Hash),
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *AnalysisCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of memoized analyses.
func (c *AnalysisCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, chain := range c.entries {
		n += len(chain)
	}
	return n
}

// lookup returns the memoized result for tk, if any.
func (c *AnalysisCache) lookup(h core.Hash, tk *task.DAGTask) (phase1Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[h] {
		if task.SameAnalysisInput(e.tk, tk) {
			c.hits++
			return e.res, true
		}
	}
	c.misses++
	return phase1Result{}, false
}

// store memoizes a freshly computed result.
func (c *AnalysisCache) store(h core.Hash, tk *task.DAGTask, res phase1Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[h] = append(c.entries[h], cacheEntry{tk: tk, res: res})
}

// hashOf returns core.TaskHash(tk), memoized by task identity.
func (c *AnalysisCache) hashOf(tk *task.DAGTask) core.Hash {
	c.mu.Lock()
	h, ok := c.hashes[tk]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = core.TaskHash(tk) // outside the lock: hashing large DAGs is the slow part
	c.mu.Lock()
	c.hashes[tk] = h
	c.mu.Unlock()
	return h
}

// prewarmed is one task's Phase-1 outcome as computed by prewarmPhase1,
// together with whether the memo already held it.
type prewarmed struct {
	res phase1Result
	hit bool
}

// prewarmPhase1 runs the Phase-1 memo lookups — and, on misses, the MINPROCS
// analyses — of sys's high-density tasks on a bounded worker pool, so a cold
// batch admission pays for its list-scheduling scans concurrently instead of
// one task at a time. Canonical hashing (the dominant cost of a warm pass) is
// parallelized too. Tasks are grouped by content hash and each group is
// processed in order by one worker, so duplicate-content tasks produce the
// same one-miss-then-hits accounting as the sequential path; only the
// interleaving of counter increments differs, never the totals. Returns nil
// (caller falls back to the sequential per-task path) when fewer than two
// tasks are high-density or par < 2.
func (c *AnalysisCache) prewarmPhase1(sys task.System, opt core.Options, par int) map[*task.DAGTask]prewarmed {
	var high []*task.DAGTask
	for _, tk := range sys {
		if tk.HighDensity() {
			high = append(high, tk)
		}
	}
	if len(high) < 2 || par < 2 {
		return nil
	}
	if par > len(high) {
		par = len(high)
	}

	// Pass 1: warm the per-object hash memo in parallel.
	runPool(par, len(high), func(i int) { c.hashOf(high[i]) })

	// Pass 2: group by content hash (first-seen order) and analyze each
	// group sequentially on its own worker.
	groups := make(map[core.Hash][]*task.DAGTask, len(high))
	var order []core.Hash
	for _, tk := range high {
		h := c.hashOf(tk)
		if _, seen := groups[h]; !seen {
			order = append(order, h)
		}
		groups[h] = append(groups[h], tk)
	}
	var mu sync.Mutex
	out := make(map[*task.DAGTask]prewarmed, len(high))
	runPool(par, len(order), func(i int) {
		for _, tk := range groups[order[i]] {
			res, hit := c.minprocsTraced(tk, opt, 0, nil)
			mu.Lock()
			out[tk] = prewarmed{res: res, hit: hit}
			mu.Unlock()
		}
	})
	return out
}

// runPool executes fn(0..n-1) on a pool of `workers` goroutines.
func runPool(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// minprocsTraced returns the platform-independent MINPROCS outcome for tk
// under opt, computing and memoizing it on first sight, and reports whether
// the memo already held it. The analysis runs with an unbounded processor
// budget: the LS scan stops by itself where success is certain (core's
// scan cap), and the analytic rule's closed form ignores the budget, so the
// result is the true unbounded μ*.
//
// A traced miss (sp non-nil) first runs core's analysis bounded by the mr
// processors remaining, recording exactly the span core.Schedule records;
// its success is μ*, and only a failure needs the untraced unbounded
// analysis. Untraced calls ignore mr.
func (c *AnalysisCache) minprocsTraced(tk *task.DAGTask, opt core.Options, mr int, sp *obs.Span) (phase1Result, bool) {
	h := c.hashOf(tk)
	if res, ok := c.lookup(h, tk); ok {
		return res, true
	}
	minprocs := core.MinprocsTrace
	if opt.Minprocs == core.Analytic {
		minprocs = core.MinprocsAnalyticTrace
	}
	var res phase1Result
	if sp != nil {
		res.mu, res.tmpl, res.feasible = minprocs(tk, mr, opt.Priority, sp)
	}
	if !res.feasible {
		res.mu, res.tmpl, res.feasible = minprocs(tk, math.MaxInt, opt.Priority, nil)
	}
	c.store(h, tk, res)
	return res, false
}

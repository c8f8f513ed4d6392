package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// The warm-path differential harness: a Server with the default incremental
// Phase-2 state must be byte-identical — every response body, every
// allocation encoding, every rejection — to a twin Server running with
// Config.FullRepartition (the pre-PR-7 full re-analysis on every mutation),
// fed the identical request sequence.

// twinServers starts the incremental server with cfg and its
// full-repartition oracle.
func twinServers(t *testing.T, cfg Config) (inc, full *Server) {
	t.Helper()
	inc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inc.Close)
	cfg.FullRepartition = true
	full, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	return inc, full
}

// typedConfig is a two-type platform of m processors, mb of them type b,
// under the typed policy.
func typedConfig(m, mb int) Config {
	return Config{M: m, Options: core.Options{Policy: core.PolicyTyped, MTypes: []int{m - mb, mb}}}
}

// retype rebuilds tk (structure, WCETs, D and T unchanged) with vertex v
// pinned to processor type typeOf(v).
func retype(tk *task.DAGTask, typeOf func(v int) int) *task.DAGTask {
	g := tk.G
	b := dag.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.AddTypedVertex(g.Vertex(v).Name, g.WCET(v), typeOf(v))
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Successors(u) {
			b.AddEdge(u, v)
		}
	}
	return task.MustNew(tk.Name, b.MustBuild(), tk.D, tk.T)
}

// typedPool is genSystem's mixed-density pool on two processor types:
// each task is uniformly type a, uniformly type b, or mixed (alternate
// vertices type b, so every multi-vertex one needs dedicated processors of
// both types at any density). Low-density uniform tasks take the warm path;
// mixed-type and high-density ones take the full path.
func typedPool(t testing.TB, seed int64, tasks int, totalU float64) task.System {
	t.Helper()
	sys := genSystem(t, seed, tasks, totalU)
	r := rand.New(rand.NewSource(seed))
	for i, tk := range sys {
		switch r.Intn(7) {
		case 0, 1, 2: // uniformly type a, as generated
		case 3, 4, 5:
			sys[i] = retype(tk, func(int) int { return 1 })
		default:
			sys[i] = retype(tk, func(v int) int { return v % 2 })
		}
	}
	return sys
}

// typedLow is a single-vertex task of processor type ty.
func typedLow(name string, ty int, c, d, period task.Time) *task.DAGTask {
	b := dag.NewBuilder(1)
	b.AddTypedVertex("", c, ty)
	return task.MustNew(name, b.MustBuild(), d, period)
}

// mixedHigh is a mixed-type high-density task: two type-a and two type-b
// jobs of WCET 4 in a window of 5, granted two processors of each type.
func mixedHigh(name string) *task.DAGTask {
	b := dag.NewBuilder(4)
	for v := 0; v < 4; v++ {
		b.AddTypedVertex("", 4, v/2)
	}
	return task.MustNew(name, b.MustBuild(), 5, 6)
}

// mixedLow is a mixed-type low-density task: a type-a job then a type-b job
// in a window of 20. The typed policy grants it one processor of each type.
func mixedLow(name string) *task.DAGTask {
	return retype(task.MustNew(name, dag.Chain(1, 1), 20, 20), func(v int) int { return v })
}

// bothAgree runs op against both servers and requires identical status and
// identical (normalized) bytes; it returns the shared status.
func bothAgree(t *testing.T, inc, full *Server, label string, op func(svc *Server) (int, []byte)) int {
	t.Helper()
	s1, b1 := op(inc)
	s2, b2 := op(full)
	if s1 != s2 || !bytes.Equal(normalizeGolden(b1), normalizeGolden(b2)) {
		t.Fatalf("%s diverged:\nincremental: %d %s\nfull:        %d %s", label, s1, b1, s2, b2)
	}
	return s1
}

// requireAllocParity compares the exact /v1/allocation bytes of both servers.
func requireAllocParity(t *testing.T, inc, full *Server, label string) {
	t.Helper()
	_, b1 := allocationBytes(t, inc)
	_, b2 := allocationBytes(t, full)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: allocation bytes diverged:\n--- incremental ---\n%s--- full ---\n%s", label, b1, b2)
	}
}

// TestWarmPathByteIdenticalToFullRepartition drives 20 seeded mixed
// workloads — low/high admits, removals, rejections, an occasional atomic
// batch and traced request — through twin servers and requires byte parity
// on every response and on the installed allocation after every step. The
// typed arm repeats the walk on two-type platforms with typedPool, whose
// uniformly-typed low-density tasks ride the per-type banks; across its
// seeds warm rejections must occur in both banks. Its script adds a removal
// that fails and a platform with no type-b processor left over.
func TestWarmPathByteIdenticalToFullRepartition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			m := 6 + r.Intn(6)
			inc, full := twinServers(t, Config{M: m})
			// A pool twice as utilization-heavy as the platform: plenty of
			// accepted admissions and guaranteed rejections.
			pool := genSystem(t, seed+400, 18, float64(m)*1.2)
			mixedWalk(t, r, seed, inc, full, pool)
		})
	}
	t.Run("typed", func(t *testing.T) {
		var mu sync.Mutex
		var rejects [2]int // rejected uniformly-typed low-density admits per type
		for seed := int64(0); seed < 20; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				r := rand.New(rand.NewSource(seed + 1000))
				m := 6 + r.Intn(6)
				inc, full := twinServers(t, typedConfig(m, 2+r.Intn(m-3)))
				got := mixedWalk(t, r, seed, inc, full, typedPool(t, seed+400, 18, float64(m)*1.2))
				mu.Lock()
				rejects[0] += got[0]
				rejects[1] += got[1]
				mu.Unlock()
			})
		}
		t.Run("script", func(t *testing.T) {
			t.Parallel()
			typedScript(t)
		})
		t.Cleanup(func() {
			t.Logf("rejected low-density admits per type: %v", rejects)
			if rejects[0] == 0 || rejects[1] == 0 {
				t.Errorf("rejected low-density admits per type %v: want rejections in both banks", rejects)
			}
		})
	})
}

// mixedWalk is the body of TestWarmPathByteIdenticalToFullRepartition: 50
// steps of admits, removals, batches and traced admits drawn from pool. It
// returns how many admits of a uniformly-typed low-density task were
// rejected, per processor type.
func mixedWalk(t *testing.T, r *rand.Rand, seed int64, inc, full *Server, pool task.System) (rejects [2]int) {
	t.Helper()
	live := map[string]bool{}
	ctx := context.Background()
	for step := 0; step < 50; step++ {
		label := fmt.Sprintf("seed %d step %d", seed, step)
		switch {
		case step%17 == 11 && len(live) > 0: // traced admit (falls back)
			tk := pool[r.Intn(len(pool))]
			tid := fmt.Sprintf("%08x-%06d", seed, step)
			status := bothAgree(t, inc, full, label+" traced-admit", func(svc *Server) (int, []byte) {
				s, b := svc.ShardFor("").AdmitTrace(ctx, tk, tid, obs.New(obs.DefaultLimits))
				return s, b
			})
			if status == http.StatusOK {
				live[tk.Name] = true
			}
		case step%13 == 7: // atomic batch of two
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			status := bothAgree(t, inc, full, label+" batch", func(svc *Server) (int, []byte) {
				return svc.ShardFor("").AdmitBatch(ctx, []*task.DAGTask{a, b})
			})
			if status == http.StatusOK {
				live[a.Name], live[b.Name] = true, true
			}
		case len(live) > 0 && r.Float64() < 0.35: // removal
			var names []string
			for n := range live {
				names = append(names, n)
			}
			name := names[r.Intn(len(names))]
			status := bothAgree(t, inc, full, label+" remove "+name, func(svc *Server) (int, []byte) {
				return svc.ShardFor("").Remove(ctx, name)
			})
			if status == http.StatusOK {
				delete(live, name)
			}
		default: // plain (warm-path-eligible) admit
			tk := pool[r.Intn(len(pool))]
			status := bothAgree(t, inc, full, label+" admit "+tk.Name, func(svc *Server) (int, []byte) {
				return svc.ShardFor("").Admit(ctx, tk)
			})
			if status == http.StatusOK {
				live[tk.Name] = true
			}
			if ty, uniform := tk.G.UniformType(); status == http.StatusConflict && !live[tk.Name] &&
				uniform && !tk.HighDensity() && ty < 2 {
				rejects[ty]++
			}
		}
		requireAllocParity(t, inc, full, label)
	}
	return rejects
}

// typedScript drives scripted typed twin walks through the two corners a
// random pool rarely reaches. On a:3,b:4, mixedHigh leaves type b two shared
// processors; five type-b tasks fit there, but removing x0 shifts the
// deadline-ordered first-fit packing until x4 no longer fits (a failed
// removal, final on the warm path). On a:3,b:2, mixedHigh leaves type b no
// shared processor, so every type-b admit fails on an empty bank while type
// a stays open.
func typedScript(t *testing.T) {
	ctx := context.Background()
	admit := func(inc, full *Server, tk *task.DAGTask, want int) []byte {
		t.Helper()
		var body []byte
		status := bothAgree(t, inc, full, "admit "+tk.Name, func(svc *Server) (int, []byte) {
			s, b := svc.ShardFor("").Admit(ctx, tk)
			body = b
			return s, b
		})
		if status != want {
			t.Fatalf("admit %s: %d %s, want %d", tk.Name, status, body, want)
		}
		requireAllocParity(t, inc, full, "after admit "+tk.Name)
		return body
	}
	remove := func(inc, full *Server, name string, want int) {
		t.Helper()
		status := bothAgree(t, inc, full, "remove "+name, func(svc *Server) (int, []byte) {
			return svc.ShardFor("").Remove(ctx, name)
		})
		if status != want {
			t.Fatalf("remove %s: %d, want %d", name, status, want)
		}
		requireAllocParity(t, inc, full, "after remove "+name)
	}

	inc, full := twinServers(t, typedConfig(7, 4))
	admit(inc, full, mixedHigh("h0"), http.StatusOK)
	admit(inc, full, typedLow("a0", 0, 2, 8, 10), http.StatusOK)
	for i, p := range [][3]task.Time{{1, 4, 15}, {2, 4, 11}, {6, 11, 21}, {5, 9, 18}, {8, 15, 22}} {
		admit(inc, full, typedLow(fmt.Sprintf("x%d", i), 1, p[0], p[1], p[2]), http.StatusOK)
	}
	remove(inc, full, "x0", http.StatusConflict)
	remove(inc, full, "a0", http.StatusOK)
	remove(inc, full, "x4", http.StatusOK)
	remove(inc, full, "x0", http.StatusOK)

	inc, full = twinServers(t, typedConfig(5, 2))
	admit(inc, full, mixedHigh("h0"), http.StatusOK)
	if body := admit(inc, full, typedLow("b0", 1, 1, 10, 10), http.StatusConflict); !bytes.Contains(body, []byte("0 processors remaining")) {
		t.Errorf("type-b admit with no type-b shared processor: %s", body)
	}
	admit(inc, full, typedLow("a0", 0, 1, 10, 10), http.StatusOK)
	remove(inc, full, "a0", http.StatusOK)
}

// TestServiceStateRandomWalk is the stateful soak: 500+ admit/remove ops per
// seed through the service layer, every response and allocation byte-compared
// against the full-repartition oracle, on an untyped platform and (typed/)
// on a two-type one. make partition-race runs it under the race detector.
func TestServiceStateRandomWalk(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const m = 10
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			inc, full := twinServers(t, Config{M: m})
			stateWalk(t, rand.New(rand.NewSource(seed)), seed, inc, full, genSystem(t, seed+900, 30, m*1.4))
		})
	}
	t.Run("typed", func(t *testing.T) {
		for _, seed := range seeds {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				inc, full := twinServers(t, typedConfig(m, 4))
				stateWalk(t, rand.New(rand.NewSource(seed)), seed, inc, full, typedPool(t, seed+900, 30, m*1.4))
			})
		}
	})
}

// stateWalk is the body of TestServiceStateRandomWalk: 520 admits (duplicates
// included) and removals drawn from pool.
func stateWalk(t *testing.T, r *rand.Rand, seed int64, inc, full *Server, pool task.System) {
	t.Helper()
	var live []string
	isLive := func(n string) bool {
		for _, l := range live {
			if l == n {
				return true
			}
		}
		return false
	}
	ctx := context.Background()
	for step := 0; step < 520; step++ {
		label := fmt.Sprintf("seed %d step %d", seed, step)
		if len(live) == 0 || r.Float64() < 0.55 {
			tk := pool[r.Intn(len(pool))]
			if isLive(tk.Name) {
				// Duplicate admit: still must agree (409 on both).
				bothAgree(t, inc, full, label+" dup-admit", func(svc *Server) (int, []byte) {
					return svc.ShardFor("").Admit(ctx, tk)
				})
				continue
			}
			if bothAgree(t, inc, full, label+" admit", func(svc *Server) (int, []byte) {
				return svc.ShardFor("").Admit(ctx, tk)
			}) == http.StatusOK {
				live = append(live, tk.Name)
			}
		} else {
			i := r.Intn(len(live))
			name := live[i]
			if bothAgree(t, inc, full, label+" remove", func(svc *Server) (int, []byte) {
				return svc.ShardFor("").Remove(ctx, name)
			}) == http.StatusOK {
				live = append(live[:i], live[i+1:]...)
			}
		}
		if step%25 == 0 {
			requireAllocParity(t, inc, full, label)
		}
	}
	requireAllocParity(t, inc, full, "final")
}

// TestWarmPathActuallyTaken is the white-box guard that the differential
// tests are not vacuous: an untraced low-density admit must mutate the live
// partition.State in place (warm path), while traced requests, high-density
// admits and batches must fall back and rebuild it.
func TestWarmPathActuallyTaken(t *testing.T) {
	svc, err := New(Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.ShardFor("")
	ctx := context.Background()
	if status, body := sh.Admit(ctx, example1Task("seed")); status != http.StatusOK {
		t.Fatalf("seed admit: %d %s", status, body)
	}
	if sh.pstate == nil {
		t.Fatal("no partition state after first install")
	}

	st0 := sh.pstate
	if status, _ := sh.Admit(ctx, example1Task("low")); status != http.StatusOK {
		t.Fatal("low admit failed")
	}
	if sh.pstate != st0 {
		t.Error("untraced low-density admit rebuilt the state: warm path not taken")
	}
	if status, _ := sh.Remove(ctx, "low"); status != http.StatusOK {
		t.Fatal("low remove failed")
	}
	if sh.pstate != st0 {
		t.Error("untraced low-density removal rebuilt the state: warm path not taken")
	}

	// Traced admit: must fall back (the trace comes from the batch code).
	rec := obs.New(obs.DefaultLimits)
	if status, body := sh.AdmitTrace(ctx, example1Task("traced"), "ffffffff-000001", rec); status != http.StatusOK {
		t.Fatalf("traced admit: %d %s", status, body)
	}
	if sh.pstate == st0 {
		t.Error("traced admit took the warm path; -trace output would bypass the batch code")
	}
	if !bytes.Contains(rec.JSON(obs.ExportOptions{}), []byte(`"fedcons"`)) {
		t.Error("traced fallback recorded no decision trace")
	}

	// High-density admit: changes Phase-1 numbering, must rebuild.
	st1 := sh.pstate
	if status, _ := sh.Admit(ctx, trijob("high")); status != http.StatusOK {
		t.Fatal("high admit failed")
	}
	if sh.pstate == st1 {
		t.Error("high-density admit took the warm path")
	}

	// Warm rejection: fill the remaining shared capacity with warm admits
	// until one is refused. Accepted and rejected warm operations alike must
	// keep mutating the same live state object — a rejection commits nothing.
	st2 := sh.pstate
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		switch status, body := sh.Admit(ctx, example1Task(fmt.Sprintf("fill%d", i))); status {
		case http.StatusOK:
		case http.StatusConflict:
			rejected = true
		default:
			t.Fatalf("fill admit %d: %d %s", i, status, body)
		}
	}
	if !rejected {
		t.Fatal("shared capacity never filled; no warm rejection exercised")
	}
	if sh.pstate != st2 {
		t.Error("warm fill admits or the warm rejection rebuilt the state")
	}

	// FullRepartition: the escape hatch really disables the warm path.
	fullSvc, err := New(Config{M: 8, FullRepartition: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fullSvc.Close()
	fsh := fullSvc.ShardFor("")
	if status, _ := fsh.Admit(ctx, example1Task("a")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	stf := fsh.pstate
	if status, _ := fsh.Admit(ctx, example1Task("b")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	if fsh.pstate == stf {
		t.Error("FullRepartition server served a mutation from the warm path")
	}

	// Typed: a uniformly-typed low-density admit or remove, in either bank,
	// mutates the banked state in place; a mixed-type low-density task needs
	// dedicated processors of both types and rebuilds it.
	typedSvc, err := New(typedConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer typedSvc.Close()
	tsh := typedSvc.ShardFor("")
	if status, body := tsh.Admit(ctx, mixedHigh("h0")); status != http.StatusOK {
		t.Fatalf("typed seed admit: %d %s", status, body)
	}
	stt := tsh.pstate
	if stt == nil {
		t.Fatal("no typed partition state after first install")
	}
	for _, tk := range []*task.DAGTask{typedLow("a0", 0, 2, 8, 10), typedLow("b0", 1, 2, 8, 10)} {
		if status, body := tsh.Admit(ctx, tk); status != http.StatusOK {
			t.Fatalf("typed low admit %s: %d %s", tk.Name, status, body)
		}
		if tsh.pstate != stt {
			t.Errorf("typed low-density admit of %s rebuilt the state: warm path not taken", tk.Name)
		}
	}
	if status, _ := tsh.Remove(ctx, "a0"); status != http.StatusOK {
		t.Fatal("typed low remove failed")
	}
	if tsh.pstate != stt {
		t.Error("typed low-density removal rebuilt the state: warm path not taken")
	}
	if status, body := tsh.Admit(ctx, mixedLow("mixed")); status != http.StatusOK {
		t.Fatalf("mixed-type admit: %d %s", status, body)
	}
	if tsh.pstate == stt {
		t.Error("mixed-type low-density admit took the warm path")
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// widthCappedScan is the Fig. 3 scan capped at min(mr, Width(G)): on
// Width(G) processors the LS makespan is len(G), so no first success lies
// past the width. It is the reference scanCap must match.
func widthCappedScan(tk *task.DAGTask, mr int, prio listsched.Priority) (int, *listsched.Schedule, bool) {
	d := window(tk)
	if tk.Len() > d {
		return 0, nil, false
	}
	limit := min(mr, tk.G.Width())
	for mu := scanStart(tk); mu <= limit; mu++ {
		s, err := listsched.Run(tk.G, mu, prio)
		if err != nil {
			return 0, nil, false
		}
		if s.Makespan <= d {
			return mu, s, true
		}
	}
	return 0, nil, false
}

// widthCappedSizer is the strict Phase-1 step built on widthCappedScan,
// always sequential.
func widthCappedSizer(_ task.System, opt Options) SizeFunc {
	return func(_ int, tk *task.DAGTask, mr int, _ *obs.Span) (Grant, bool) {
		mu, tmpl, ok := widthCappedScan(tk, mr, opt.Priority)
		return Grant{Procs: mu, Template: tmpl}, ok
	}
}

// scanCapRow is one task of the comparison; wantCap, when positive, pins
// scanCap's value on it.
type scanCapRow struct {
	name    string
	tk      *task.DAGTask
	wantCap int
}

// scanCapEdgeRows covers the boundaries of scanCap's case split.
func scanCapEdgeRows() []scanCapRow {
	build := func(wcets []Time, edges [][2]int) *dag.DAG {
		b := dag.NewBuilder(len(wcets))
		for _, c := range wcets {
			b.AddJob(c)
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		return b.MustBuild()
	}
	// A fork-join: 0 → {1..6} → 7, len 3+5+2 = 10, vol 44.
	fj := build([]Time{3, 5, 4, 5, 2, 5, 3, 2},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7}})
	chain := build([]Time{2, 3, 1, 4, 2}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	indep := build([]Time{3, 1, 4, 1, 5, 2, 6, 5, 3}, nil)
	return []scanCapRow{
		{"vol≤D", task.MustNew("vol≤D", fj, fj.Volume(), fj.Volume()), 1},
		{"len==D<vol", task.MustNew("len==D<vol", fj, fj.LongestChain(), 50), fj.N()},
		{"len>D", task.MustNew("len>D", fj, fj.LongestChain()-1, 50), 0},
		{"chain", task.MustNew("chain", chain, chain.LongestChain(), 20), 1},
		{"independent-tight", task.MustNew("independent-tight", indep, indep.LongestChain(), 40), indep.N()},
		{"independent-slack", task.MustNew("independent-slack", indep, indep.LongestChain()+2, 40), 0},
	}
}

// scanCapGenRows draws n seeded internal/gen tasks of 5–280 vertices over
// every generator shape and a wide deadline range.
func scanCapGenRows(n int) []scanCapRow {
	r := rand.New(rand.NewSource(21))
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts = 5, 280
	p.BetaMin, p.BetaMax = 0.05, 1
	rows := make([]scanCapRow, 0, n)
	for len(rows) < n {
		p.Shape = gen.Shape(len(rows) % 4)
		tk, err := gen.TaskFor(r, gen.Graph(r, p), 0.5+4*r.Float64(), p)
		if err != nil {
			continue
		}
		tk.Name = fmt.Sprintf("gen-%d", len(rows))
		rows = append(rows, scanCapRow{name: tk.Name, tk: tk})
	}
	return rows
}

// verifyCorpusSystems decodes every committed FuzzVerifyAllocation input
// into the system that target audits.
func verifyCorpusSystems(t *testing.T) []task.System {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzVerifyAllocation")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []task.System
	for _, e := range ents {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var seed uint32
		var mut uint8
		// The fuzzing engine writes a uint8 argument as byte(…) or uint8(…).
		in := strings.Replace(string(body), "\nbyte(", "\nuint8(", 1)
		if _, err := fmt.Sscanf(in, "go test fuzz v1\nuint32(%d)\nuint8(%d)\n", &seed, &mut); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// The same decoding as FuzzVerifyAllocation's.
		r := rand.New(rand.NewSource(int64(seed)))
		sys := fuzzSystem(r, 2+r.Intn(4))
		if mut %= 18; mut >= 13 && mut < 17 {
			sys = retypeSysForFuzz(r, sys, 0.3)
		}
		out = append(out, sys)
	}
	if len(out) == 0 {
		t.Fatalf("no corpus inputs under %s", dir)
	}
	return out
}

func scheduleBytes(t *testing.T, a *Allocation, err error) string {
	t.Helper()
	if err != nil {
		return err.Error()
	}
	enc, err := EncodeAllocation(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

// TestScanCapMatchesWidthCap pins the Lemma-1 scan cap, min(|V|, μ_A),
// against the width cap it replaced. MINPROCS must return the same
// (μ, ok, template bytes) at an unbounded budget, at the width and at
// μ* − 1, under both LS priorities; and Schedule, sequential and with the
// Phase-1 prefetch pool, must produce the same verdict and allocation bytes
// as a width-capped sequential Phase 1.
func TestScanCapMatchesWidthCap(t *testing.T) {
	corpus := verifyCorpusSystems(t)
	rows := append(scanCapEdgeRows(), scanCapGenRows(160)...)
	for _, sys := range corpus {
		for _, tk := range sys {
			rows = append(rows, scanCapRow{name: "corpus-" + tk.Name, tk: tk})
		}
	}
	prios := []listsched.Priority{nil, listsched.LongestPathFirst}

	t.Run("minprocs", func(t *testing.T) {
		below := 0
		for _, row := range rows {
			tk, w := row.tk, row.tk.G.Width()
			c := scanCap(tk)
			if row.wantCap > 0 && c != row.wantCap {
				t.Errorf("%s: scanCap = %d, want %d", row.name, c, row.wantCap)
			}
			if c < w {
				below++
			}
			for pi, prio := range prios {
				star, _, ok := widthCappedScan(tk, math.MaxInt, prio)
				budgets := []int{math.MaxInt, w}
				if ok {
					budgets = append(budgets, star-1)
				}
				for _, mr := range budgets {
					wmu, wtmpl, wok := widthCappedScan(tk, mr, prio)
					mu, tmpl, ok := Minprocs(tk, mr, prio)
					got, _ := json.Marshal(tmpl)
					want, _ := json.Marshal(wtmpl)
					if mu != wmu || ok != wok || !bytes.Equal(got, want) {
						t.Fatalf("%s prio %d budget %d: scanCap scan (μ=%d ok=%v) differs from width-capped scan (μ=%d ok=%v), templates equal: %v",
							row.name, pi, mr, mu, ok, wmu, wok, bytes.Equal(got, want))
					}
				}
			}
		}
		// The comparison proves something only where the caps differ.
		if below == 0 {
			t.Fatal("scanCap never fell below the width")
		}
		t.Logf("%d tasks, scanCap below the width on %d", len(rows), below)
	})

	t.Run("schedule", func(t *testing.T) {
		type sysCase struct {
			sys task.System
			ms  []int
		}
		var cases []sysCase
		for _, sys := range corpus {
			cases = append(cases, sysCase{sys, []int{2, 4, 8}})
		}
		gens := scanCapGenRows(24)
		for i := 0; i+3 <= len(gens); i += 3 {
			sys := task.System{gens[i].tk, gens[i+1].tk, gens[i+2].tk}
			need := 0
			for _, tk := range sys {
				if mu, _, ok := widthCappedScan(tk, math.MaxInt, nil); ok && tk.HighDensity() {
					need += mu
				}
			}
			cases = append(cases, sysCase{sys, []int{max(1, need-1), need + 2}})
		}
		accepted, rejected := 0, 0
		for ci, c := range cases {
			for _, m := range c.ms {
				for pi, prio := range prios {
					a, err := ScheduleWith(c.sys, m, Options{Par: 1, Priority: prio}, widthCappedSizer)
					want := scheduleBytes(t, a, err)
					if err == nil {
						accepted++
					} else {
						rejected++
					}
					for _, par := range []int{1, 4} {
						a, err := Schedule(c.sys, m, Options{Par: par, Priority: prio})
						if got := scheduleBytes(t, a, err); got != want {
							t.Fatalf("system %d m=%d prio %d par %d: Schedule differs from the width-capped Phase 1:\n got  %s\n want %s",
								ci, m, pi, par, got, want)
						}
					}
				}
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("%d accepted, %d rejected: both verdicts must occur", accepted, rejected)
		}
	})
}

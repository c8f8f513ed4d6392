package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fedsched/internal/gen"
	"fedsched/internal/task"
)

// TestTypedFlagValidation pins the typed flag surface: -policy=typed is
// accepted (with and without budgets), the budget flags demand the typed
// policy and exclude each other, malformed -m-types specs are refused before
// the input file is read, budgets that do not sum to the file's processor
// count are refused before any analysis, and -simulate accepts typed allocations (they carry
// template schedules, unlike the split shapes).
func TestTypedFlagValidation(t *testing.T) {
	path := schedulableFile(t)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"typed-default", []string{"-policy", "typed"}, ""},
		{"typed-single-type", []string{"-policy", "typed", "-m-types", "a:4"}, ""},
		{"typed-m-a", []string{"-policy", "typed", "-m-a", "4"}, ""},
		{"typed-simulate", []string{"-policy", "typed", "-simulate", "100"}, ""},
		{"mtypes-without-typed", []string{"-m-types", "a:8"}, "require -policy=typed"},
		{"mtypes-with-semi", []string{"-policy", "semi", "-m-types", "a:8"}, "require -policy=typed"},
		{"both-spellings", []string{"-policy", "typed", "-m-types", "a:8", "-m-a", "8"}, "mutually exclusive"},
		{"bad-spec-no-colon", []string{"-policy", "typed", "-m-types", "a8"}, "want <type>:<count>"},
		{"bad-spec-name", []string{"-policy", "typed", "-m-types", "A:8"}, "type must be a letter"},
		{"bad-spec-dup", []string{"-policy", "typed", "-m-types", "a:4,a:4"}, "twice"},
		{"bad-spec-negative", []string{"-policy", "typed", "-m-types", "a:-1"}, "non-negative"},
		{"budgets-mismatch-m", []string{"-policy", "typed", "-m-types", "a:1,b:1"}, "per-type budgets a:1,b:1 sum to 2, want m=4"},
		{"m-a-mismatch-m", []string{"-policy", "typed", "-m-a", "2"}, "per-type budgets a:2,b:0 sum to 2, want m=4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(append([]string{}, tc.args...), path), &bytes.Buffer{})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%v) = %v, want success", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestTypedSingleTypeDifferential is the typed model's compatibility pin: on
// a single-type platform (every processor type a — the model the paper
// analyzes) with untyped workloads, -policy=typed must be byte-identical to
// strict -policy=fedcons. Across 20 generated systems spanning schedulable
// and unschedulable territory, every partition heuristic, both worker-pool
// widths and three spellings of the single-type platform (no budgets,
// -m-types a:8, -m-a 8), it compares the verdict/allocation output, the
// -trace JSONL stream, the -explain text and the error against the strict
// run, and asserts the degenerate verdict leaks neither "policy" nor
// "mtypes" — which is what keeps WAL/snapshot replays and the daemon's
// GET /v1/allocation contract unchanged for existing deployments.
func TestTypedSingleTypeDifferential(t *testing.T) {
	const m, n, seeds = 8, 8, 20
	dir := t.TempDir()
	heuristics := []string{"first-fit", "best-fit", "worst-fit"}
	pars := []string{"1", "4"}
	spellings := [][]string{
		{"-policy", "typed"},
		{"-policy", "typed", "-m-types", "a:8"},
		{"-policy", "typed", "-m-a", "8"},
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		normU := 0.30 + 0.03*float64(seed) // 0.30 … 0.87: mixed verdicts
		p := gen.DefaultParams(n, normU*float64(m))
		sys, err := gen.System(r, p)
		if err != nil {
			t.Fatal(err)
		}
		path := writeSystem(t, &task.SystemFile{Processors: m, Tasks: sys})
		for _, h := range heuristics {
			for _, par := range pars {
				for _, mode := range []struct {
					name string
					args []string
				}{
					{"json+trace", []string{"-o", "json", "-trace", "@TRACE@"}},
					{"explain", []string{"-explain"}},
				} {
					base := append([]string{"-partition", h, "-par", par}, mode.args...)
					wantOut, wantTrace, wantErr := runCapture(t, dir, base, path, "fedcons")
					for si, sp := range spellings {
						args := append(append([]string{}, base...), sp...)
						gotOut, gotTrace, gotErr := runCapture(t, dir, args, path, "")
						label := fmt.Sprintf("seed %d %s par %s %s spelling %d", seed, h, par, mode.name, si)
						if !errors.Is(gotErr, wantErr) && !sameErrString(gotErr, wantErr) {
							t.Fatalf("%s: err %v vs %v", label, gotErr, wantErr)
						}
						if gotOut != wantOut {
							t.Fatalf("%s: output diverges:\n--- fedcons ---\n%s\n--- typed ---\n%s", label, wantOut, gotOut)
						}
						if gotTrace != wantTrace {
							t.Fatalf("%s: trace diverges", label)
						}
						if mode.name == "json+trace" {
							for _, leak := range []string{`"policy"`, `"mtypes"`, `"servers"`} {
								if strings.Contains(gotOut, leak) {
									t.Fatalf("%s: degenerate typed verdict leaks %s:\n%s", label, leak, gotOut)
								}
							}
						}
					}
				}
			}
		}
	}
}

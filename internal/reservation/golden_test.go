package reservation

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden from current output")

// TestScheduleGolden pins the reservation policy's output bytes: for a fixed set of
// seeds and platforms, the allocation JSON (or the surfaced error) and the
// exported decision trace, which records the split attempt and, when it is
// rejected, the strict fallback. The matrix must cover an accepted split, a
// Phase-1 rejection and a Phase-2 rejection of the split attempt.
func TestScheduleGolden(t *testing.T) {
	var buf bytes.Buffer
	seen := map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var sys task.System
		for i, tk := range randomSystem(r, 2+r.Intn(4)) {
			sys = append(sys, task.MustNew(fmt.Sprintf("t%d", i), tk.G, tk.D, tk.T))
		}
		for _, m := range []int{1, 3, 6} {
			rec := obs.New(obs.DefaultLimits)
			alloc, err := core.Schedule(sys, m, core.Options{Policy: core.PolicyReservation, Trace: rec})
			fmt.Fprintf(&buf, "== seed %d m=%d\n", seed, m)
			if err != nil {
				fmt.Fprintf(&buf, "error: %v\n", err)
			} else {
				b, err := core.EncodeAllocation(alloc)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(b, '\n'))
			}
			if err := rec.WriteJSONL(&buf, obs.ExportOptions{}); err != nil {
				t.Fatal(err)
			}
			if a, ok := rec.Roots()[0].Lookup("phase"); ok {
				seen[a.Str()] = true
			} else {
				seen["split"] = true
			}
		}
	}
	for _, kind := range []string{"split", core.PhaseHighDensity.String(), core.PhaseLowDensity.String()} {
		if !seen[kind] {
			t.Errorf("golden matrix has no %s outcome of the split attempt", kind)
		}
	}
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("reservation output differs from %s (rerun with -update only for an intended change)", path)
	}
}

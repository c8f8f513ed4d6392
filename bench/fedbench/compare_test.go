package main

import "testing"

func TestCompareSets(t *testing.T) {
	gates := []gate{
		{Name: "admit_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "throughput_ops_s", Better: "higher", Bound: 0.1},
	}
	runs := func(w, m string, vals ...float64) []runRecord {
		var out []runRecord
		for _, v := range vals {
			out = append(out, runRecord{Workload: w, Valid: true, Correct: true, Metrics: map[string]float64{m: v}})
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99} // median 100, spread 2%
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"unchanged", "admit_p50_ms", steady, steady, verdictOK},
		{"slower within bound", "admit_p50_ms", steady, scaled(1.08), verdictOK},
		{"slower beyond bound", "admit_p50_ms", steady, scaled(1.15), verdictRegressed},
		{"faster", "admit_p50_ms", steady, scaled(0.8), verdictOK},
		{"throughput drop beyond bound", "throughput_ops_s", steady, scaled(0.85), verdictRegressed},
		{"throughput gain", "throughput_ops_s", steady, scaled(1.3), verdictOK},
		{"spread wider than bound", "admit_p50_ms", []float64{60, 80, 100, 120, 140}, []float64{60, 80, 100, 120, 140}, verdictUnresolved},
		{"wide spread but every run better", "admit_p50_ms", []float64{100, 120, 140, 160, 180}, []float64{40, 50, 60, 70, 80}, verdictBetter},
		{"wide spread, higher is better", "throughput_ops_s", []float64{40, 50, 60, 70, 80}, []float64{100, 120, 140, 160, 180}, verdictBetter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareSets(runs("w", tc.metric, tc.a...), runs("w", tc.metric, tc.b...), gates)
			if len(rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(rows))
			}
			if rows[0].verdict != tc.want {
				t.Errorf("verdict %s (worse %+.3f, spreads %.3f/%.3f), want %s",
					rows[0].verdict, rows[0].worse, rows[0].spreadA, rows[0].spreadB, tc.want)
			}
		})
	}
}

// Invalid and incorrect runs are not scored.
func TestCompareSetsSkipsUnscoredRuns(t *testing.T) {
	gates := []gate{{Name: "admit_p50_ms", Better: "lower", Bound: 0.1}}
	a := []runRecord{{Workload: "w", Valid: true, Correct: true, Metrics: map[string]float64{"admit_p50_ms": 1}}}
	b := []runRecord{
		{Workload: "w", Valid: true, Correct: true, Metrics: map[string]float64{"admit_p50_ms": 1}},
		{Workload: "w", Valid: false, Correct: true, Metrics: map[string]float64{"admit_p50_ms": 9}},
		{Workload: "w", Valid: true, Correct: false, Metrics: map[string]float64{"admit_p50_ms": 9}},
	}
	rows := compareSets(a, b, gates)
	if len(rows) != 1 || rows[0].nB != 1 || rows[0].verdict != verdictOK {
		t.Fatalf("rows = %+v, want one ok row over one scored B run", rows)
	}
}

package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fedsched/internal/gen"
	"fedsched/internal/task"
)

// Benchmark results land in package-level sinks so the measured calls
// cannot be optimized away.
var (
	sinkSnapshot *Snapshot
	sinkFrame    []byte
	sinkRecord   Record
)

// benchTasks draws n high-density tasks of minV–maxV-vertex Erdős–Rényi
// DAGs (p = 0.1) with utilisation in [uMin, uMax] and deadline tightness β
// in 0.1–0.3, named prefix-i.
func benchTasks(seed int64, n, minV, maxV int, uMin, uMax float64, prefix string) []*task.DAGTask {
	r := rand.New(rand.NewSource(seed))
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts = minV, maxV
	p.BetaMin, p.BetaMax = 0.1, 0.3
	out := make([]*task.DAGTask, 0, n)
	for len(out) < n {
		tk, err := gen.TaskFor(r, gen.Graph(r, p), uMin+r.Float64()*(uMax-uMin), p)
		if err != nil || !tk.HighDensity() {
			continue
		}
		tk.Name = fmt.Sprintf("%s-%d", prefix, len(out))
		out = append(out, tk)
	}
	return out
}

// codecStates are the benchmarked states: the 50-task seed batch of the
// warm-low benchmark workload (150–250 vertices, utilisation 0.5–0.8), and
// one cold-high-sized admit (a 180-vertex DAG, about 16 KB of JSON).
func codecStates() []struct {
	name  string
	tasks []*task.DAGTask
} {
	return []struct {
		name  string
		tasks []*task.DAGTask
	}{
		{"warm-low-seed", benchTasks(1, 50, 150, 250, 0.5, 0.8, "seed")},
		{"cold-high", benchTasks(2, 1, 180, 180, 0.5, 1, "cold")},
	}
}

func benchHashes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i)
	}
	return out
}

// BenchmarkDecodeSnapshot times reading the indented snapshot of the
// warm-low seed state, the bulk of that workload's recovery.
func BenchmarkDecodeSnapshot(b *testing.B) {
	tks := codecStates()[0].tasks
	data, err := EncodeSnapshot(&Snapshot{Format: snapshotFormat, Seq: 1, M: 176, Tasks: tks, CacheKeys: benchHashes(len(tks))})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkSnapshot, err = DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRecord times framing an admit record: the warm-low seed
// batch as one record, and one cold-high admit.
func BenchmarkEncodeRecord(b *testing.B) {
	for _, st := range codecStates() {
		rec := Record{Seq: 1, Op: OpAdmit, Tasks: st.tasks, Hashes: benchHashes(len(st.tasks)), Trace: "0123abcd-000001"}
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkFrame, err = EncodeRecord(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeRecord times reading back the frames BenchmarkEncodeRecord
// writes, as recovery does.
func BenchmarkDecodeRecord(b *testing.B) {
	for _, st := range codecStates() {
		frame, err := EncodeRecord(Record{Seq: 1, Op: OpAdmit, Tasks: st.tasks, Hashes: benchHashes(len(st.tasks)), Trace: "0123abcd-000001"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkRecord, err = DecodeRecord(bytes.NewReader(frame)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

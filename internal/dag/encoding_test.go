package dag

import (
	"bytes"
	"runtime"
	"testing"

	"fedsched/internal/wire"
)

// TestDecodeWireAllocatesPerGraph decodes a small graph at the head of a
// multi-megabyte input, as an envelope reader does with its first task. The
// bytes allocated must scale with the graph, not with the rest of the input.
func TestDecodeWireAllocatesPerGraph(t *testing.T) {
	head := Example1().AppendJSON(nil)
	data := append(append(head, ','), bytes.Repeat([]byte(" "), 8<<20)...)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		s := wire.NewScanner(data)
		g, ok := DecodeWire(s)
		if !ok || !g.Equal(Example1()) || !s.Consume(',') {
			t.Fatal("DecodeWire did not read the head graph")
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(64 * len(head)); perRun > limit {
		t.Errorf("decoding a %d-byte graph allocated %d bytes per run (limit %d) from a %d-byte input",
			len(head), perRun, limit, len(data))
	}
}

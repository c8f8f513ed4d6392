package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// digest hashes an op sequence.
func digest(ops []op) [32]byte {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%d %s %d\n", o.kind, o.name, len(o.body))
		h.Write(o.body)
	}
	return [32]byte(h.Sum(nil))
}

func TestOpStreamDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a, err := makePlan(w, 7, loopOps{seq: 30, open: 40, closed: 20})
			if err != nil {
				t.Fatal(err)
			}
			b, err := makePlan(w, 7, loopOps{seq: 30, open: 40, closed: 20})
			if err != nil {
				t.Fatal(err)
			}
			c, err := makePlan(w, 8, loopOps{seq: 30, open: 40, closed: 20})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.seedBody, b.seedBody) {
				t.Error("same seed, different seed batches")
			}
			differs := w.seedN > 0 && !bytes.Equal(a.seedBody, c.seedBody)
			for s := 0; s < senders; s++ {
				if digest(a.seq[s]) != digest(b.seq[s]) || digest(a.open[s]) != digest(b.open[s]) || digest(a.closed[s]) != digest(b.closed[s]) {
					t.Errorf("sender %d: same seed, different op streams", s)
				}
				if digest(a.seq[s]) != digest(c.seq[s]) {
					differs = true
				}
			}
			if !differs {
				t.Error("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

// Each sender's slots keep its live set within the workload's cap, names are
// unique, and the open-loop slots are one read per eight mutations.
func TestOpStreamShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		p, err := makePlan(w, 3, loopOps{open: 180})
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for s, ops := range p.open {
			live, reads := 0, 0
			for _, o := range ops {
				switch o.kind {
				case opAdmit:
					live++
					if names[o.name] {
						t.Fatalf("%s: task name %s generated twice", w.name, o.name)
					}
					names[o.name] = true
				case opRemove:
					live--
				case opRead:
					reads++
				}
				if live < 0 || (w.maxLive > 0 && live > w.maxLive) {
					t.Fatalf("%s sender %d: live count %d outside [0, %d]", w.name, s, live, w.maxLive)
				}
			}
			if reads != len(ops)/readEvery {
				t.Errorf("%s sender %d: %d reads in %d ops", w.name, s, reads, len(ops))
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics this
// command produces.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command %d", len(set.json), len(set.defs))
		}
		for i, m := range set.json {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}

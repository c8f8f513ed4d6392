package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fedsched/internal/task"
)

// refEncode is the two-pass stdlib rendering appendFast must reproduce
// byte-for-byte wherever it claims to apply.
func refEncode(t *testing.T, v Verdict) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("reference MarshalIndent: %v", err)
	}
	return append(data, '\n')
}

func randVerdict(r *rand.Rand) Verdict {
	floats := []float64{0, 1, 1.5, 0.1, 9.0 / 16.0, 123456789.123,
		1e-7, 2.5e-9, 1e21, 3.25e22, -4.75, -1e-8,
		math.SmallestNonzeroFloat64, math.MaxFloat64, r.Float64() * 100}
	// The last six names are ones encoding/json escapes: UTF-8, a control
	// character, a backslash, a lone high byte, a quote and the HTML set.
	names := []string{"probe", "t0", "a_very_long_task-name.42", "x",
		"täsk", "a\tb", `path\to\nowhere`, string([]byte{0x80}), `h"`, "<a&b>"}
	v := Verdict{
		Schedulable: r.Intn(2) == 0,
		Processors:  r.Intn(4096),
		Tasks:       r.Intn(200),
		USum:        floats[r.Intn(len(floats))],
		DensitySum:  floats[r.Intn(len(floats))],
		Dedicated:   r.Intn(100),
		Shared:      r.Intn(100),
	}
	for i := 0; i < r.Intn(4); i++ {
		h := HighGrant{
			Task:     names[r.Intn(len(names))],
			Density:  floats[r.Intn(len(floats))],
			Makespan: task.Time(r.Int63n(1 << 40)),
			Deadline: task.Time(r.Int63n(1 << 40)),
		}
		switch r.Intn(4) {
		case 0: // nil procs stays nil (encodes as null)
		case 1:
			h.Procs = []int{}
		default:
			for j := 0; j < 1+r.Intn(5); j++ {
				h.Procs = append(h.Procs, r.Intn(4096))
			}
		}
		v.High = append(v.High, h)
	}
	for i := 0; i < r.Intn(4); i++ {
		p := SharedProc{Proc: r.Intn(4096), Tasks: []string{}}
		if r.Intn(4) == 0 {
			p.Tasks = nil
		}
		for j := 0; j < r.Intn(4); j++ {
			p.Tasks = append(p.Tasks, names[r.Intn(len(names))])
		}
		v.SharedProcs = append(v.SharedProcs, p)
	}
	if r.Intn(3) == 0 {
		v.Reason = []string{"system unschedulable: insufficient capacity",
			`task "x" <rejected> & dropped`, `path\to\nowhere`, "täsk\n"}[r.Intn(4)]
	}
	// The shape fields, drawn last so every draw above is unchanged.
	v.Policy = []string{"", "semi", "reservation", "typed", "<typed>", "sémi"}[r.Intn(6)]
	switch r.Intn(3) {
	case 0: // nil mtypes is omitted
	case 1:
		v.MTypes = []int{} // so is an empty one
	default:
		for j := 0; j < 1+r.Intn(4); j++ {
			v.MTypes = append(v.MTypes, r.Intn(4096))
		}
	}
	for i := 0; i < r.Intn(4); i++ {
		v.Servers = append(v.Servers, ServerGrant{
			Task:     names[r.Intn(len(names))] + "#srv0",
			Budget:   task.Time(r.Int63n(1 << 40)),
			Deadline: task.Time(r.Int63n(1 << 40)),
			Period:   task.Time(r.Int63n(1 << 40)),
		})
	}
	return v
}

// TestEncodeFastMatchesStdlib pins the single-pass verdict encoder against
// encoding/json on randomized verdicts covering every field shape the daemon
// produces: nil/empty/populated arrays, both float notations, omitted and
// present reason, the split and typed shapes' policy tag, per-type budgets
// and reservation servers, and task, server, policy and reason strings that
// encoding/json escapes.
func TestEncodeFastMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	taken := 0
	for trial := 0; trial < 4000; trial++ {
		v := randVerdict(r)
		fast, ok := v.appendFast()
		if !ok {
			t.Fatalf("trial %d: fast path refused a traceless finite verdict: %+v", trial, v)
		}
		taken++
		if want := refEncode(t, v); !bytes.Equal(fast, want) {
			t.Fatalf("trial %d: encoders diverge\nfast:\n%s\nstdlib:\n%s\nverdict: %+v",
				trial, fast, want, v)
		}
	}
	if taken == 0 {
		t.Fatal("fast path never exercised")
	}
}

// TestEncodeFastFallsBack pins that the two inputs the single-pass encoder
// leaves to encoding/json — a raw trace and a non-finite float — are refused,
// and that Encode then still emits the stdlib bytes (or its error). Escaped
// strings take the fast path; TestEncodeFastMatchesStdlib pins them.
func TestEncodeFastFallsBack(t *testing.T) {
	cases := map[string]Verdict{
		"trace present":  {Trace: json.RawMessage(`[{"name":"fedcons"}]`)},
		"nan usum":       {USum: math.NaN()},
		"inf density":    {High: []HighGrant{{Task: "h", Density: math.Inf(1)}}},
		"inf densitySum": {DensitySum: math.Inf(-1)},
	}
	for name, v := range cases {
		if _, ok := v.appendFast(); ok {
			t.Errorf("%s: fast path accepted input it cannot render verbatim", name)
			continue
		}
		if name == "nan usum" || name == "inf density" || name == "inf densitySum" {
			if _, err := v.Encode(); err == nil {
				t.Errorf("%s: Encode succeeded on a non-finite float", name)
			}
			continue
		}
		got, err := v.Encode()
		if err != nil {
			t.Errorf("%s: Encode failed: %v", name, err)
			continue
		}
		if want := refEncode(t, v); !bytes.Equal(got, want) {
			t.Errorf("%s: fallback bytes diverge from stdlib", name)
		}
	}
}

// TestEncodeFastFloatNotation nails the two stdlib float spellings the fast
// encoder must reproduce, including the exponent's leading-zero strip.
func TestEncodeFastFloatNotation(t *testing.T) {
	cases := map[float64]string{
		0:          "0",
		1.5:        "1.5",
		9.0 / 16.0: "0.5625",
		1e-7:       "1e-7",
		2.5e-9:     "2.5e-9",
		1e21:       "1e+21",
		3.25e22:    "3.25e+22",
		-1e-8:      "-1e-8",
	}
	for f, want := range cases {
		if got := string(appendJSONFloat(nil, f)); got != want {
			t.Errorf("appendJSONFloat(%g) = %q, want %q", f, got, want)
		}
	}
}

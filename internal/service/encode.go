package service

import (
	"encoding/json"
	"math"
	"strconv"

	"fedsched/internal/core"
	"fedsched/internal/task"
	"fedsched/internal/wire"
)

// Verdict is the machine-readable answer to "is this system schedulable by
// FEDCONS on this platform, and how". It is the single response shape shared
// by the daemon (POST /v1/admit, GET /v1/allocation) and by
// `fedsched -o json`, so the CLI and the service produce byte-identical
// answers for the same system.
type Verdict struct {
	Schedulable bool    `json:"schedulable"`
	Processors  int     `json:"processors"`
	Tasks       int     `json:"tasks"`
	USum        float64 `json:"usum"`
	DensitySum  float64 `json:"densitySum"`
	// Dedicated and Shared count processors by role (schedulable only).
	Dedicated int `json:"dedicated"`
	Shared    int `json:"shared"`
	// Policy tags a split-shape allocation ("semi" or "reservation") or a
	// typed one ("typed"); omitempty keeps the strict encoding
	// byte-identical to the pre-policy format.
	Policy string `json:"policy,omitempty"`
	// MTypes gives a typed allocation's per-type processor budgets (type s
	// owns the type-major global id block); empty for every other shape.
	MTypes []int `json:"mtypes,omitempty"`
	// High lists the Phase-1 grants in input order (schedulable only).
	High []HighGrant `json:"high,omitempty"`
	// Servers lists a split-shape allocation's reservation servers in
	// allocation order (schedulable only, split shapes only).
	Servers []ServerGrant `json:"servers,omitempty"`
	// SharedProcs lists each Phase-2 processor and its tasks (schedulable only).
	SharedProcs []SharedProc `json:"sharedProcs,omitempty"`
	// Reason is the failure diagnosis (unschedulable only).
	Reason string `json:"reason,omitempty"`
	// Trace is the FEDCONS decision trace (span array with timings), present
	// only when the caller asked for one (daemon ?trace=1). omitempty keeps
	// the untraced encoding byte-identical to `fedsched -o json`.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// HighGrant is one high-density task's dedicated-processor grant.
type HighGrant struct {
	Task     string    `json:"task"`
	Density  float64   `json:"density"`
	Procs    []int     `json:"procs"`
	Makespan task.Time `json:"makespan"`
	Deadline task.Time `json:"deadline"`
}

// ServerGrant is one reservation server of a split-shape allocation: Budget
// execution units per Deadline-long window, re-released every Period.
type ServerGrant struct {
	Task     string    `json:"task"` // display name: owner#srvN
	Budget   task.Time `json:"budget"`
	Deadline task.Time `json:"deadline"`
	Period   task.Time `json:"period"`
}

// SharedProc is one Phase-2 processor with the tasks partitioned onto it.
type SharedProc struct {
	Proc  int      `json:"proc"`
	Tasks []string `json:"tasks"`
}

// NewVerdict builds the Verdict for a FEDCONS outcome: alloc on success, err
// on failure (exactly one of the two should be set; a nil alloc with nil err
// describes the empty system, trivially schedulable with every processor
// shared and idle).
func NewVerdict(sys task.System, m int, alloc *core.Allocation, err error) Verdict {
	v := Verdict{
		Processors: m,
		Tasks:      len(sys),
		USum:       sys.USum(),
		DensitySum: sys.DensitySum(),
	}
	if err != nil {
		v.Reason = err.Error()
		return v
	}
	v.Schedulable = true
	if alloc == nil {
		v.Shared = m
		return v
	}
	v.Dedicated, v.Shared = alloc.ProcessorsUsed()
	v.Policy = alloc.Policy
	v.MTypes = alloc.MTypes
	for _, h := range alloc.High {
		tk := sys[h.TaskIndex]
		g := HighGrant{
			Task:     tk.Name,
			Density:  tk.Density(),
			Procs:    h.Procs,
			Deadline: tk.D,
		}
		if h.Template != nil { // split-shape grants carry no template
			g.Makespan = h.Template.Makespan
		}
		v.High = append(v.High, g)
	}
	srvNames := core.ServerNames(sys, alloc)
	for j, sv := range alloc.Servers {
		owner := sys[sv.TaskIndex]
		v.Servers = append(v.Servers, ServerGrant{
			Task:     srvNames[j],
			Budget:   sv.Budget,
			Deadline: core.Window(owner),
			Period:   owner.T,
		})
	}
	for k, p := range alloc.SharedProcs {
		sp := SharedProc{Proc: p, Tasks: []string{}}
		for _, pos := range alloc.Low.Assignment[k] {
			if pos < len(alloc.Servers) {
				sp.Tasks = append(sp.Tasks, srvNames[pos])
				continue
			}
			sp.Tasks = append(sp.Tasks, sys[alloc.LowIndices[pos-len(alloc.Servers)]].Name)
		}
		v.SharedProcs = append(v.SharedProcs, sp)
	}
	return v
}

// Encode renders the verdict as indented JSON with a trailing newline — the
// exact bytes both the daemon endpoints and `fedsched -o json` emit. A
// verdict with no trace and finite floats is emitted by a single-pass
// appender; anything else goes through encoding/json, and
// TestEncodeFastMatchesStdlib pins that both spellings are byte-identical.
func (v Verdict) Encode() ([]byte, error) {
	if b, ok := v.appendFast(); ok {
		return b, nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// appendFast emits the MarshalIndent encoding in one pass, escaping every
// string with wire.AppendString. ok is false when a field needs stdlib
// treatment (a raw trace, or a non-finite float that encoding/json refuses)
// — the caller then takes the two-pass path, so the response bytes never
// depend on which encoder ran.
func (v Verdict) appendFast() ([]byte, bool) {
	if len(v.Trace) != 0 || !finite(v.USum) || !finite(v.DensitySum) {
		return nil, false
	}
	for i := range v.High {
		if !finite(v.High[i].Density) {
			return nil, false
		}
	}
	b := make([]byte, 0, v.sizeHint())
	b = append(b, "{\n  \"schedulable\": "...)
	b = strconv.AppendBool(b, v.Schedulable)
	b = append(b, ",\n  \"processors\": "...)
	b = strconv.AppendInt(b, int64(v.Processors), 10)
	b = append(b, ",\n  \"tasks\": "...)
	b = strconv.AppendInt(b, int64(v.Tasks), 10)
	b = append(b, ",\n  \"usum\": "...)
	b = appendJSONFloat(b, v.USum)
	b = append(b, ",\n  \"densitySum\": "...)
	b = appendJSONFloat(b, v.DensitySum)
	b = append(b, ",\n  \"dedicated\": "...)
	b = strconv.AppendInt(b, int64(v.Dedicated), 10)
	b = append(b, ",\n  \"shared\": "...)
	b = strconv.AppendInt(b, int64(v.Shared), 10)
	if v.Policy != "" {
		b = append(b, ",\n  \"policy\": "...)
		b = wire.AppendString(b, v.Policy)
	}
	if len(v.MTypes) > 0 {
		b = append(b, ",\n  \"mtypes\": "...)
		b = appendIntArray(b, v.MTypes, 1)
	}
	if len(v.High) > 0 {
		b = append(b, ",\n  \"high\": ["...)
		for i, h := range v.High {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"task\": "...)
			b = wire.AppendString(b, h.Task)
			b = append(b, ",\n      \"density\": "...)
			b = appendJSONFloat(b, h.Density)
			b = append(b, ",\n      \"procs\": "...)
			b = appendIntArray(b, h.Procs, 3)
			b = append(b, ",\n      \"makespan\": "...)
			b = strconv.AppendInt(b, int64(h.Makespan), 10)
			b = append(b, ",\n      \"deadline\": "...)
			b = strconv.AppendInt(b, int64(h.Deadline), 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	if len(v.Servers) > 0 {
		b = append(b, ",\n  \"servers\": ["...)
		for i, sv := range v.Servers {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"task\": "...)
			b = wire.AppendString(b, sv.Task)
			b = append(b, ",\n      \"budget\": "...)
			b = strconv.AppendInt(b, int64(sv.Budget), 10)
			b = append(b, ",\n      \"deadline\": "...)
			b = strconv.AppendInt(b, int64(sv.Deadline), 10)
			b = append(b, ",\n      \"period\": "...)
			b = strconv.AppendInt(b, int64(sv.Period), 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	if len(v.SharedProcs) > 0 {
		b = append(b, ",\n  \"sharedProcs\": ["...)
		for i, p := range v.SharedProcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"proc\": "...)
			b = strconv.AppendInt(b, int64(p.Proc), 10)
			b = append(b, ",\n      \"tasks\": "...)
			b = appendStringArray(b, p.Tasks)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	if v.Reason != "" {
		b = append(b, ",\n  \"reason\": "...)
		b = wire.AppendString(b, v.Reason)
	}
	b = append(b, "\n}\n"...)
	return b, true
}

func (v Verdict) sizeHint() int {
	n := 192 + len(v.Reason) + len(v.Policy) + 16 + 10*len(v.MTypes)
	for i := range v.Servers {
		n += 128 + len(v.Servers[i].Task)
	}
	for i := range v.High {
		n += 144 + len(v.High[i].Task) + 10*len(v.High[i].Procs)
	}
	for i := range v.SharedProcs {
		n += 72
		for _, t := range v.SharedProcs[i].Tasks {
			n += len(t) + 9
		}
	}
	return n
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat mirrors encoding/json's float64 formatting: shortest
// round-trip form, 'f' notation inside [1e-6, 1e21), 'e' outside with the
// exponent's leading zero stripped ("e-09" → "e-9").
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonIndent is MarshalIndent's line prefix ("\n" plus two spaces per level) up
// to the deepest level a verdict reaches.
const jsonIndent = "\n        "

// appendIntArray writes xs as an indented array at nesting depth (3 for
// "procs", 1 for "mtypes"): nil is null, empty is [], elements sit one per
// line.
func appendIntArray(b []byte, xs []int, depth int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	if len(xs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, jsonIndent[:3+2*depth]...)
		b = strconv.AppendInt(b, int64(x), 10)
	}
	b = append(b, jsonIndent[:1+2*depth]...)
	return append(b, ']')
}

// appendStringArray is appendIntArray for the "tasks" position.
func appendStringArray(b []byte, xs []string) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	if len(xs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        "...)
		b = wire.AppendString(b, x)
	}
	return append(b, "\n      ]"...)
}

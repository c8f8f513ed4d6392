package task

import (
	"encoding/json"
	"fmt"
	"strconv"

	"fedsched/internal/dag"
	"fedsched/internal/wire"
)

// jsonTask is the wire form of a DAGTask, as the encoding/json decode path
// and DecodeWire fill it.
type jsonTask struct {
	Name string   `json:"name"`
	D    Time     `json:"deadline"`
	T    Time     `json:"period"`
	G    *dag.DAG `json:"dag"`
}

// MarshalJSON encodes the task with its graph inline; an empty name is
// omitted.
func (tk *DAGTask) MarshalJSON() ([]byte, error) {
	return tk.AppendJSON(make([]byte, 0, 64)), nil // room for the fields before "dag"
}

// AppendJSON appends the bytes MarshalJSON returns.
func (tk *DAGTask) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if tk.Name != "" {
		b = append(wire.AppendString(append(b, `"name":`...), tk.Name), ',')
	}
	b = strconv.AppendInt(append(b, `"deadline":`...), tk.D, 10)
	b = strconv.AppendInt(append(b, `,"period":`...), tk.T, 10)
	b = append(b, `,"dag":`...)
	if tk.G == nil {
		b = append(b, "null"...)
	} else {
		b = tk.G.AppendJSON(b)
	}
	return append(b, '}')
}

// UnmarshalJSON decodes and validates a DAGTask. Input in the canonical
// wire subset (see DecodeWire) is read in one pass; anything else, and any
// input New or the DAG builder rejects, goes through encoding/json, which
// therefore owns every error text.
func (tk *DAGTask) UnmarshalJSON(data []byte) error {
	if built, ok := decodeWire(data); ok {
		*tk = *built
		return nil
	}
	var jt jsonTask
	if err := json.Unmarshal(data, &jt); err != nil {
		return fmt.Errorf("task: decoding: %w", err)
	}
	built, err := New(jt.Name, jt.G, jt.D, jt.T)
	if err != nil {
		return err
	}
	*tk = *built
	return nil
}

// decodeWire is UnmarshalJSON's single-pass fast path: one task that is the
// whole input.
func decodeWire(data []byte) (*DAGTask, bool) {
	s := wire.NewScanner(data)
	tk, ok := DecodeWire(s)
	return tk, ok && s.End()
}

// DecodeWire reads one task in the canonical wire subset at the scanner's
// position and validates it: exact lower-case keys, each at most once, with
// the graph in dag.DecodeWire's subset. It reports false for any other input
// and for input that New or the DAG builder rejects; the caller then decodes
// the same bytes with encoding/json, which owns every error text.
func DecodeWire(s *wire.Scanner) (*DAGTask, bool) {
	var jt jsonTask
	var seen uint8 // bits: name, deadline, period, dag
	ok := s.Object(func(key []byte) bool {
		var ok bool
		switch {
		case string(key) == "name" && seen&1 == 0:
			seen |= 1
			jt.Name, ok = s.String()
		case string(key) == "deadline" && seen&2 == 0:
			seen |= 2
			jt.D, ok = s.Int()
		case string(key) == "period" && seen&4 == 0:
			seen |= 4
			jt.T, ok = s.Int()
		case string(key) == "dag" && seen&8 == 0:
			seen |= 8
			jt.G, ok = dag.DecodeWire(s)
		}
		return ok
	})
	if !ok {
		return nil, false
	}
	tk, err := New(jt.Name, jt.G, jt.D, jt.T)
	return tk, err == nil
}

// DecodeWireList reads an array of tasks, each as DecodeWire reads one. An
// empty array reads as an empty slice, not nil, as encoding/json reads it.
func DecodeWireList(s *wire.Scanner) ([]*DAGTask, bool) {
	out := []*DAGTask{}
	ok := s.Array(func() bool {
		tk, ok := DecodeWire(s)
		out = append(out, tk)
		return ok
	})
	return out, ok
}

// SystemFile is the on-disk representation of a task system together with
// the platform it targets, as consumed by cmd/fedsched and produced by
// cmd/taskgen.
type SystemFile struct {
	// Processors is the number of identical unit-speed processors m.
	Processors int `json:"processors"`
	// Tasks is the task system τ.
	Tasks System `json:"tasks"`
}

// Validate validates the platform size and every task.
func (f *SystemFile) Validate() error {
	if f.Processors < 1 {
		return fmt.Errorf("task: processors must be ≥ 1, got %d", f.Processors)
	}
	return f.Tasks.Validate()
}

// EncodeSystem marshals a SystemFile with indentation.
func EncodeSystem(f *SystemFile) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(f, "", "  ")
}

// DecodeSystem unmarshals and validates a SystemFile.
func DecodeSystem(data []byte) (*SystemFile, error) {
	var f SystemFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("task: decoding system file: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

func min64(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

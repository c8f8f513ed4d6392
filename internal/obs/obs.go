// Package obs is the repository's stdlib-only observability layer: a
// hierarchical span recorder for decision traces, plus counter and
// log-bucketed latency-histogram primitives shared by the analysis pipeline,
// the experiment runner and the fedschedd daemon.
//
// The recorder exists because a FEDCONS verdict is not explainable from its
// boolean alone: no constant speedup factor can vouch for a rejection of a
// constrained-deadline system (paper Example 2; Chen, arXiv:1510.07254), so
// the only evidence that a rejection is justified — or spurious — is the
// concrete analysis trail: which μ values MINPROCS tried, what LS makespan
// each produced against the Lemma-1 bound, and which DBF* inequality ended
// the Phase-2 first-fit scan. Spans capture exactly that trail.
//
// Design constraints, in priority order:
//
//  1. Near-zero overhead when disabled. A nil *Recorder (the Noop) is a
//     valid recorder: every method on a nil *Recorder or nil *Span is a
//     no-op that allocates nothing, so call sites are written
//     unconditionally and pay only a pointer test when tracing is off.
//     Callers must keep attribute *arguments* cheap (ints and floats
//     already at hand), since argument evaluation precedes the nil test.
//  2. Bounded memory. Limits cap tree depth, total span count and
//     attributes per span; excess spans are counted in Dropped rather than
//     recorded, so a pathological μ-scan cannot balloon a trace.
//  3. Deterministic export. WriteJSONL emits spans in creation (pre-order)
//     sequence with attributes in insertion order; with Timings disabled
//     the bytes are a pure function of the recorded structure, which is how
//     `fedsched -trace` achieves byte-identical output across runs.
//
// Timestamps are monotonic: every span records offsets from the recorder's
// creation instant via time.Since, which Go guarantees uses the monotonic
// clock, so span durations are immune to wall-clock steps.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Limits bounds a Recorder's memory. The zero value selects the defaults.
type Limits struct {
	// MaxDepth is the deepest span nesting recorded (roots are depth 1).
	// Children beyond it are dropped (and counted). Default 16.
	MaxDepth int
	// MaxSpans caps the total spans a recorder retains. Default 16384.
	MaxSpans int
	// MaxAttrs caps the attributes retained per span. Default 32.
	MaxAttrs int
}

// DefaultLimits are the caps applied where a Limits field is zero.
var DefaultLimits = Limits{MaxDepth: 16, MaxSpans: 16384, MaxAttrs: 32}

func (l Limits) withDefaults() Limits {
	if l.MaxDepth <= 0 {
		l.MaxDepth = DefaultLimits.MaxDepth
	}
	if l.MaxSpans <= 0 {
		l.MaxSpans = DefaultLimits.MaxSpans
	}
	if l.MaxAttrs <= 0 {
		l.MaxAttrs = DefaultLimits.MaxAttrs
	}
	return l
}

// Recorder collects a bounded forest of spans. The zero value is not usable;
// construct with New. A nil *Recorder is the Noop recorder: all methods
// no-op, so tracing call sites need no conditionals.
//
// A Recorder is safe for concurrent use; the analysis pipeline records from
// a single goroutine, but the daemon may export while a request records.
type Recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	limits  Limits
	roots   []*Span
	spans   int
	dropped int
}

// Noop is the disabled recorder: nil, so every operation through it
// compiles to a pointer test. Exists for readable call sites
// (core.Schedule(sys, m, core.Options{Trace: obs.Noop})).
var Noop *Recorder

// New returns an empty Recorder with the given limits (zero fields take
// DefaultLimits).
func New(l Limits) *Recorder {
	return &Recorder{epoch: time.Now(), limits: l.withDefaults()}
}

// Start opens a root span. On a nil Recorder it returns a nil *Span, on
// which every method is a no-op.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	return r.newSpan(nil, name, 1)
}

func (r *Recorder) newSpan(parent *Span, name string, depth int) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans >= r.limits.MaxSpans || depth > r.limits.MaxDepth {
		r.dropped++
		if parent != nil {
			parent.dropped++
		}
		return nil
	}
	s := &Span{rec: r, name: name, depth: depth, start: time.Since(r.epoch)}
	r.spans++
	if parent == nil {
		r.roots = append(r.roots, s)
	} else {
		parent.children = append(parent.children, s)
	}
	return s
}

// Roots returns the recorded root spans in creation order (nil recorder:
// none).
func (r *Recorder) Roots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.roots...)
}

// Len returns the number of spans retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Dropped returns how many spans the limits refused.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Span is one node of the decision trace: a named operation with typed
// attributes, children, and monotonic start/end offsets. All methods are
// nil-safe no-ops so disabled tracing costs only pointer tests.
type Span struct {
	rec      *Recorder
	name     string
	depth    int
	start    time.Duration
	end      time.Duration
	finished bool
	attrs    []Attr
	children []*Span
	dropped  int
}

// Child opens a sub-span. Beyond the recorder's depth or span caps it
// returns nil (and counts the drop).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.newSpan(s, name, s.depth+1)
}

// Finish records the span's end timestamp. Idempotent; unfinished spans
// export with a zero duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if !s.finished {
		s.finished = true
		s.end = time.Since(s.rec.epoch)
	}
	s.rec.mu.Unlock()
}

func (s *Span) addAttr(a Attr) *Span {
	if s == nil {
		return nil
	}
	s.rec.mu.Lock()
	if len(s.attrs) < s.rec.limits.MaxAttrs {
		s.attrs = append(s.attrs, a)
	}
	s.rec.mu.Unlock()
	return s
}

// Int attaches an integer attribute. Setters chain and are nil-safe.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.addAttr(Attr{Key: key, Kind: KindInt, IntV: v})
}

// Float attaches a float attribute.
func (s *Span) Float(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	return s.addAttr(Attr{Key: key, Kind: KindFloat, FloatV: v})
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	return s.addAttr(Attr{Key: key, Kind: KindStr, StrV: v})
}

// Bool attaches a boolean attribute.
func (s *Span) Bool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	return s.addAttr(Attr{Key: key, Kind: KindBool, BoolV: v})
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns the recorded sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Attrs returns the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Lookup returns the first attribute with the given key.
func (s *Span) Lookup(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for _, a := range s.attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Duration returns end − start (zero for nil or unfinished spans).
func (s *Span) Duration() time.Duration {
	if s == nil || !s.finished {
		return 0
	}
	return s.end - s.start
}

// Kind discriminates an attribute's typed value.
type Kind uint8

// Attribute kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindStr
	KindBool
)

// Attr is one typed key/value attribute of a span. Exactly the field
// selected by Kind is meaningful.
type Attr struct {
	Key    string
	Kind   Kind
	IntV   int64
	FloatV float64
	StrV   string
	BoolV  bool
}

// Int64 returns the integer value (0 if the attribute is not an int).
func (a Attr) Int64() int64 { return a.IntV }

// Float64 returns the float value, widening an int attribute.
func (a Attr) Float64() float64 {
	if a.Kind == KindInt {
		return float64(a.IntV)
	}
	return a.FloatV
}

// Str returns the string value ("" if not a string).
func (a Attr) Str() string { return a.StrV }

// Bool returns the boolean value (false if not a bool).
func (a Attr) Bool() bool { return a.BoolV }

// String renders the attribute for debugging.
func (a Attr) String() string {
	switch a.Kind {
	case KindInt:
		return fmt.Sprintf("%s=%d", a.Key, a.IntV)
	case KindFloat:
		return fmt.Sprintf("%s=%g", a.Key, a.FloatV)
	case KindBool:
		return fmt.Sprintf("%s=%t", a.Key, a.BoolV)
	default:
		return fmt.Sprintf("%s=%q", a.Key, a.StrV)
	}
}

// Walk visits every span of the recorder in pre-order (the JSONL export
// order), calling fn with each span and its parent (nil for roots).
func (r *Recorder) Walk(fn func(s, parent *Span)) {
	if r == nil {
		return
	}
	var rec func(s, parent *Span)
	rec = func(s, parent *Span) {
		fn(s, parent)
		for _, c := range s.children {
			rec(c, s)
		}
	}
	for _, root := range r.Roots() {
		rec(root, nil)
	}
}

// FindAll returns every span with the given name, in pre-order.
func (r *Recorder) FindAll(name string) []*Span {
	var out []*Span
	r.Walk(func(s, _ *Span) {
		if s.name == name {
			out = append(out, s)
		}
	})
	return out
}

// Package wire holds the single-pass JSON reader behind the fast paths of
// the DAG and task codecs and of the envelopes that carry tasks (request
// bodies, WAL records, snapshots), and the string appender their encoders
// share.
//
// The reader accepts only the canonical subset of JSON that the codecs emit:
// plain strings (printable ASCII that encoding/json writes unescaped, so no
// quotes, backslashes, control bytes, non-ASCII or HTML-sensitive <, >, &),
// plain decimal integers of at most 18 digits (no fraction, exponent or
// leading zero), and the four JSON whitespace bytes between tokens. Every
// reader method reports false, rather than an error, when its input leaves
// that subset; the caller then falls back to encoding/json, which owns all
// error texts and edge-case semantics. A false is not a verdict on the
// input's validity.
package wire

import "encoding/json"

// maxDigits bounds a fast-path integer: 18 decimal digits always fit in an
// int64, so the reader never has to detect overflow. A caller that narrows
// the value to int checks that it fits.
const maxDigits = 18

// plain reports whether encoding/json writes c unescaped in a string and
// reads it back as itself.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Scanner is a cursor over JSON text in the fast-path subset.
type Scanner struct {
	data []byte
	pos  int
}

// NewScanner returns a Scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// Consume skips whitespace and consumes c if it is the next byte.
func (s *Scanner) Consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Remaining returns the number of unread bytes.
func (s *Scanner) Remaining() int { return len(s.data) - s.pos }

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.skipSpace()
	return s.pos == len(s.data)
}

// bytes reads a plain string and returns its contents, aliasing the input.
func (s *Scanner) bytes() ([]byte, bool) {
	if !s.Consume('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.data) && plain(s.data[s.pos]) {
		s.pos++
	}
	if s.pos == len(s.data) || s.data[s.pos] != '"' {
		return nil, false
	}
	s.pos++
	return s.data[start : s.pos-1], true
}

// String reads a plain string.
func (s *Scanner) String() (string, bool) {
	b, ok := s.bytes()
	return string(b), ok
}

// Int reads a plain decimal integer.
func (s *Scanner) Int() (int64, bool) {
	s.skipSpace()
	neg := s.pos < len(s.data) && s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	var v int64
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		v = v*10 + int64(s.data[s.pos]-'0')
		s.pos++
	}
	n := s.pos - start
	if n == 0 || n > maxDigits || (n > 1 && s.data[start] == '0') {
		return 0, false
	}
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}

// Uint reads a plain decimal integer with no sign: encoding/json refuses
// any sign, "-0" included, for an unsigned field.
func (s *Scanner) Uint() (uint64, bool) {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		return 0, false
	}
	v, ok := s.Int()
	return uint64(v), ok
}

// Object reads an object, calling field with each key once the scanner is
// positioned at its value. field reads the value and reports false to leave
// the fast path (an unknown or repeated key, a value outside the subset).
func (s *Scanner) Object(field func(key []byte) bool) bool {
	if !s.Consume('{') {
		return false
	}
	if s.Consume('}') {
		return true
	}
	for {
		key, ok := s.bytes()
		if !ok || !s.Consume(':') || !field(key) {
			return false
		}
		if !s.Consume(',') {
			return s.Consume('}')
		}
	}
}

// Array reads an array, calling elem once per element with the scanner
// positioned at it. elem reads the element and reports false to leave the
// fast path.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Consume('[') {
		return false
	}
	if s.Consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.Consume(',') {
			return s.Consume(']')
		}
	}
}

// AppendString appends str as encoding/json writes it. A plain string is
// copied between quotes; any other is escaped by encoding/json itself, which
// writes a string on its own exactly as it writes it as a struct field.
func AppendString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if !plain(str[i]) {
			q, _ := json.Marshal(str) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

package wire

import (
	"encoding/json"
	"testing"
)

func TestInt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"-12", -12, true},
		{"-0", 0, true},
		{" \t\r\n42", 42, true},
		{"999999999999999999", 999999999999999999, true},   // 18 digits
		{"-999999999999999999", -999999999999999999, true}, // 18 digits
		{"1000000000000000000", 0, false},                  // 19 digits
		{"-1000000000000000000", 0, false},                 // 19 digits
		{"01", 0, false},                                   // leading zero
		{"-01", 0, false},                                  // leading zero
		{"-", 0, false},                                    // bare sign
		{"", 0, false},                                     // nothing
		{"1.0", 0, false},                                  // fraction
		{"1e2", 0, false},                                  // exponent
		{"1E2", 0, false},                                  // exponent
		{"+1", 0, false},                                   // plus sign
		{`"1"`, 0, false},                                  // string
		{"null", 0, false},                                 // null
		{"12,", 12, true},                                  // stops at the comma
		{"12]", 12, true},                                  // stops at the bracket
		{"- 1", 0, false},                                  // space after the sign
		{"123456789012345678 ", 123456789012345678, true},  // trailing space is not read
		{"0x1", 0, true},                                   // stops before x; the caller's next read fails
	} {
		v, ok := NewScanner([]byte(tc.in)).Int()
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("Int(%q) = %d, %t; want %d, %t", tc.in, v, ok, tc.want, tc.ok)
		}
	}
}

func TestUint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{" 18", 18, true},
		{"999999999999999999", 999999999999999999, true},
		{"1000000000000000000", 0, false},
		{"-0", 0, false}, // encoding/json refuses any sign for an unsigned field
		{"-1", 0, false},
		{" -1", 0, false},
		{"01", 0, false},
	} {
		v, ok := NewScanner([]byte(tc.in)).Uint()
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("Uint(%q) = %d, %t; want %d, %t", tc.in, v, ok, tc.want, tc.ok)
		}
	}
}

func TestString(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		ok       bool
	}{
		{`"abc"`, "abc", true},
		{` "a b-c_1.2"`, "a b-c_1.2", true},
		{`""`, "", true},
		{`"a\"b"`, "", false},    // escape
		{`"a\u0041"`, "", false}, // escape
		{`"é"`, "", false},       // non-ASCII
		{`"<b>"`, "", false},     // HTML-sensitive
		{`"a&b"`, "", false},     // HTML-sensitive
		{"\"a\tb\"", "", false},  // control byte
		{`"abc`, "", false},      // unterminated
		{`abc`, "", false},       // not a string
	} {
		v, ok := NewScanner([]byte(tc.in)).String()
		if ok != tc.ok || (ok && v != tc.want) {
			t.Errorf("String(%q) = %q, %t; want %q, %t", tc.in, v, ok, tc.want, tc.ok)
		}
	}
}

func TestConsumeAndEnd(t *testing.T) {
	s := NewScanner([]byte(" \t{\r\n} \n"))
	if s.End() || !s.Consume('{') || s.Consume('{') || !s.Consume('}') || !s.End() || s.Remaining() != 0 {
		t.Fatal("Consume/End disagree with the input")
	}
	s = NewScanner([]byte("{} x"))
	if !s.Consume('{') || !s.Consume('}') || s.End() || s.Remaining() != 1 {
		t.Fatal("End accepted a trailing byte")
	}
	if !NewScanner(nil).End() || !NewScanner([]byte(" \n\t\r")).End() {
		t.Fatal("End refused empty or all-whitespace input")
	}
}

// readPair reads {"a":int,"b":[int...]} with exact keys, each at most once,
// as the codecs' readers do.
func readPair(in string) (a int64, b []int64, ok bool) {
	s := NewScanner([]byte(in))
	var seen uint8
	ok = s.Object(func(key []byte) bool {
		var ok bool
		switch {
		case string(key) == "a" && seen&1 == 0:
			seen |= 1
			a, ok = s.Int()
		case string(key) == "b" && seen&2 == 0:
			seen |= 2
			ok = s.Array(func() bool {
				v, ok := s.Int()
				b = append(b, v)
				return ok
			})
		}
		return ok
	})
	return a, b, ok && s.End()
}

func TestObjectAndArray(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{}`, true},
		{`{"a":1}`, true},
		{`{"a":1,"b":[]}`, true},
		{`{"b":[1,2,3],"a":4}`, true},
		{" {\n \"a\" : 1 ,\t\"b\" : [ 1 , 2 ] \r\n} ", true},
		{`{"a":1,}`, false},       // trailing comma in an object
		{`{"b":[1,2,]}`, false},   // trailing comma in an array
		{`{"b":[,]}`, false},      // empty element
		{`{"c":1}`, false},        // unknown key
		{`{"A":1}`, false},        // case-folded key
		{`{"a":1,"a":2}`, false},  // repeated key
		{`{"a" 1}`, false},        // missing colon
		{`{"a":1 "b":[]}`, false}, // missing comma
		{`{"a":1`, false},         // unterminated object
		{`{"b":[1`, false},        // unterminated array
		{`{"b":null}`, false},     // null array
		{`[]`, false},             // not an object
		{`{"a":1}{}`, false},      // a second value
	} {
		if _, _, ok := readPair(tc.in); ok != tc.ok {
			t.Errorf("readPair(%q) ok = %t, want %t", tc.in, ok, tc.ok)
		}
	}
	a, b, ok := readPair(`{"b":[5,-6],"a":7}`)
	if !ok || a != 7 || len(b) != 2 || b[0] != 5 || b[1] != -6 {
		t.Errorf("readPair read a=%d b=%v ok=%t", a, b, ok)
	}
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, str := range []string{
		"", "plain", "with space", "tab\there", `quote"`, `back\slash`,
		"<html>&amp;", "é", "日本", "  ", "\x00\x1f\x7f", "bad\xffutf8",
	} {
		want, err := json.Marshal(str)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), str); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, want x%s", str, got, want)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTypedRow pins the -policy=typed surface of the report: the typed row
// appears only when requested, is labeled with the declared platform when
// -m-types is given, and the budget flags demand the typed policy and must
// sum to the system's processor count.
func TestTypedRow(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
		wantRow string
	}{
		{
			name:    "typed-default",
			args:    []string{"-policy", "typed", "-example1"},
			wantRow: "TYPED (Han et al.)",
		},
		{
			name:    "typed-budgets",
			args:    []string{"-policy", "typed", "-m-types", "a:1", "-example1"},
			wantRow: "TYPED (a:1)",
		},
		{
			name:    "mtypes-without-typed",
			args:    []string{"-m-types", "a:1", "-example1"},
			wantErr: "-m-types requires -policy=typed",
		},
		{
			name:    "budgets-mismatch-m",
			args:    []string{"-policy", "typed", "-m-types", "a:1,b:1", "-example2", "4"},
			wantErr: "per-type budgets a:1,b:1 sum to 2, want m=4",
		},
		{
			name:    "bad-spec",
			args:    []string{"-policy", "typed", "-m-types", "a1", "-example1"},
			wantErr: "want <type>:<count>",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			if !strings.Contains(out.String(), tc.wantRow) {
				t.Fatalf("report missing row %q:\n%s", tc.wantRow, out.String())
			}
		})
	}
}

// TestTypedRowAgreesWithDefault: the typed report is the default report plus
// one appended row — the report body above it stays byte-identical.
func TestTypedRowAgreesWithDefault(t *testing.T) {
	var def, typed bytes.Buffer
	if err := run([]string{"-example1"}, &def); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-policy", "typed", "-example1"}, &typed); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(typed.String(), def.String()) {
		t.Fatalf("-policy=typed report is not default report + appended row:\n--- default ---\n%s\n--- typed ---\n%s", def.String(), typed.String())
	}
}

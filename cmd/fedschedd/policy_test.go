package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestPolicyFlagValidation: the daemon refuses unknown -policy values before
// binding a port, and accepts the three known ones (checked here by booting
// with each and asserting the startup banner, which names non-default
// policies and stays byte-identical to earlier releases for the default).
func TestPolicyFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown", []string{"-policy", "quantum"}, "unknown -policy"},
		{"empty-vocab", []string{"-policy", "rate-monotonic"}, "unknown -policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}

	for _, tc := range []struct {
		policy     string
		wantBanner string
	}{
		{"fedcons", " ls-scan/insertion/first-fit/dbf-approx listening"},
		{"semi", " semi/ls-scan/insertion/first-fit/dbf-approx listening"},
		{"reservation", " reservation/ls-scan/insertion/first-fit/dbf-approx listening"},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			d := startDaemon(t, false, "-policy", tc.policy)
			d.term(t)
			if log := d.out.String(); !strings.Contains(log, tc.wantBanner) {
				t.Errorf("banner missing %q:\n%s", tc.wantBanner, log)
			}
		})
	}
}

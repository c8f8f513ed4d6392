package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestRequestDecodePins pins how the admit and batch handlers read a body:
// the 400 texts for an empty, truncated or over-limit body, and the bodies
// accepted although they are not in canonical form. Each accepted body must
// answer byte-for-byte like its canonical equivalent on a fresh server: a
// valid value followed by trailing bytes (only the first value is read, even
// when the bytes after it run past the size limit), an escaped name, a
// case-folded key, and a duplicate key (the last one wins).
func TestRequestDecodePins(t *testing.T) {
	ex := string(admitBody(t, example1Task("ex")))
	batch := string(batchBody(t, example1Task("ex"), trijob("tri")))
	const admitPath, batchPath = "/v1/admit", "/v1/admit/batch"
	cases := []struct {
		name, path, body string
		status           int
		// want is the exact response body of a refused request; for an
		// accepted one, the canonical body whose response it must equal.
		want string
	}{
		{"admit-empty", admitPath, "", 400, `{"error":"decoding task: EOF"}`},
		{"admit-truncated", admitPath, ex[:len(ex)/2], 400, `{"error":"decoding task: unexpected EOF"}`},
		{"admit-over-limit", admitPath, `{"name":"big","pad":"` + strings.Repeat("x", 1<<20) + `"}`, 400,
			`{"error":"decoding task: http: request body too large"}`},
		{"admit-trailing-bytes", admitPath, ex + ` trailing}`, 200, ex},
		{"admit-trailing-value", admitPath, ex + ex, 200, ex},
		{"admit-trailing-over-limit", admitPath, ex + strings.Repeat(" ", 1<<20), 200, ex},
		{"admit-escaped-name", admitPath, strings.Replace(ex, `"name":"ex"`, `"name":"e\u0078"`, 1), 200, ex},
		{"admit-case-folded-key", admitPath, strings.Replace(ex, `"deadline"`, `"Deadline"`, 1), 200, ex},
		{"admit-duplicate-key", admitPath, strings.Replace(ex, `"name":"ex"`, `"name":"dup","name":"ex"`, 1), 200, ex},
		{"batch-empty", batchPath, "", 400, `{"error":"decoding batch: EOF"}`},
		{"batch-truncated", batchPath, batch[:len(batch)/2], 400, `{"error":"decoding batch: unexpected EOF"}`},
		{"batch-over-limit", batchPath, `{"tasks":[],"pad":"` + strings.Repeat("x", 16<<20) + `"}`, 400,
			`{"error":"decoding batch: http: request body too large"}`},
		{"batch-trailing-bytes", batchPath, batch + "\n{", 200, batch},
		{"batch-escaped-name", batchPath, strings.Replace(batch, `"name":"tri"`, `"name":"tr\u0069"`, 1), 200, batch},
		{"batch-case-folded-key", batchPath, strings.Replace(batch, `"tasks"`, `"TASKS"`, 1), 200, batch},
		{"batch-duplicate-key", batchPath, `{"tasks":[],` + batch[1:], 200, batch},
	}
	post := func(t *testing.T, path, body string) (int, []byte) {
		t.Helper()
		_, ts := newTestServer(t, Config{M: 8})
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, renderResponse(resp.StatusCode, resp.Header, readAll(t, resp))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, got := post(t, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d:\n%s", status, tc.status, got)
			}
			var want []byte
			if status == http.StatusOK {
				_, want = post(t, tc.path, tc.want)
			} else {
				want = renderResponse(status, http.Header{
					"Content-Type": {"application/json; charset=utf-8"},
					"X-Trace-Id":   {"TRACEID"},
				}, []byte(tc.want+"\n"))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

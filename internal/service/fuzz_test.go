package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"fedsched/internal/task"
)

// FuzzRequestEnvelope differentially checks the admit and batch body
// decoders against the json.Decoder the handlers ran over the live,
// size-limited body before the single-pass path existed. They must agree on
// acceptance, on the error text, and on every decoded task, both for the
// whole body and for one cut off by the size limit halfway through, where
// only the bytes before the limit may decide the outcome.
func FuzzRequestEnvelope(f *testing.F) {
	const tk = `{"name":"t","deadline":9,"period":10,"dag":{"vertices":[{"name":"a","wcet":2},{"wcet":3,"type":1}],"edges":[[0,1]]}}`
	for _, s := range []string{
		tk,
		`{"tasks":[` + tk + `,` + tk + `]}`,
		` { "tasks" : [ ` + tk + ` ] } `,
		`{"tasks":[]}`,
		`{"tasks":[null]}`,
		`{"Tasks":[` + tk + `]}`,
		`{"tasks":[],"tasks":[` + tk + `]}`,
		tk + ` trailing`,
		`{"tasks":[` + tk + `]}{`,
		`{"name":"xy","deadline":1,"period":1,"dag":{"vertices":[{"wcet":1}],"edges":[]}}`,
		``,
		`{`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body := func() io.ReadCloser { return io.NopCloser(bytes.NewReader(data)) }
		for _, limit := range []int64{int64(len(data)) + 1, int64(len(data) / 2)} {
			var ref task.DAGTask
			refErr := json.NewDecoder(http.MaxBytesReader(nil, body(), limit)).Decode(&ref)
			got, err := decodeAdmit(io.ReadAll(http.MaxBytesReader(nil, body(), limit)))
			if !sameErr(err, refErr) {
				t.Fatalf("limit %d: admit err = %v, json.Decoder err = %v", limit, err, refErr)
			}
			if err == nil && !sameTasks([]*task.DAGTask{got}, []*task.DAGTask{&ref}) {
				t.Fatalf("limit %d: admit decoded %v, json.Decoder %v", limit, got, &ref)
			}

			var refReq BatchRequest
			refErr = json.NewDecoder(http.MaxBytesReader(nil, body(), limit)).Decode(&refReq)
			tks, err := decodeBatch(io.ReadAll(http.MaxBytesReader(nil, body(), limit)))
			if !sameErr(err, refErr) {
				t.Fatalf("limit %d: batch err = %v, json.Decoder err = %v", limit, err, refErr)
			}
			if err == nil && !sameTasks(tks, refReq.Tasks) {
				t.Fatalf("limit %d: batch decoded %v, json.Decoder %v", limit, tks, refReq.Tasks)
			}
		}
	})
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// sameTasks reports whether two decoded task lists hold the same tasks,
// telling a nil list from an empty one and a nil task from a present one.
func sameTasks(a, b []*task.DAGTask) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		x, _ := a[i].MarshalJSON()
		y, _ := b[i].MarshalJSON()
		if !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

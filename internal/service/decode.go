package service

import (
	"bytes"
	"encoding/json"
	"io"

	"fedsched/internal/task"
	"fedsched/internal/wire"
)

// decodeAdmit decodes an admit body read whole, up to the size limit; on a
// read error, body holds the bytes read before it.
func decodeAdmit(body []byte, readErr error) (*task.DAGTask, error) {
	if readErr == nil {
		s := wire.NewScanner(body)
		if tk, ok := task.DecodeWire(s); ok && s.End() {
			return tk, nil
		}
	}
	var tk task.DAGTask
	if err := bodyDecoder(body, readErr).Decode(&tk); err != nil {
		return nil, err
	}
	return &tk, nil
}

// decodeBatch decodes a batch body as decodeAdmit decodes an admit body.
func decodeBatch(body []byte, readErr error) ([]*task.DAGTask, error) {
	if readErr == nil {
		s := wire.NewScanner(body)
		if tks, ok := decodeBatchWire(s); ok && s.End() {
			return tks, nil
		}
	}
	var req BatchRequest
	if err := bodyDecoder(body, readErr).Decode(&req); err != nil {
		return nil, err
	}
	return req.Tasks, nil
}

// decodeBatchWire reads a BatchRequest in the canonical wire subset: the
// one key "tasks", at most once, holding tasks in task.DecodeWire's subset.
func decodeBatchWire(s *wire.Scanner) ([]*task.DAGTask, bool) {
	var tks []*task.DAGTask
	ok := s.Object(func(key []byte) bool {
		if string(key) != "tasks" || tks != nil {
			return false
		}
		var ok bool
		tks, ok = task.DecodeWireList(s)
		return ok
	})
	return tks, ok
}

// bodyDecoder returns the decoder the handlers ran over the live body before
// the single-pass path existed, fed the same input: the bytes that were read,
// then the read error. So it owns every error text ("unexpected EOF", "http:
// request body too large") and, as before, reads only the first value and
// ignores any bytes after it, even ones past the size limit.
func bodyDecoder(body []byte, readErr error) *json.Decoder {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	return json.NewDecoder(r)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

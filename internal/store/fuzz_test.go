package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fedsched/internal/task"
)

// FuzzWALRecord fuzzes the WAL framing from both directions. The input is
// interpreted twice:
//
//  1. As a record payload, framed with a valid header. The single-pass
//     reader must agree with encoding/json wherever it accepts, DecodeRecord
//     must agree with encoding/json on acceptance, error text and value, and
//     a decoded record must re-encode to the bytes json.Marshal writes and
//     decode back to a record that marshals to the same bytes.
//  2. As raw log bytes: DecodeRecord must never panic, never allocate
//     unboundedly, and classify the input exactly: io.EOF for no bytes,
//     io.ErrUnexpectedEOF for a torn or corrupt frame, and a "valid but
//     undecodable" error for an intact frame whose payload encoding/json
//     refuses.
func FuzzWALRecord(f *testing.F) {
	seedTask := func(name string) *task.DAGTask {
		// Mirrors dag.Independent(2, 3) with D=4, T=5 in wire form.
		data := []byte(`{"name":"` + name + `","deadline":4,"period":5,"dag":{"vertices":[{"wcet":2},{"wcet":3}],"edges":[]}}`)
		var tk task.DAGTask
		if err := json.Unmarshal(data, &tk); err != nil {
			f.Fatal(err)
		}
		return &tk
	}
	for _, rec := range []Record{
		{Seq: 1, Op: OpAdmit, Tasks: []*task.DAGTask{seedTask("a")}, Hashes: []string{"00ff"}},
		{Seq: 2, Op: OpRemove, Name: "a"},
		{Seq: 3, Op: OpAdmit, Tasks: []*task.DAGTask{seedTask("x"), seedTask("y")}, Hashes: []string{"1", "2"}},
		{Seq: 4, Op: OpRemove, Name: "x", Trace: "0123abcd-000001", Cluster: "eu"},
	} {
		buf, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[recordHeaderLen:])
	}
	f.Add([]byte(`{"seq":5,"op":"remove","name":"a\u0062"}`))
	f.Add([]byte(`{"Seq":5,"op":"remove","name":"a","name":"b"}`))
	f.Add([]byte(`{"seq":-0,"op":"remove"}`))
	f.Add([]byte(`{"seq":5,"op":"admit","tasks":[null],"hashes":[]}`))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a payload.
		var ref Record
		refErr := json.Unmarshal(data, &ref)
		if fast, ok := decodeRecordWire(data); ok {
			if refErr != nil {
				t.Fatalf("single-pass reader accepted what encoding/json rejects (%v)", refErr)
			}
			if !sameRecord(fast, ref) {
				t.Fatalf("single-pass reader decoded %+v, encoding/json %+v", fast, ref)
			}
		}
		if len(data) > 0 && len(data) <= maxRecordLen {
			got, err := DecodeRecord(bytes.NewReader(frame(data)))
			switch {
			case refErr != nil:
				if want := "store: record payload is valid but undecodable: " + refErr.Error(); err == nil || err.Error() != want {
					t.Fatalf("DecodeRecord err = %v, want %s", err, want)
				}
			case err != nil:
				t.Fatalf("DecodeRecord refused what encoding/json accepts: %v", err)
			case !sameRecord(got, ref):
				t.Fatalf("DecodeRecord decoded %+v, encoding/json %+v", got, ref)
			case !slices.Contains(got.Tasks, nil):
				// A nil task never reaches a real WAL: replay refuses it.
				buf, err := EncodeRecord(got)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := json.Marshal(got)
				if !bytes.Equal(buf[recordHeaderLen:], want) {
					t.Fatalf("EncodeRecord wrote\n%s\njson.Marshal writes\n%s", buf[recordHeaderLen:], want)
				}
				// Empty slices come back nil: omitempty leaves them out.
				back, err := DecodeRecord(bytes.NewReader(buf))
				if again, _ := json.Marshal(back); err != nil || !bytes.Equal(again, want) {
					t.Fatalf("round trip: err %v, record\n%s\nwant\n%s", err, again, want)
				}
			}
		}

		// Direction 2: data as raw framed bytes.
		got, err := DecodeRecord(bytes.NewReader(data))
		payload, intact := unframe(data)
		switch {
		case len(data) == 0:
			if err != io.EOF {
				t.Fatalf("empty input: err = %v, want io.EOF", err)
			}
		case !intact:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("torn or corrupt frame: err = %v, want io.ErrUnexpectedEOF", err)
			}
		default:
			var want Record
			if jerr := json.Unmarshal(payload, &want); jerr != nil {
				if msg := "store: record payload is valid but undecodable: " + jerr.Error(); err == nil || err.Error() != msg {
					t.Fatalf("intact frame with an undecodable payload: err = %v, want %s", err, msg)
				}
			} else if err != nil || !sameRecord(got, want) {
				t.Fatalf("intact frame: err = %v, record %+v, want %+v", err, got, want)
			}
		}
	})
}

// frame wraps payload in a valid record header.
func frame(payload []byte) []byte {
	buf := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// unframe returns the payload of data's first frame and whether that frame
// is intact: a complete header, a length in range, the whole payload, and a
// matching CRC.
func unframe(data []byte) ([]byte, bool) {
	if len(data) < recordHeaderLen {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > maxRecordLen || uint64(len(data)-recordHeaderLen) < uint64(n) {
		return nil, false
	}
	payload := data[recordHeaderLen : recordHeaderLen+int(n)]
	return payload, crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(data[4:8])
}

// sameRecord reports whether two records hold the same values (task
// pointers differ after a decode), telling a nil slice from an empty one and
// a nil task from a present one.
func sameRecord(a, b Record) bool {
	if a.Seq != b.Seq || a.Op != b.Op || a.Name != b.Name || a.Trace != b.Trace || a.Cluster != b.Cluster ||
		(a.Hashes == nil) != (b.Hashes == nil) || !slices.Equal(a.Hashes, b.Hashes) {
		return false
	}
	return sameTasks(a.Tasks, b.Tasks)
}

func sameTasks(a, b []*task.DAGTask) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] != nil && !sameTask(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameTask(a, b *task.DAGTask) bool {
	x, _ := a.MarshalJSON()
	y, _ := b.MarshalJSON()
	return bytes.Equal(x, y)
}

// refDecodeSnapshot is DecodeSnapshot as it was before its single-pass
// reader: encoding/json, then the same checks.
func refDecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("store: unsupported snapshot format %d (want %d)", snap.Format, snapshotFormat)
	}
	if snap.M < 1 {
		return nil, fmt.Errorf("store: snapshot platform size must be ≥ 1, got %d", snap.M)
	}
	if len(snap.CacheKeys) != len(snap.Tasks) {
		return nil, fmt.Errorf("store: snapshot has %d tasks but %d cache keys", len(snap.Tasks), len(snap.CacheKeys))
	}
	if len(snap.Tasks) > 0 {
		if err := snap.Tasks.Validate(); err != nil {
			return nil, fmt.Errorf("store: snapshot tasks: %w", err)
		}
	}
	return &snap, nil
}

func sameSnapshot(a, b *Snapshot) bool {
	return a.Format == b.Format && a.Seq == b.Seq && a.M == b.M && a.Policy == b.Policy &&
		(a.MTypes == nil) == (b.MTypes == nil) && slices.Equal(a.MTypes, b.MTypes) &&
		(a.CacheKeys == nil) == (b.CacheKeys == nil) && slices.Equal(a.CacheKeys, b.CacheKeys) &&
		sameTasks(a.Tasks, b.Tasks)
}

// FuzzDecodeSnapshot differentially checks DecodeSnapshot against the
// encoding/json decoder it had before its single-pass reader. Wherever the
// reader accepts, encoding/json accepts with an equal snapshot; DecodeSnapshot
// as a whole agrees with the old decoder on acceptance, error text and value;
// and an accepted snapshot re-encodes to the old decoder's bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	f.Add([]byte(strings.Replace(string(golden), `"policy"`, `"Policy"`, 1)))
	f.Add([]byte(`{"format":1,"seq":0,"m":4,"tasks":[],"cacheKeys":[]}`))
	f.Add([]byte(`{"format":1,"seq":0,"m":4,"tasks":null,"cacheKeys":null}`))
	f.Add([]byte(`{"format":1,"seq":-0,"m":4,"tasks":[],"cacheKeys":[]}`))
	f.Add([]byte(`{"format":2,"seq":0,"m":0,"tasks":[],"cacheKeys":["x"]}`))
	f.Add([]byte(strings.Replace(string(golden), `"tasks"`, `"mtypes": [4, 0, 2], "tasks"`, 1)))
	f.Add([]byte(`{"format":1,"seq":0,"m":4,"mtypes":[],"tasks":[],"cacheKeys":[]}`))
	f.Add([]byte(`{"format":1,"seq":0,"m":4,"mtypes":null,"tasks":[],"cacheKeys":[]}`))
	f.Add([]byte(`{"format":1,"seq":0,"m":4,"mtypes":[-0,1.0],"tasks":[],"cacheKeys":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refDecodeSnapshot(data)
		if fast, ok := decodeSnapshotWire(data); ok {
			var raw Snapshot
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatalf("single-pass reader accepted what encoding/json rejects (%v)", err)
			}
			if !sameSnapshot(fast, &raw) {
				t.Fatalf("single-pass reader decoded %+v, encoding/json %+v", fast, &raw)
			}
		}
		got, err := DecodeSnapshot(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("DecodeSnapshot err = %v, old decoder err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameSnapshot(got, ref) {
			t.Fatalf("DecodeSnapshot decoded %+v, old decoder %+v", got, ref)
		}
		a, errA := EncodeSnapshot(got)
		b, errB := EncodeSnapshot(ref)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("re-encoding differs: %v, %v\n%s\nvs\n%s", errA, errB, a, b)
		}
	})
}

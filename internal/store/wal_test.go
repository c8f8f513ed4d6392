package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fedsched/internal/dag"
	"fedsched/internal/task"
)

func testTask(t *testing.T, name string) *task.DAGTask {
	t.Helper()
	return task.MustNew(name, dag.Example1(), dag.Example1D, dag.Example1T)
}

func testRecords(t *testing.T) []Record {
	t.Helper()
	return []Record{
		{Seq: 1, Op: OpAdmit, Tasks: []*task.DAGTask{testTask(t, "a")}, Hashes: []string{"aaaa"}},
		{Seq: 2, Op: OpAdmit, Tasks: []*task.DAGTask{testTask(t, "b"), testTask(t, "c")}, Hashes: []string{"bbbb", "cccc"}},
		{Seq: 3, Op: OpRemove, Name: "b"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords(t) {
		buf, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode seq %d: %v", rec.Seq, err)
		}
		if !sameRecord(rec, got) {
			t.Errorf("round trip changed record %d:\n%+v\nvs\n%+v", rec.Seq, rec, got)
		}
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	rec := testRecords(t)[0]
	buf, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the CRC must catch it.
	for _, i := range []int{recordHeaderLen, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, err := DecodeRecord(bytes.NewReader(bad)); err != io.ErrUnexpectedEOF {
			t.Errorf("flipped byte %d: err = %v, want ErrUnexpectedEOF", i, err)
		}
	}
	// A zero or giant length prefix must not drive an allocation.
	for _, n := range []uint32{0, maxRecordLen + 1, 1<<32 - 1} {
		bad := append([]byte(nil), buf...)
		bad[0], bad[1], bad[2], bad[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		if _, err := DecodeRecord(bytes.NewReader(bad)); err != io.ErrUnexpectedEOF {
			t.Errorf("length %d: err = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

// writeWAL builds a WAL file holding recs and returns its path and contents.
func writeWAL(t *testing.T, recs []Record) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh wal returned %d records", len(got))
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestWALReopenReturnsRecords(t *testing.T) {
	recs := testRecords(t)
	path, _ := writeWAL(t, recs)
	w, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(got) != len(recs) {
		t.Fatalf("reopen returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !sameRecord(recs[i], got[i]) {
			t.Errorf("record %d changed across reopen", i)
		}
	}
	// Appending after reopen continues the log.
	extra := Record{Seq: 4, Op: OpRemove, Name: "c"}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, got, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)+1 || !sameRecord(got[len(got)-1], extra) {
		t.Fatalf("append after reopen lost data: %d records", len(got))
	}
}

// TestWALTornWriteEveryOffset is the torn-write sweep: the log truncated at
// every possible byte offset must recover cleanly to the longest valid
// record prefix — never an error, never a partial record.
func TestWALTornWriteEveryOffset(t *testing.T) {
	recs := testRecords(t)
	_, full := writeWAL(t, recs)

	// Record boundaries: magic, then each framed record's end offset.
	bounds := []int{len(walMagic)}
	off := len(walMagic)
	for _, rec := range recs {
		buf, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		off += len(buf)
		bounds = append(bounds, off)
	}
	if off != len(full) {
		t.Fatalf("frame accounting is off: %d vs file size %d", off, len(full))
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut at %d: OpenWAL errored: %v", cut, err)
		}
		wantComplete := 0
		for i, b := range bounds[1:] {
			if cut >= b {
				wantComplete = i + 1
			}
		}
		if len(got) != wantComplete {
			w.Close()
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantComplete)
		}
		for i := 0; i < wantComplete; i++ {
			if !sameRecord(got[i], recs[i]) {
				t.Errorf("cut at %d: record %d corrupted by recovery", cut, i)
			}
		}
		// Recovery truncated the torn tail: the file must now end exactly at
		// the last valid boundary and accept new appends.
		next := Record{Seq: uint64(wantComplete) + 1, Op: OpRemove, Name: "x"}
		if err := w.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, reread, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen after heal: %v", cut, err)
		}
		if len(reread) != wantComplete+1 {
			t.Fatalf("cut at %d: after heal+append got %d records, want %d", cut, len(reread), wantComplete+1)
		}
		os.Remove(path)
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-wal")
	if err := os.WriteFile(path, []byte("PLAINTEXT LOG\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path); err == nil {
		t.Fatal("OpenWAL accepted a non-WAL file; it should refuse rather than clobber")
	}
}

func TestWALReset(t *testing.T) {
	recs := testRecords(t)
	path, _ := writeWAL(t, recs)
	w, got, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	after := Record{Seq: 9, Op: OpRemove, Name: "a"}
	if err := w.Append(after); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, got, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !sameRecord(got[0], after) {
		t.Fatalf("after reset want exactly the new record, got %d", len(got))
	}
}

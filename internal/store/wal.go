// Package store gives a fedschedd shard durable state: an append-only
// write-ahead log of installed admission/removal records plus periodic
// atomic snapshots of the installed task system. A shard restarted with the
// same directory replays snapshot+WAL into its exact pre-crash system, and
// the logged content hashes double as an end-to-end integrity check on the
// recovered tasks (core.TaskHash is recomputed and compared after replay).
//
// Durability protocol: a record is appended and fsynced *before* the new
// state is installed or acknowledged, so every state a client ever observed
// is recoverable. Clean shutdown deliberately writes nothing extra — closing
// a store is indistinguishable from crashing, which keeps the recovery path
// the only path and therefore permanently exercised.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"

	"fedsched/internal/task"
	"fedsched/internal/wire"
)

// Record ops. A batch admission is a single OpAdmit record carrying every
// task, so the log can never half-apply an atomic batch.
const (
	OpAdmit  = "admit"
	OpRemove = "remove"
)

// Record is one logged mutation of the installed system.
type Record struct {
	// Seq is the record's position in the shard's mutation history; records
	// in a WAL are strictly consecutive.
	Seq uint64 `json:"seq"`
	// Op is OpAdmit or OpRemove.
	Op string `json:"op"`
	// Name is the removed task's name (OpRemove only).
	Name string `json:"name,omitempty"`
	// Tasks are the admitted tasks (OpAdmit; one for a single admit, all of
	// them for an atomic batch).
	Tasks []*task.DAGTask `json:"tasks,omitempty"`
	// Hashes are the content hashes (core.TaskHash hex) of Tasks, index
	// aligned. They prewarm-check the Phase-1 cache on recovery: the
	// recovered tasks must hash to exactly these values.
	Hashes []string `json:"hashes,omitempty"`
	// Trace is the decision trace ID of the mutation that produced this
	// record, linking the durable log to the flight recorder and any audit
	// stream. Optional: records written before the field existed decode with
	// Trace empty, and replay never depends on it.
	Trace string `json:"trace,omitempty"`
	// Cluster is the logical cluster the mutation addressed ("" for the
	// default cluster). Optional, like Trace.
	Cluster string `json:"cluster,omitempty"`
}

// walMagic is the 8-byte file header; a mismatch means the file was never a
// fedschedd WAL and is refused rather than clobbered.
var walMagic = []byte("FEDWAL01")

// Wire format after the header, per record:
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload JSON
//
// maxRecordLen bounds a record (matching the daemon's 16 MiB batch body cap)
// so a corrupt length prefix cannot drive a giant allocation.
const (
	recordHeaderLen = 8
	maxRecordLen    = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeRecord renders rec in the WAL wire format. The payload is the bytes
// json.Marshal(rec) writes, appended field by field in declaration order
// with the empty optional fields left out; the task and string encoders
// already emit compact, escaped JSON, so no re-validation pass runs over it.
func EncodeRecord(rec Record) ([]byte, error) {
	hint := 96 + len(rec.Name) + len(rec.Trace) + len(rec.Cluster)
	for _, tk := range rec.Tasks {
		if tk != nil && tk.G != nil {
			// As dag.AppendJSON sizes a graph, plus the task's own fields.
			hint += 96 + 16*tk.G.N() + 10*tk.G.M() + len(tk.Name)
		}
	}
	for _, h := range rec.Hashes {
		hint += len(h) + 3
	}
	buf := appendRecord(make([]byte, recordHeaderLen, recordHeaderLen+hint), rec)
	payload := buf[recordHeaderLen:]
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("store: record %d is %d bytes, over the %d limit", rec.Seq, len(payload), maxRecordLen)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// appendRecord appends rec's payload JSON.
func appendRecord(b []byte, rec Record) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), rec.Seq, 10)
	b = wire.AppendString(append(b, `,"op":`...), rec.Op)
	if rec.Name != "" {
		b = wire.AppendString(append(b, `,"name":`...), rec.Name)
	}
	if len(rec.Tasks) > 0 {
		b = append(b, `,"tasks":[`...)
		for i, tk := range rec.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			if tk == nil {
				b = append(b, "null"...)
			} else {
				b = tk.AppendJSON(b)
			}
		}
		b = append(b, ']')
	}
	if len(rec.Hashes) > 0 {
		b = append(b, `,"hashes":[`...)
		for i, h := range rec.Hashes {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, h)
		}
		b = append(b, ']')
	}
	if rec.Trace != "" {
		b = wire.AppendString(append(b, `,"trace":`...), rec.Trace)
	}
	if rec.Cluster != "" {
		b = wire.AppendString(append(b, `,"cluster":`...), rec.Cluster)
	}
	return append(b, '}')
}

// DecodeRecord reads one record from r. io.EOF means a clean end;
// io.ErrUnexpectedEOF or a CRC/length violation means a torn or corrupt
// tail — the caller stops at the last valid record.
func DecodeRecord(r io.Reader) (Record, error) {
	var rec Record
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return rec, io.EOF
		}
		return rec, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordLen {
		return rec, io.ErrUnexpectedEOF
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return rec, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return rec, io.ErrUnexpectedEOF
	}
	rec, err := unmarshalRecord(payload)
	if err != nil {
		// The CRC passed, so the bytes are exactly what was written: this is
		// an encoder incompatibility, not a torn write, and hiding it would
		// silently drop acknowledged state.
		return rec, fmt.Errorf("store: record payload is valid but undecodable: %w", err)
	}
	return rec, nil
}

// unmarshalRecord decodes a record payload: in one pass when it is in the
// canonical wire subset (see decodeRecordWire), otherwise with
// encoding/json, which owns every error text.
func unmarshalRecord(payload []byte) (Record, error) {
	if rec, ok := decodeRecordWire(payload); ok {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// decodeRecordWire reads a record payload in the canonical wire subset:
// exact keys, each at most once, a seq of at most 18 digits with no sign,
// plain strings (package wire), and tasks in task.DecodeWire's subset. It
// reports false for any other payload, and for a task that fails
// validation.
func decodeRecordWire(payload []byte) (Record, bool) {
	s := wire.NewScanner(payload)
	var rec Record
	var seen keySet
	ok := s.Object(func(key []byte) bool {
		var ok bool
		switch {
		case string(key) == "seq" && seen.first(1):
			rec.Seq, ok = s.Uint()
		case string(key) == "op" && seen.first(2):
			rec.Op, ok = s.String()
		case string(key) == "name" && seen.first(4):
			rec.Name, ok = s.String()
		case string(key) == "tasks" && seen.first(8):
			rec.Tasks, ok = task.DecodeWireList(s)
		case string(key) == "hashes" && seen.first(16):
			rec.Hashes, ok = decodeStrings(s)
		case string(key) == "trace" && seen.first(32):
			rec.Trace, ok = s.String()
		case string(key) == "cluster" && seen.first(64):
			rec.Cluster, ok = s.String()
		}
		return ok
	})
	return rec, ok && s.End()
}

// keySet records which keys of an object a wire reader has read.
type keySet uint8

// first marks bit's key read and reports whether it was unread before.
func (k *keySet) first(bit keySet) bool {
	ok := *k&bit == 0
	*k |= bit
	return ok
}

// decodeStrings reads an array of plain strings.
func decodeStrings(s *wire.Scanner) ([]string, bool) {
	out := []string{} // encoding/json decodes [] to an empty slice
	ok := s.Array(func() bool {
		str, ok := s.String()
		out = append(out, str)
		return ok
	})
	return out, ok
}

// WAL is an append-only record log over one file. It is not safe for
// concurrent use; in the daemon every call comes from one shard's
// single-writer loop.
type WAL struct {
	f    *os.File
	w    *bufio.Writer
	path string
}

// OpenWAL opens (creating if absent) the log at path and returns every
// complete record. A torn tail — from a crash mid-append — is detected by the
// length/CRC framing, truncated away, and the valid prefix returned; the next
// append then continues from the last durable record.
func OpenWAL(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening wal: %w", err)
	}
	recs, end, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop any torn tail so the next append starts on a record boundary.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, w: bufio.NewWriter(f), path: path}
	if end == 0 {
		if _, err := w.w.Write(walMagic); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := w.Commit(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return w, recs, nil
}

// scanWAL reads the valid record prefix and reports the offset where it ends.
func scanWAL(f *os.File) ([]Record, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if info.Size() < int64(len(walMagic)) {
		// Empty or torn before the header finished: treat as a fresh log.
		return nil, 0, nil
	}
	r := bufio.NewReader(io.NewSectionReader(f, 0, info.Size()))
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, 0, nil
	}
	if !bytes.Equal(magic, walMagic) {
		return nil, 0, fmt.Errorf("store: %s is not a fedschedd WAL (bad magic %q)", f.Name(), magic)
	}
	var recs []Record
	end := int64(len(walMagic))
	for {
		var hdr [recordHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, end, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecordLen {
			return recs, end, nil // corrupt length prefix: torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, end, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return recs, end, nil // bit rot or torn write: stop at last valid record
		}
		rec, err := unmarshalRecord(payload)
		if err != nil {
			// CRC-valid but undecodable: an encoder incompatibility, not a
			// torn write; hiding it would silently drop acknowledged state.
			return nil, 0, fmt.Errorf("store: wal record at offset %d is valid but undecodable: %w", end, err)
		}
		end += int64(recordHeaderLen) + int64(n)
		recs = append(recs, rec)
	}
}

// ReadWAL reads the valid record prefix of the WAL at path without opening
// it for appends — unlike OpenWAL it never truncates a torn tail, so it is
// safe to point at a live shard's log. It returns the records and the number
// of trailing bytes after the last valid record (0 = clean tail). A file
// that was never a fedschedd WAL (bad magic) is refused.
func ReadWAL(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: opening wal: %w", err)
	}
	defer f.Close()
	recs, end, err := scanWAL(f)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	return recs, info.Size() - end, nil
}

// Append buffers rec; it is not durable until Commit returns.
func (w *WAL) Append(rec Record) error {
	buf, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("store: appending wal record %d: %w", rec.Seq, err)
	}
	return nil
}

// Commit makes every buffered append durable: flush, then fsync. Batched
// mutations append many records and pay one Commit.
func (w *WAL) Commit() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing wal: %w", err)
	}
	return nil
}

// Reset discards every record, leaving just the header — called after a
// snapshot has made the log's contents redundant. The truncation is synced
// before returning.
func (w *WAL) Reset() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("store: resetting wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	return w.f.Sync()
}

// Close flushes and closes the file. No final snapshot or marker is written:
// see the package comment — close must be crash-equivalent.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

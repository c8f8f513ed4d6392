package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fedsched/internal/task"
	"fedsched/internal/wire"
)

// snapshotFormat versions the on-disk snapshot encoding.
const snapshotFormat = 1

// snapshotFile is the snapshot's basename inside a shard directory.
const snapshotFile = "snapshot.json"

// Snapshot is the periodic checkpoint of a shard's installed system. It
// makes the WAL truncatable: recovery = snapshot + every WAL record with a
// later sequence number.
type Snapshot struct {
	// Format is snapshotFormat; an unknown value is refused on read.
	Format int `json:"format"`
	// Seq is the last mutation folded into this snapshot; WAL records with
	// Seq beyond it are replayed on top.
	Seq uint64 `json:"seq"`
	// M is the platform size the system was admitted against. A daemon
	// restarted with a different -m is refused: the recovered allocation
	// would silently differ from every verdict the shard ever served.
	M int `json:"m"`
	// Policy is the admission policy the system was admitted under ("" =
	// strict fedcons). A daemon restarted with a different -policy is refused
	// for the same reason as an M mismatch. omitempty keeps fedcons snapshots
	// byte-identical to the pre-policy format, so old snapshots read as "".
	Policy string `json:"policy,omitempty"`
	// MTypes are the per-type processor budgets of a typed platform
	// (-m-types). A daemon restarted with different budgets is refused for
	// the same reason as an M mismatch. omitempty keeps every other
	// snapshot byte-identical to the format before the key, so old
	// snapshots read as no budgets.
	MTypes []int `json:"mtypes,omitempty"`
	// Tasks is the installed system in installation order.
	Tasks task.System `json:"tasks"`
	// CacheKeys are the content hashes (core.TaskHash hex) of Tasks, index
	// aligned: the analysis-cache keys to prewarm — and integrity-check —
	// on recovery.
	CacheKeys []string `json:"cacheKeys"`
}

// EncodeSnapshot renders snap as indented JSON with a trailing newline — the
// exact bytes written to disk, pinned by a golden-file test.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if len(snap.CacheKeys) != len(snap.Tasks) {
		return nil, fmt.Errorf("store: snapshot has %d tasks but %d cache keys", len(snap.Tasks), len(snap.CacheKeys))
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeSnapshot parses and validates snapshot bytes. Input in the
// canonical wire subset (see decodeSnapshotWire) is read in one pass; any
// other goes through encoding/json, which owns every decoding error text.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	snap, ok := decodeSnapshotWire(data)
	if !ok {
		snap = new(Snapshot)
		if err := json.Unmarshal(data, snap); err != nil {
			return nil, fmt.Errorf("store: decoding snapshot: %w", err)
		}
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
	if len(snap.Tasks) > 0 { // the empty system (everything removed) is a legal checkpoint
		if err := snap.Tasks.Validate(); err != nil {
			return nil, fmt.Errorf("store: snapshot tasks: %w", err)
		}
	}
	return snap, nil
}

// decodeSnapshotWire reads a snapshot in the canonical wire subset: exact
// keys, each at most once, a seq of at most 18 digits with no sign, format,
// m and the mtypes entries no larger than int holds, plain strings (package wire), and tasks
// in task.DecodeWire's subset. It reports false for any other input, and
// for a task that fails validation. The checks after decoding are
// DecodeSnapshot's, whichever path ran.
func decodeSnapshotWire(data []byte) (*Snapshot, bool) {
	s := wire.NewScanner(data)
	snap := new(Snapshot)
	var seen keySet
	integer := func(dst *int) bool {
		x, ok := s.Int()
		*dst = int(x)
		return ok && int64(*dst) == x
	}
	ok := s.Object(func(key []byte) bool {
		var ok bool
		switch {
		case string(key) == "format" && seen.first(1):
			ok = integer(&snap.Format)
		case string(key) == "seq" && seen.first(2):
			snap.Seq, ok = s.Uint()
		case string(key) == "m" && seen.first(4):
			ok = integer(&snap.M)
		case string(key) == "policy" && seen.first(8):
			snap.Policy, ok = s.String()
		case string(key) == "mtypes" && seen.first(64):
			snap.MTypes = []int{} // encoding/json decodes [] to an empty slice
			ok = s.Array(func() bool {
				var x int
				ok := integer(&x)
				snap.MTypes = append(snap.MTypes, x)
				return ok
			})
		case string(key) == "tasks" && seen.first(16):
			snap.Tasks, ok = task.DecodeWireList(s)
		case string(key) == "cacheKeys" && seen.first(32):
			snap.CacheKeys, ok = decodeStrings(s)
		}
		return ok
	})
	return snap, ok && s.End()
}

// writeSnapshot atomically replaces dir's snapshot: write to a temp file,
// fsync it, rename over the old snapshot, fsync the directory. A crash at
// any point leaves either the old snapshot or the new one, never a torn mix.
func writeSnapshot(dir string, snap *Snapshot) error {
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapshotFile+".tmp-")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: fsyncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// readSnapshot loads dir's snapshot, or (nil, nil) when none exists yet.
func readSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

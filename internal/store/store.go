package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"fedsched/internal/task"
)

// DefaultSnapshotEvery is the default number of logged mutations between
// snapshots (and WAL truncations).
const DefaultSnapshotEvery = 256

// Store is one shard's durable state: a WAL of installed mutations plus a
// periodic snapshot. Mutations are not safe for concurrent use — every call
// comes from the owning shard's single-writer loop; Seq alone may be read
// concurrently (the metrics endpoint samples it).
type Store struct {
	dir       string
	mtypes    []int // per-type budgets recorded in every snapshot
	wal       *WAL
	seq       atomic.Uint64 // last logged mutation
	every     int           // mutations between snapshots
	sinceSnap int
}

// Recovery is the state reconstructed from snapshot+WAL at Open: the
// installed system in installation order, the logged content hash of each
// task (index aligned), the platform size it was admitted against (0 when
// nothing was ever snapshotted), and the last mutation sequence number.
type Recovery struct {
	Tasks  task.System
	Hashes []string
	M      int
	Policy string // admission policy recorded in the snapshot ("" = fedcons)
	MTypes []int  // per-type processor budgets recorded in the snapshot
	Seq    uint64
}

// Open loads (creating if needed) the shard store in dir and replays
// snapshot+WAL into a Recovery. snapshotEvery ≤ 0 selects
// DefaultSnapshotEvery.
func Open(dir string, snapshotEvery int) (*Store, *Recovery, error) {
	if snapshotEvery <= 0 {
		snapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	wal, recs, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, nil, err
	}
	rec, err := replay(snap, recs)
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	st := &Store{dir: dir, wal: wal, every: snapshotEvery}
	st.seq.Store(rec.Seq)
	return st, rec, nil
}

// replay folds WAL records on top of the snapshot. Records at or before the
// snapshot's sequence are skipped (a crash between snapshot install and WAL
// reset leaves such records behind); the rest must be consecutive.
func replay(snap *Snapshot, recs []Record) (*Recovery, error) {
	rec := &Recovery{}
	if snap != nil {
		rec.Tasks = snap.Tasks.Clone()
		rec.Hashes = append([]string(nil), snap.CacheKeys...)
		rec.M = snap.M
		rec.Policy = snap.Policy
		rec.MTypes = snap.MTypes
		rec.Seq = snap.Seq
	}
	byName := make(map[string]int, len(rec.Tasks))
	for i, tk := range rec.Tasks {
		byName[tk.Name] = i
	}
	for _, r := range recs {
		if r.Seq <= rec.Seq {
			continue
		}
		if r.Seq != rec.Seq+1 {
			return nil, fmt.Errorf("store: wal gap: record %d follows %d", r.Seq, rec.Seq)
		}
		switch r.Op {
		case OpAdmit:
			if len(r.Hashes) != len(r.Tasks) {
				return nil, fmt.Errorf("store: wal record %d has %d tasks but %d hashes", r.Seq, len(r.Tasks), len(r.Hashes))
			}
			for i, tk := range r.Tasks {
				if tk == nil || tk.Name == "" {
					return nil, fmt.Errorf("store: wal record %d admits an unnamed task", r.Seq)
				}
				if _, dup := byName[tk.Name]; dup {
					return nil, fmt.Errorf("store: wal record %d re-admits installed task %q", r.Seq, tk.Name)
				}
				byName[tk.Name] = len(rec.Tasks)
				rec.Tasks = append(rec.Tasks, tk)
				rec.Hashes = append(rec.Hashes, r.Hashes[i])
			}
		case OpRemove:
			i, ok := byName[r.Name]
			if !ok {
				return nil, fmt.Errorf("store: wal record %d removes unknown task %q", r.Seq, r.Name)
			}
			rec.Tasks = append(rec.Tasks[:i], rec.Tasks[i+1:]...)
			rec.Hashes = append(rec.Hashes[:i], rec.Hashes[i+1:]...)
			delete(byName, r.Name)
			for name, j := range byName {
				if j > i {
					byName[name] = j - 1
				}
			}
		default:
			return nil, fmt.Errorf("store: wal record %d has unknown op %q", r.Seq, r.Op)
		}
		rec.Seq = r.Seq
	}
	return rec, nil
}

// LogAdmit makes an admission (single or atomic batch) durable: one record,
// one fsync. hashes are the content hashes of tks, index aligned. trace and
// cluster annotate the record for post-hoc forensics and may be empty.
func (s *Store) LogAdmit(tks []*task.DAGTask, hashes []string, trace, cluster string) error {
	if len(tks) != len(hashes) {
		return fmt.Errorf("store: %d tasks with %d hashes", len(tks), len(hashes))
	}
	return s.log(Record{Seq: s.seq.Load() + 1, Op: OpAdmit, Tasks: tks, Hashes: hashes, Trace: trace, Cluster: cluster})
}

// LogRemove makes a removal durable.
func (s *Store) LogRemove(name, trace, cluster string) error {
	return s.log(Record{Seq: s.seq.Load() + 1, Op: OpRemove, Name: name, Trace: trace, Cluster: cluster})
}

func (s *Store) log(rec Record) error {
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	if err := s.wal.Commit(); err != nil {
		return err
	}
	s.seq.Store(rec.Seq)
	s.sinceSnap++
	return nil
}

// MaybeSnapshot checkpoints the installed system once enough mutations have
// accumulated, then truncates the WAL. Called after a mutation is installed;
// sys/keys must be the state including that mutation. Reports whether a
// snapshot was written.
func (s *Store) MaybeSnapshot(sys task.System, keys []string, m int, policy string) (bool, error) {
	if s.sinceSnap < s.every {
		return false, nil
	}
	return true, s.Snapshot(sys, keys, m, policy)
}

// SetMTypes sets the per-type processor budgets every later snapshot
// records beside m and the policy (none by default).
func (s *Store) SetMTypes(mtypes []int) { s.mtypes = mtypes }

// Snapshot unconditionally checkpoints the installed system and truncates
// the WAL.
func (s *Store) Snapshot(sys task.System, keys []string, m int, policy string) error {
	snap := &Snapshot{Format: snapshotFormat, Seq: s.seq.Load(), M: m, Policy: policy, MTypes: s.mtypes, Tasks: sys, CacheKeys: keys}
	if err := writeSnapshot(s.dir, snap); err != nil {
		return err
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.sinceSnap = 0
	return nil
}

// Seq returns the last logged mutation sequence number. Safe to call
// concurrently with mutations.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// Close closes the WAL. Deliberately no final snapshot: closing must remain
// crash-equivalent so the replay path is the only recovery path.
func (s *Store) Close() error { return s.wal.Close() }

// Package wal gives the serving stack crash-safety: every accepted feedback
// record is appended to a checksummed, length-prefixed write-ahead log
// before it is applied to the histogram, and periodic checkpoints atomically
// rotate a histogram snapshot plus a fresh (empty) log segment so the tail
// that must be replayed after a crash stays short.
//
// Directory layout (one directory per table):
//
//	MANIFEST                  commit record: which checkpoint/segment are live
//	checkpoint-%08d.snap      histogram snapshot (sthist.SaveHistogram JSON)
//	wal-%08d.log              append-only segment of framed feedback records
//
// The MANIFEST is replaced by write-temp + fsync + rename + fsync(dir), so a
// crash anywhere during a checkpoint leaves the previous (checkpoint,
// segment) pair intact and fully replayable: rotation is all-or-nothing.
// Segment frames carry CRC-32 checksums; a torn final record (the crash
// interrupted an append) is detected and dropped, and replay stops at the
// first corrupt frame: nothing after it is trusted.
//
// All filesystem access goes through faultfs.FS, so the fault-injection
// tests can fail, short-write, or corrupt any single operation and verify
// the protocol's atomicity.
package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"sthist/internal/faultfs"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is lost
	// to a crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: an OS crash can lose the last few
	// records (a process crash cannot — the data is in the page cache).
	SyncNever
)

// Options configures Open.
type Options struct {
	// FS is the filesystem implementation; nil means the real one.
	FS faultfs.FS
	// Sync is the append fsync policy.
	Sync SyncPolicy
	// Observer, when non-nil, receives a timing callback per durability
	// operation. Callbacks run synchronously under the log's lock and must
	// not re-enter the Log.
	Observer Observer
}

// Observer receives the durability-path timings the telemetry plane exports:
// how long appends, fsyncs and checkpoint rotations take, and whether they
// failed. internal/telemetry's WALMetrics satisfies this interface.
type Observer interface {
	// ObserveAppend reports one record append (framing + write, excluding
	// the fsync, which is reported separately).
	ObserveAppend(d time.Duration, err error)
	// ObserveSync reports one append-path fsync.
	ObserveSync(d time.Duration, err error)
	// ObserveCheckpoint reports one checkpoint rotation attempt.
	ObserveCheckpoint(d time.Duration, err error)
}

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// Snapshot is the last durable checkpoint (nil when none was taken).
	Snapshot []byte
	// SnapshotErr is set when the manifest names a checkpoint that could not
	// be read. The caller decides whether to fail or rebuild from scratch.
	SnapshotErr error
	// Records is the replayable WAL tail: every feedback accepted after the
	// snapshot, in order.
	Records []Record
	// Torn reports that the segment ended in a torn or corrupt frame, which
	// was dropped with everything after it (expected after a crash
	// mid-append).
	Torn bool
}

// manifest is the JSON commit record.
type manifest struct {
	Version    int    `json:"version"`
	Gen        uint64 `json:"gen"`
	Checkpoint string `json:"checkpoint,omitempty"`
	WAL        string `json:"wal"`
	LastSeq    uint64 `json:"last_seq"`
}

const (
	manifestName = "MANIFEST"
	// manifestTmp is where RestoreArchive stages a shipped manifest before
	// renaming it into place.
	manifestTmp = manifestName + ".tmp"
)

func segName(gen uint64) string  { return fmt.Sprintf("wal-%08d.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("checkpoint-%08d.snap", gen) }

// Log is one table's write-ahead log. Methods are safe for concurrent use,
// though callers that need append/checkpoint ordering with respect to
// histogram mutation must provide their own outer lock.
type Log struct {
	mu      sync.Mutex
	fs      faultfs.FS   // immutable after Open
	dir     string       // immutable after Open
	opts    Options      // immutable after Open
	f       faultfs.File // active segment, append mode; guarded by mu
	seg     string       // active segment file name; guarded by mu
	snap    string       // live checkpoint file name ("" when none); guarded by mu
	gen     uint64       // guarded by mu
	lastSeq uint64       // guarded by mu
	err     error        // sticky append-path error, cleared by Checkpoint; guarded by mu
	buf     []byte       // frame scratch; guarded by mu
}

// Open opens (creating if needed) the log directory and reconstructs the
// durable state: the last checkpoint snapshot plus the replayable segment
// tail. The returned Log appends to the live segment, truncating a torn
// tail first so new frames start at a clean boundary.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{fs: fsys, dir: dir, opts: opts}
	rec := &Recovery{}

	mdata, err := faultfs.ReadFile(fsys, l.path(manifestName))
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(mdata, &m); jerr != nil {
			return nil, nil, fmt.Errorf("wal: corrupt manifest in %s: %w", dir, jerr)
		}
		l.gen, l.seg, l.snap, l.lastSeq = m.Gen, m.WAL, m.Checkpoint, m.LastSeq
		if l.snap != "" {
			snap, serr := faultfs.ReadFile(fsys, l.path(l.snap))
			if serr != nil {
				rec.SnapshotErr = serr
			} else {
				rec.Snapshot = snap
			}
		}
		data, rerr := faultfs.ReadFile(fsys, l.path(l.seg))
		if rerr != nil && !os.IsNotExist(rerr) {
			return nil, nil, fmt.Errorf("wal: reading segment %s: %w", l.seg, rerr)
		}
		var cleanLen int64
		rec.Records, cleanLen, rec.Torn = Replay(data)
		if n := len(rec.Records); n > 0 && rec.Records[n-1].Seq > l.lastSeq {
			l.lastSeq = rec.Records[n-1].Seq
		}
		if cleanLen < int64(len(data)) {
			// Drop the torn/corrupt tail so appends resume at a frame
			// boundary.
			if terr := fsys.Truncate(l.path(l.seg), cleanLen); terr != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", l.seg, terr)
			}
		}
		// Reopen for append without O_CREATE when the segment exists, so a
		// healthy reopen performs no mutating filesystem operations.
		flags := os.O_WRONLY | os.O_APPEND
		if os.IsNotExist(rerr) {
			flags |= os.O_CREATE
		}
		f, oerr := fsys.OpenFile(l.path(l.seg), flags, 0o644)
		if oerr != nil {
			return nil, nil, fmt.Errorf("wal: opening segment %s: %w", l.seg, oerr)
		}
		l.f = f

	case os.IsNotExist(err):
		// Fresh directory: create segment 1 and commit a manifest for it.
		l.gen, l.seg = 1, segName(1)
		f, cerr := fsys.OpenFile(l.path(l.seg), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if cerr != nil {
			return nil, nil, fmt.Errorf("wal: creating segment: %w", cerr)
		}
		l.f = f
		if werr := l.writeManifestLocked(); werr != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: committing initial manifest: %w", werr)
		}

	default:
		return nil, nil, fmt.Errorf("wal: reading manifest: %w", err)
	}
	return l, rec, nil
}

func (l *Log) path(name string) string { return l.dir + string(os.PathSeparator) + name }

// writeManifestLocked atomically replaces MANIFEST with the current state.
// The caller holds l.mu (or, in Open, exclusively owns the un-published Log).
func (l *Log) writeManifestLocked() error {
	m := manifest{Version: 1, Gen: l.gen, Checkpoint: l.snap, WAL: l.seg, LastSeq: l.lastSeq}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return l.atomicWrite(manifestName, data)
}

// atomicWrite writes name via temp file + fsync + rename + dir fsync.
func (l *Log) atomicWrite(name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := l.fs.OpenFile(l.path(tmp), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(l.path(tmp), l.path(name)); err != nil {
		return err
	}
	return l.fs.SyncDir(l.dir)
}

// Append frames r, writes it to the active segment and (per policy) fsyncs.
// The record's sequence number is assigned by the log — the passed Seq is
// ignored — and returned. After a write or sync failure the segment's tail
// integrity is unknown, so the error is sticky: further Appends fail until
// a successful Checkpoint rotates to a fresh segment.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var one [1]Record
	one[0] = r
	seq, _, err := l.appendBatchLocked(one[:])
	return seq, err
}

// Timings is what one AppendBatch spent on each durability stage: Append
// covers framing and the write, Sync the fsync that followed. Appended and
// Synced report which stages ran; when AppendBatch fails, the last stage
// that ran is the one that failed.
type Timings struct {
	Append, Sync     time.Duration
	Appended, Synced bool
}

// AppendBatch is the group-commit primitive: it frames every record in recs,
// writes all frames to the active segment with a single Write, and performs
// at most one fsync for the whole batch (per policy). Sequence numbers are
// assigned contiguously by the log — recs[i] becomes firstSeq+i, and the
// passed Seq fields are ignored. An empty batch is a no-op. The returned
// Timings let a caller trace the batch's stages.
//
// On error nothing is acknowledged and the sticky-error rule applies
// exactly as for Append. As with a failed single append, a crash or write
// failure mid-batch can still leave a durable prefix of the batch's frames;
// recovery replays that prefix (and drops the torn frame that follows), so
// callers get at-least-once semantics either way. The Observer sees one
// ObserveAppend and at most one ObserveSync per batch — fsyncs-per-record
// under load is how group-commit effectiveness is measured.
func (l *Log) AppendBatch(recs []Record) (uint64, Timings, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendBatchLocked(recs)
}

func (l *Log) appendBatchLocked(recs []Record) (uint64, Timings, error) {
	var t Timings
	if len(recs) == 0 {
		return 0, t, nil
	}
	if l.err != nil {
		return 0, t, fmt.Errorf("wal: log is failed (checkpoint to recover): %w", l.err)
	}
	obs := l.opts.Observer
	firstSeq := l.lastSeq + 1
	start := time.Now()
	t.Appended = true
	buf := l.buf[:0]
	var err, werr error // werr, a failed write, is sticky; a framing error is not
	for i := range recs {
		r := recs[i]
		r.Seq = firstSeq + uint64(i)
		if buf, err = appendFrame(buf, r); err != nil {
			break
		}
	}
	if err == nil {
		l.buf = buf
		_, werr = l.f.Write(buf)
		err = werr
	}
	t.Append = time.Since(start)
	if obs != nil {
		obs.ObserveAppend(t.Append, err)
	}
	if werr != nil {
		l.err = werr
		return 0, t, fmt.Errorf("wal: append: %w", werr)
	}
	if err != nil {
		return 0, t, err
	}
	if l.opts.Sync == SyncAlways {
		start = time.Now()
		err = l.f.Sync()
		t.Sync, t.Synced = time.Since(start), true
		if obs != nil {
			obs.ObserveSync(t.Sync, err)
		}
		if err != nil {
			l.err = err
			return 0, t, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.lastSeq = firstSeq + uint64(len(recs)) - 1
	return firstSeq, t, nil
}

// Checkpoint makes snapshot the new recovery base and starts an empty
// segment, atomically: the manifest rename is the commit point, and until it
// happens recovery still sees the previous checkpoint plus the complete old
// segment. On success the previous checkpoint/segment files are deleted
// (best-effort) and any sticky append error is cleared — the snapshot
// captures the in-memory state the failed segment could not make durable.
func (l *Log) Checkpoint(snapshot []byte) (err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if obs := l.opts.Observer; obs != nil {
		start := time.Now()
		defer func() { obs.ObserveCheckpoint(time.Since(start), err) }()
	}
	newGen := l.gen + 1
	newSnap, newSeg := snapName(newGen), segName(newGen)

	if err := l.atomicWrite(newSnap, snapshot); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	f, err := l.fs.OpenFile(l.path(newSeg), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: syncing segment: %w", err)
	}

	oldSnap, oldSeg, oldGen := l.snap, l.seg, l.gen
	l.gen, l.snap, l.seg = newGen, newSnap, newSeg
	if err := l.writeManifestLocked(); err != nil {
		// Not committed: restore state, keep appending to the old segment.
		l.gen, l.snap, l.seg = oldGen, oldSnap, oldSeg
		_ = f.Close()
		return fmt.Errorf("wal: committing checkpoint: %w", err)
	}

	// Committed. Swap the active segment and clear any sticky error.
	if l.f != nil {
		_ = l.f.Close() // superseded segment; the new segment is already durable
	}
	l.f = f
	l.err = nil
	if oldSnap != "" {
		_ = l.fs.Remove(l.path(oldSnap)) // best-effort; stray files are ignored
	}
	if oldSeg != "" && oldSeg != newSeg {
		_ = l.fs.Remove(l.path(oldSeg))
	}
	return nil
}

// Err returns the sticky append-path error, or nil when the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// LastSeq returns the sequence number of the last durably appended record
// (monotonic across checkpoints and restarts).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

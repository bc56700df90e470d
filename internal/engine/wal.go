package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// ErrWALPoisoned marks the write-ahead log's sticky failure state: an fsync
// or unrecoverable append error left the set of durable frames unknowable,
// so no further commit may be acknowledged from this log. Every error the
// WAL returns after poisoning wraps this sentinel; the DB layer reacts by
// entering read-only degraded mode (see ErrReadOnly) rather than bricking
// the process. Recovery is operator-triggered: ReopenWAL snapshots the
// in-memory state durably and starts a fresh log.
var ErrWALPoisoned = errors.New("engine: wal poisoned")

// Write-ahead logging and crash recovery. Every committed DML statement is
// appended to a durable log as one record, sequenced by a log sequence
// number (LSN); a periodic checkpoint folds the log into a snapshot
// (temp-file + fsync + atomic rename) and retires the folded segments; boot
// replays the latest snapshot plus any surviving log records, skipping
// records the snapshot already covers (LSN idempotence) and tolerating a
// torn record at the tail of the last segment (a crash mid-append). The
// commit point is PR 2's per-table statement write lock: under it a
// statement validates and builds its effect, appends the WAL record, and
// only then installs the effect in memory — so a statement that errors to
// the client (validation or WAL failure) has no effect at all, and an
// acknowledged write is always either in the snapshot or in the log.

// WAL record kinds.
const (
	WALCreate  uint8 = iota + 1 // CREATE TABLE: Table + Schema
	WALDrop                     // DROP TABLE: Table
	WALInsert                   // committed INSERT batch: Table + Rows
	WALReplace                  // committed UPDATE/DELETE/bulk-load rebuild: Table + Cols
	WALLog                      // reserved: an earlier version's query-log batch, replayed as a bare LSN advance
	WALEpoch                    // leadership epoch transition: Epoch (replication failover)
)

// WALRecord is one committed statement in the write-ahead log. Exactly the
// fields implied by Kind are populated.
type WALRecord struct {
	LSN    int64
	Kind   uint8
	Table  string
	Schema Schema
	Rows   [][]Value
	Cols   []Column
	// Epoch is set only on WALEpoch records: the leadership generation that
	// begins at this LSN. Shipping the record in-band teaches every follower
	// the new epoch through the ordinary apply path.
	Epoch int64
}

// File-layout names inside a durable data directory.
const (
	snapshotFile = "snapshot.flk"
	walFile      = "wal.log"
	walSegSuffix = ".seg"
)

// walHeader opens every WAL file so a snapshot can never be mistaken for a
// log (and vice versa).
const walHeader = "FLKWAL01"

// frame layout: 4-byte little-endian payload length, 4-byte IEEE CRC32 of
// the payload, then the payload (a gob-encoded WALRecord). A short or
// CRC-mismatching frame marks the torn tail of a crashed append.
const frameHeaderLen = 8

// maxFrameLen bounds a single record so a corrupt length field cannot
// trigger a multi-gigabyte allocation during recovery.
const maxFrameLen = 1 << 30

// AppendFrame writes one length+CRC framed payload (shared by the WAL and
// the audit persistence in core).
func AppendFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrames streams framed payloads to fn until EOF. A truncated or
// corrupt frame stops iteration and reports torn=true: everything before
// the tear was intact, the tear itself is an unacknowledged partial append.
func ReadFrames(r io.Reader, fn func(payload []byte) error) (torn bool, err error) {
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return false, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return true, nil
			}
			return false, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxFrameLen {
			return true, nil
		}
		// Grow the payload as bytes actually arrive rather than trusting
		// the length field with an upfront make([]byte, n): a corrupt
		// header claiming a near-maxFrameLen frame on a short file must
		// read as a torn tail, not a gigabyte allocation.
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return true, nil
			}
			return false, err
		}
		payload := buf.Bytes()
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return true, nil
		}
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}

// WAL is an append-only, CRC-framed record log. Appends are serialized by
// the WAL's own mutex (commits to different tables run concurrently);
// durability per record is governed by the sync policy (fsync before the
// commit is acknowledged, or leave flushing to the OS).
//
// Under the sync policy, durability is group commit: committers append
// their frames under w.mu and then wait for the synced watermark to reach
// their LSN. The first waiter behind the watermark elects itself leader,
// snapshots the current append LSN, and performs ONE fsync that covers
// every frame written so far — the whole batch of concurrent committers —
// then wakes the others. N concurrent commits cost ~1 fsync instead of N,
// and the ack-after-sync invariant is unchanged: no commit returns before
// a Sync covering its frame has completed.
type WAL struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast when syncedLSN advances or the WAL fails
	f      *fault.File
	path   string
	sync   bool
	lsn    int64
	size   int64
	broken bool // a failed append could not be rolled back; refuse commits

	syncedLSN int64 // highest LSN covered by a completed fsync
	syncing   bool  // a leader's fsync is in flight
	syncErr   error // sticky fsync failure (fsync errors are not retryable)

	// watch, when non-nil, is closed (and discarded) the next time the
	// durable watermark advances or the WAL fails — the log shipper's
	// tailing wakeup (see DB.WatchDurable). Lazily created per wait round.
	watch chan struct{}

	groupSyncs   int64 // completed group-commit fsyncs
	groupRecords int64 // records those fsyncs covered

	// idx locates every frame of the live file and segs those of the
	// rotated segments not yet retired, oldest first, so the log shipper
	// reads a batch as one byte range instead of decoding its way to the
	// follower's LSN. Every WAL file on disk was written by this process
	// (OpenDirDB and rebases fold and retire whatever they find), so the
	// index is never rebuilt from disk and never persisted.
	idx  walIndex
	segs []walIndex
}

// walIndex locates the frames of one WAL file: frame base+i+1 (its 8-byte
// header, then its payload) occupies bytes [offs[i], offs[i+1]), so the
// last entry of offs is the end of the last indexed frame. Offsets are
// only ever appended, so a copy taken under w.mu stays valid to read
// while later appends extend the live index.
type walIndex struct {
	path string
	base int64 // the LSN before the file's first frame
	offs []int64
}

// last is the LSN of the file's last indexed frame (base when empty).
func (x *walIndex) last() int64 { return x.base + int64(len(x.offs)-1) }

// payloadLen is the payload length of the k-th indexed frame.
func (x *walIndex) payloadLen(k int64) int64 { return x.offs[k+1] - x.offs[k] - frameHeaderLen }

// createWAL creates (truncating) a fresh log file whose next record gets
// LSN startLSN+1.
func createWAL(path string, syncPolicy bool, startLSN int64) (*WAL, error) {
	raw, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("engine: wal: %w", err)
	}
	// All subsequent I/O goes through the "wal.*" failpoints so chaos
	// schedules can fail writes, fsyncs, and truncates deterministically.
	f := fault.NewFile(raw, "wal")
	if _, err := io.WriteString(f, walHeader); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("engine: wal: %w", err)
	}
	if syncPolicy {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("engine: wal: %w", err)
		}
	}
	size := int64(len(walHeader))
	w := &WAL{f: f, path: path, sync: syncPolicy, lsn: startLSN, syncedLSN: startLSN, size: size,
		idx: walIndex{path: path, base: startLSN, offs: []int64{size}}}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// appendFrame encodes rec (assigning the next LSN) and frames it into the
// log WITHOUT making it durable; the caller decides whether to wait on
// waitDurable. Callers hold the DB commit barrier in read mode plus the
// lock that orders the state involved (t.writeMu for a table, db.mu for
// DDL), so each record stream arrives in commit order; w.mu interleaves
// records from concurrent statements on different tables (which commute on
// replay) without tearing frames.
func (w *WAL) appendFrame(rec *WALRecord) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return 0, w.poisonedErrLocked()
	}
	var buf bytes.Buffer
	enc := &WALRecord{}
	*enc = *rec
	enc.LSN = w.lsn + 1
	if err := gob.NewEncoder(&buf).Encode(enc); err != nil {
		return 0, fmt.Errorf("engine: wal append: %w", err)
	}
	if buf.Len() > maxFrameLen {
		// Enforced on the write side too: a frame recovery would reject as
		// torn must never be acknowledged.
		return 0, fmt.Errorf("engine: wal append: record of %d bytes exceeds the %d-byte frame limit", buf.Len(), maxFrameLen)
	}
	if err := AppendFrame(w.f, buf.Bytes()); err != nil {
		// A partial frame mid-file would make recovery stop at the tear and
		// silently drop every later (acknowledged) record: rewind the file
		// to the last good frame boundary. If that fails, poison the WAL so
		// no further commit can be acknowledged after the garbage.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.poisonLocked(fmt.Errorf("engine: wal rewind after failed append: %w", terr))
		} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			w.poisonLocked(fmt.Errorf("engine: wal rewind after failed append: %w", serr))
		}
		return 0, fmt.Errorf("engine: wal append: %w", err)
	}
	w.lsn++
	rec.LSN = w.lsn
	w.size += int64(frameHeaderLen + buf.Len())
	w.idx.offs = append(w.idx.offs, w.size)
	if !w.sync {
		// Without the fsync policy the append position IS the durable
		// watermark: wake tailing shippers immediately.
		w.notifyLocked()
	}
	return w.lsn, nil
}

// poisonLocked (w.mu held) marks the WAL permanently failed: the set of
// durable frames is no longer knowable, so every pending and future commit
// must error instead of acking. The sticky error wraps ErrWALPoisoned so
// the DB layer can recognize it and degrade to read-only instead of
// failing opaquely.
func (w *WAL) poisonLocked(cause error) error {
	w.broken = true
	if w.syncErr == nil {
		w.syncErr = fmt.Errorf("%w: %w", ErrWALPoisoned, cause)
	}
	w.cond.Broadcast()
	w.notifyLocked()
	return w.syncErr
}

// notifyLocked (w.mu held) wakes durable-watermark watchers.
func (w *WAL) notifyLocked() {
	if w.watch != nil {
		close(w.watch)
		w.watch = nil
	}
}

// poisonedErrLocked (w.mu held) is the error commits see once the WAL is
// poisoned.
func (w *WAL) poisonedErrLocked() error {
	if w.syncErr != nil {
		return w.syncErr
	}
	return fmt.Errorf("%w: a previous append could not be rolled back; refusing commits", ErrWALPoisoned)
}

// poisoned reports the sticky failure, if any.
func (w *WAL) poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.broken && w.syncErr == nil {
		return nil
	}
	return w.poisonedErrLocked()
}

// waitDurable blocks until every frame up to lsn is covered by a completed
// fsync (the group-commit wait). The first waiter behind the watermark
// becomes the leader: it snapshots the append LSN, releases w.mu for the
// fsync itself (so more committers can append frames that the NEXT fsync
// will cover), and broadcasts the new watermark. A no-op when the sync
// policy is off. Callers hold the commit barrier in read mode — rotation
// (which swaps the file under an exclusive barrier) can therefore never
// overlap an in-flight leader fsync.
func (w *WAL) waitDurable(lsn int64) error {
	if !w.sync || lsn == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedLSN < lsn {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.f == nil {
			return fmt.Errorf("engine: wal closed before commit %d was durable", lsn)
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.lsn // every frame appended so far rides this fsync
		f := w.f
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			// The batch is not known durable and fsync failures are not
			// retryable (the page cache may already have dropped the dirty
			// pages): poison the WAL so no later commit can be acknowledged,
			// and fail every current waiter.
			return w.poisonLocked(fmt.Errorf("engine: wal sync: %w", err))
		}
		if target > w.syncedLSN {
			w.groupSyncs++
			w.groupRecords += target - w.syncedLSN
			w.syncedLSN = target
			w.notifyLocked()
		}
		w.cond.Broadcast()
	}
	return nil
}

// groupCommitStats reports completed group-commit fsyncs and the records
// they covered (the fsync-amortization gauge).
func (w *WAL) groupCommitStats() (syncs, records int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.groupSyncs, w.groupRecords
}

// segName is the rotated-segment name for a log holding records up to lsn;
// zero-padding keeps lexical order equal to LSN order.
func segName(lsn int64) string {
	return fmt.Sprintf("wal-%020d%s", lsn, walSegSuffix)
}

// segLSN parses the upper LSN out of a rotated segment name.
func segLSN(name string) (int64, bool) {
	name = strings.TrimSuffix(name, walSegSuffix)
	name = strings.TrimPrefix(name, "wal-")
	v, err := strconv.ParseInt(name, 10, 64)
	return v, err == nil
}

// rotate renames the live log to an LSN-stamped segment and starts a fresh
// one. The caller holds the commit barrier exclusively, so no append can
// race the swap.
func (w *WAL) rotate() (segment string, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return "", w.poisonedErrLocked()
	}
	if err := w.f.Sync(); err != nil {
		// Same rule as the group-commit path: a failed fsync means frames
		// behind the watermark are not known durable.
		return "", w.poisonLocked(fmt.Errorf("engine: wal rotate: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return "", w.poisonLocked(fmt.Errorf("engine: wal rotate: %w", err))
	}
	dir := filepath.Dir(w.path)
	segment = filepath.Join(dir, segName(w.lsn))
	if err := fault.Rename("checkpoint.rename", w.path, segment); err != nil {
		// The live file is already closed; without a successful rename +
		// fresh log there is nothing to append to.
		return "", w.poisonLocked(fmt.Errorf("engine: wal rotate: %w", err))
	}
	w.idx.path = segment
	w.segs = append(w.segs, w.idx)
	nw, err := createWAL(w.path, w.sync, w.lsn)
	if err != nil {
		return "", w.poisonLocked(fmt.Errorf("engine: wal rotate: %w", err))
	}
	w.f, w.size, w.idx = nw.f, nw.size, nw.idx
	// The pre-rotation Sync covered every frame in the old file.
	w.syncedLSN = w.lsn
	w.cond.Broadcast()
	w.notifyLocked()
	return segment, nil
}

// dropSegments forgets the index of every rotated segment whose frames
// all lie at or below upTo — the in-memory half of retireWAL.
func (w *WAL) dropSegments(upTo int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.segs[:0]
	for _, s := range w.segs {
		if s.last() > upTo {
			keep = append(keep, s)
		}
	}
	w.segs = keep
}

func (w *WAL) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.syncedLSN = w.lsn
	} else {
		// A failed final sync means frames behind the watermark are not
		// known durable: poison the WAL so any commit still racing toward
		// its durability wait errors instead of acking.
		w.poisonLocked(fmt.Errorf("engine: wal close: %w", err))
	}
	w.f = nil
	w.cond.Broadcast()
	w.notifyLocked()
	return err
}

// RecoveryInfo summarizes what boot-time recovery found and did.
type RecoveryInfo struct {
	SnapshotLoaded bool          // a snapshot file existed and was restored
	Segments       int           // WAL files replayed (segments + live log)
	Records        int           // records applied (after LSN skip)
	Skipped        int           // records the snapshot already covered
	TornTail       bool          // the last file ended in a torn record
	LSN            int64         // highest LSN after recovery
	Duration       time.Duration // wall time of the whole recovery
}

// OpenDirDB opens (or initializes) a durable database directory: it loads
// the latest snapshot, replays surviving WAL records in LSN order,
// consolidates the result into a fresh snapshot (so a crash loop cannot
// accumulate unbounded replay work), and attaches a fresh write-ahead log
// for subsequent commits. syncWAL selects the per-commit fsync policy.
func OpenDirDB(dir string, syncWAL bool) (*DB, RecoveryInfo, error) {
	start := time.Now()
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("engine: open dir: %w", err)
	}
	db := NewDB()

	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		lerr := db.LoadSnapshot(f)
		_ = f.Close()
		if lerr != nil {
			return nil, info, fmt.Errorf("engine: recovering %s: %w", snapPath, lerr)
		}
		info.SnapshotLoaded = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, info, fmt.Errorf("engine: open dir: %w", err)
	}

	// Replay rotated segments in LSN order, then the live log. A torn tail
	// is tolerated only on the final file: a tear in an earlier segment
	// would leave a sequencing gap, which is corruption, not a crash.
	files, err := walFilesInOrder(dir)
	if err != nil {
		return nil, info, err
	}
	for i, path := range files {
		if lsn, ok := segLSN(filepath.Base(path)); ok && lsn <= db.replayLSN {
			// The snapshot covers the whole segment (a checkpoint keeps the
			// interval it folded until the next one): nothing to apply.
			continue
		}
		applied, skipped, torn, err := db.replayWALFile(path)
		if err != nil {
			return nil, info, fmt.Errorf("engine: replaying %s: %w", path, err)
		}
		info.Segments++
		info.Records += applied
		info.Skipped += skipped
		if torn {
			if i != len(files)-1 {
				return nil, info, fmt.Errorf("engine: wal segment %s is torn mid-sequence (corrupt data directory)", path)
			}
			info.TornTail = true
		}
	}
	info.LSN = db.replayLSN

	// Consolidate: fold whatever we replayed into a durable snapshot so the
	// old segments can be retired before new commits arrive.
	if len(files) > 0 {
		if err := writeFileDurable(snapPath, "snapshot", db.buildSnapshot().encode); err != nil {
			return nil, info, err
		}
		if err := retireWAL(dir, retireAll); err != nil {
			return nil, info, err
		}
	}

	wal, err := createWAL(filepath.Join(dir, walFile), syncWAL, info.LSN)
	if err != nil {
		return nil, info, err
	}
	db.commitMu.Lock()
	db.wal = wal
	db.durDir = dir
	db.walSync = syncWAL
	db.commitMu.Unlock()
	// Everything at or below info.LSN is covered by the consolidated
	// snapshot (or by nothing, on a fresh directory where info.LSN is 0):
	// that is the shipping horizon until the next checkpoint moves it.
	db.walHorizon = info.LSN
	db.snapLSN = info.LSN
	// A directory that never recorded an epoch (fresh, or written before
	// epochs existed) starts at generation 1; a directory that lived through
	// a promotion recovered its epoch from the snapshot or a WALEpoch frame.
	if db.epoch.Load() == 0 {
		db.epoch.Store(1)
	}
	info.Duration = time.Since(start)
	return db, info, nil
}

// walFilesInOrder lists the data directory's WAL files oldest-first:
// LSN-stamped segments, then the live log.
func walFilesInOrder(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: open dir: %w", err)
	}
	var segs []string
	live := false
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, walSegSuffix) {
			if _, ok := segLSN(name); ok {
				segs = append(segs, name)
			}
		}
		if name == walFile {
			live = true
		}
	}
	sort.Strings(segs) // zero-padded LSNs: lexical == numeric order
	out := make([]string, 0, len(segs)+1)
	for _, s := range segs {
		out = append(out, filepath.Join(dir, s))
	}
	if live {
		out = append(out, filepath.Join(dir, walFile))
	}
	return out, nil
}

// replayWALFile applies one log file's records to the database.
func (db *DB) replayWALFile(path string) (applied, skipped int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer func() { _ = f.Close() }()
	return db.ReplayWAL(f)
}

// ReplayWAL applies a WAL stream (header + frames) to the database,
// skipping records at or below the already-applied LSN — replaying the
// same log twice is a no-op. It reports the applied/skipped record counts
// and whether the stream ended in a torn record.
func (db *DB) ReplayWAL(r io.Reader) (applied, skipped int, torn bool, err error) {
	torn, err = readWAL(r, func(rec *WALRecord, _ []byte) error {
		if rec.LSN <= db.replayLSN {
			skipped++
			return nil
		}
		if err := db.applyWALRecord(rec); err != nil {
			return err
		}
		applied++
		return nil
	})
	return applied, skipped, torn, err
}

// readWAL is boot replay's reader of WAL files (the log shipper reads by
// the WAL's frame index instead, see ReadWALSince): it checks the header,
// then hands each intact frame's decoded record and raw payload to fn. It reports whether the stream ended in a
// torn frame; an empty or torn header reads as a torn empty log (nothing
// was ever logged).
func readWAL(r io.Reader, fn func(rec *WALRecord, payload []byte) error) (torn bool, err error) {
	hdr := make([]byte, len(walHeader))
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return true, nil
		}
		return false, err
	}
	if string(hdr) != walHeader {
		return false, fmt.Errorf("engine: not a WAL file (bad header)")
	}
	return ReadFrames(r, func(payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		return fn(&rec, payload)
	})
}

// decodeWALRecord decodes one frame payload — from a log file or a shipped
// batch — into its record.
func decodeWALRecord(payload []byte) (WALRecord, error) {
	var rec WALRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return rec, fmt.Errorf("engine: wal decode: %w", err)
	}
	return rec, nil
}

// applyWALRecord re-executes one committed statement's physical effect
// through non-logging install primitives (which bump versions and record
// time-travel history exactly as the original commit did, but never write
// the WAL). Two callers share it: boot replay, single-threaded before the
// WAL is attached, and the replica apply path, where the frame was already
// appended verbatim at the leader's LSN — in both, re-logging would either
// double the record or assign it a divergent LSN.
func (db *DB) applyWALRecord(rec *WALRecord) error {
	switch rec.Kind {
	case WALCreate:
		if err := db.installCreate(rec.Table, rec.Schema); err != nil {
			return err
		}
	case WALDrop:
		if err := db.installDrop(rec.Table); err != nil {
			return err
		}
	case WALInsert:
		t, err := db.Table(rec.Table)
		if err != nil {
			return err
		}
		if err := t.appendRows(rec.Rows); err != nil {
			return err
		}
	case WALReplace:
		t, err := db.Table(rec.Table)
		if err != nil {
			return err
		}
		if err := t.replaceColumns(rec.Cols); err != nil {
			return err
		}
	case WALLog:
		// A query-log batch from a directory or leader of an earlier
		// version: it installs nothing and only advances the LSN.
	case WALEpoch:
		// The epoch check precedes the LSN bookkeeping: a transition record
		// from a stale generation must never move this node's epoch backward.
		if rec.Epoch <= 0 {
			return fmt.Errorf("engine: wal epoch record without epoch (lsn %d)", rec.LSN)
		}
		if cur := db.epoch.Load(); rec.Epoch < cur {
			return fmt.Errorf("%w: wal epoch record %d below current epoch %d (lsn %d)", ErrStaleEpoch, rec.Epoch, cur, rec.LSN)
		} else if rec.Epoch > cur {
			db.epoch.Store(rec.Epoch)
			db.epochStart.Store(rec.LSN - 1)
		}
	default:
		return fmt.Errorf("engine: unknown wal record kind %d (lsn %d)", rec.Kind, rec.LSN)
	}
	db.replayLSN = rec.LSN
	return nil
}

// Checkpoint folds the write-ahead log into the snapshot: under the commit
// barrier it captures the database state (column headers, not copies: see
// buildSnapshotLocked) and rotates the live log, then (outside the
// barrier) writes the snapshot durably — temp file, fsync, atomic rename,
// directory fsync — and retires the segments the previous snapshot
// folded. The segments this checkpoint folded stay one more interval, so a
// follower that lags by less than one checkpoint interval catches up from
// the log instead of bootstrapping. A crash at any point leaves a
// recoverable directory: until the rename lands, the old snapshot plus the
// rotated segments reconstruct the same state; after it, replay skips the
// folded records by LSN.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.commitMu.Lock()
	w := db.wal
	if w == nil || db.durDir == "" {
		db.commitMu.Unlock()
		return fmt.Errorf("engine: Checkpoint requires a database opened with OpenDirDB")
	}
	snap := db.buildSnapshotLocked()
	_, err := w.rotate()
	db.commitMu.Unlock()
	if err != nil {
		// A failed rotation poisons the WAL (the live file may already be
		// closed); make the degradation visible instead of just erroring.
		db.noteWALErr(err)
		return err
	}

	if err := writeFileDurable(filepath.Join(db.durDir, snapshotFile), "snapshot", snap.encode); err != nil {
		return err
	}
	// Frames at or below the previous snapshot's LSN leave the log:
	// followers behind that point must bootstrap from the snapshot instead
	// (ckptMu is held throughout, so no ReadWALSince can observe the horizon
	// ahead of the retirement). The live log holds only newer commits and
	// stays.
	prev := db.snapLSN
	db.snapLSN = snap.LSN
	db.walHorizon = prev
	w.dropSegments(prev)
	return retireWAL(db.durDir, prev)
}

// rebaseLocked makes a freshly published snapshot the data directory's
// whole history — the one transition behind ReopenWAL, PromoteToLeader and
// BootstrapReplica. In order it:
//
//  1. publishes the snapshot, covering every record up to lsn, by running
//     write under writeFileDurable with the point failpoints;
//  2. discards the old log;
//  3. runs install, which adopts in-memory state that must match the
//     snapshot (nil when memory already does);
//  4. retires every log file;
//  5. starts a fresh wal.log whose next record is lsn+1.
//
// A failed publish changes nothing. Past it the old log is gone, so a later
// failure degrades the DB to read-only — acked state is safe in the
// snapshot — and a retry of the caller heals it. The caller holds ckptMu
// and commitMu exclusively.
func (db *DB) rebaseLocked(lsn int64, point string, write func(io.Writer) error, install func()) error {
	if err := writeFileDurable(filepath.Join(db.durDir, snapshotFile), point, write); err != nil {
		return err
	}
	if db.wal != nil {
		db.wal.discard()
	}
	if install != nil {
		install()
	}
	err := retireWAL(db.durDir, retireAll)
	var w *WAL
	if err == nil {
		w, err = createWAL(filepath.Join(db.durDir, walFile), db.walSync, lsn)
	}
	if err != nil {
		db.noteWALErr(fmt.Errorf("%w: no fresh log after the snapshot at LSN %d: %w", ErrWALPoisoned, lsn, err))
		return err
	}
	db.wal = w
	db.retiredWAL = nil
	db.replayLSN = lsn
	db.walHorizon = lsn
	db.snapLSN = lsn
	db.degraded.Store(nil)
	return nil
}

// retireAll is the retireWAL bound that retires the live log as well.
const retireAll = math.MaxInt64

// retireWAL deletes the data directory's log files whose records a durable
// snapshot already holds: every rotated segment named at or below upTo, and
// the live log only under retireAll (its records have no upper bound). The
// first failure is returned: a log file that outlives its fold is replayed
// by the next boot on top of a snapshot it does not belong to.
func retireWAL(dir string, upTo int64) error {
	files, err := walFilesInOrder(dir)
	if err != nil {
		return err
	}
	for _, path := range files {
		lsn, ok := segLSN(filepath.Base(path))
		if !ok {
			lsn = retireAll // the live log
		}
		if lsn > upTo {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("engine: retiring %s: %w", path, err)
		}
	}
	return nil
}

// writeFileDurable writes a file crash-safely: write fills a temp file in
// the same directory, which is fsynced, closed and atomically renamed over
// path, and then the directory is fsynced. Every step rides the point.*
// failpoints (point.write, .fsync, .close, .rename, .dirsync), and until
// the rename lands path keeps its old content.
func writeFileDurable(path, point string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	raw, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("engine: writing %s: %w", filepath.Base(path), err)
	}
	tmp := fault.NewFile(raw, point)
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fault.Rename(point+".rename", raw.Name(), path)
	}
	if err != nil {
		_ = os.Remove(raw.Name())
		return fmt.Errorf("engine: writing %s: %w", filepath.Base(path), err)
	}
	// Make the rename itself durable; best-effort where the platform does
	// not support directory fsync.
	_ = fault.SyncDir(point+".dirsync", dir)
	return nil
}

// WALSizeBytes reports the live log's current size (a /metrics gauge).
func (db *DB) WALSizeBytes() int64 {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return 0
	}
	db.wal.mu.Lock()
	defer db.wal.mu.Unlock()
	return db.wal.size
}

// LastLSN reports the highest assigned log sequence number.
func (db *DB) LastLSN() int64 {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return db.replayLSN
	}
	db.wal.mu.Lock()
	defer db.wal.mu.Unlock()
	return db.wal.lsn
}

// CloseDurability flushes and closes the write-ahead log (final shutdown;
// typically preceded by a Checkpoint). The database remains usable but
// subsequent commits are no longer logged.
func (db *DB) CloseDurability() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.close()
	db.retiredWAL = db.wal
	db.wal = nil
	return err
}

// walAppend logs one committed DDL record and blocks for its durability
// inline (rare, and already serialized on db.mu). Lock order: the caller's
// db.mu (or, on the DML path, t.writeMu) ranks above the WAL's w.mu;
// commitMu (read side) is held throughout. No-op without an attached WAL.
func (db *DB) walAppend(rec *WALRecord) error {
	if db.wal == nil {
		return nil
	}
	lsn, err := db.wal.appendFrame(rec)
	if err == nil {
		err = db.wal.waitDurable(lsn)
	}
	db.noteWALErr(err)
	if err == nil {
		// Quorum acks ride the DDL path inline (rare, already serialized):
		// the record is locally durable, now wait for follower acks.
		err = db.waitCommitGate(rec.LSN)
	}
	return err
}

// walAppendFrame frames one committed record without waiting for
// durability (the DML commit path: frame under the statement lock, wait
// after releasing it). No-op without an attached WAL.
func (db *DB) walAppendFrame(rec *WALRecord) error {
	if db.wal == nil {
		return nil
	}
	_, err := db.wal.appendFrame(rec)
	db.noteWALErr(err)
	return err
}

// walWaitDurable blocks until the frame at lsn is covered by a group-commit
// fsync; the statement must not be acknowledged before this returns nil.
// Holding the commit barrier in read mode here keeps checkpoint rotation
// from overlapping an in-flight leader fsync. A commit racing
// CloseDurability resolves against the retired WAL: the close's final sync
// either covered its frame (ack) or failed (the WAL is poisoned and the
// commit errors) — never a silent ack without a completed sync.
func (db *DB) walWaitDurable(lsn int64) error {
	if lsn == 0 {
		return nil
	}
	db.commitMu.RLock()
	w := db.wal
	if w == nil {
		w = db.retiredWAL
	}
	if w == nil {
		db.commitMu.RUnlock()
		return nil
	}
	err := w.waitDurable(lsn)
	db.noteWALErr(err)
	db.commitMu.RUnlock()
	if err != nil {
		return err
	}
	// The commit gate (quorum replication acks) runs OUTSIDE the commit
	// barrier: a slow follower must delay acks, not block checkpoints.
	return db.waitCommitGate(lsn)
}

// WALGroupCommitStats reports completed group-commit fsyncs and the records
// they covered; records/syncs is the live fsync-amortization factor
// exported as flock_wal_group_commit_batch.
func (db *DB) WALGroupCommitStats() (syncs, records int64) {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return 0, 0
	}
	return db.wal.groupCommitStats()
}

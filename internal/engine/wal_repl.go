package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Replication hooks over the write-ahead log. The WAL is already a
// physical replication log — CRC-framed, LSN-sequenced, torn-tail
// tolerant — so leader/follower replication is log shipping: a leader
// reads committed frames back out of its own segments and live log
// (ReadWALSince), a follower appends each shipped frame to its own WAL at
// the leader's LSN and installs it through the replay primitives
// (ApplyReplicated), and both sides agree on exactly one sequence of
// frames. Nothing past the durable watermark is ever shipped: a frame the
// leader could still lose in a crash must not exist on a follower, or
// resume-from-LSN would diverge.

// ErrWALTruncated reports that a requested LSN predates the oldest frame
// still on disk: a checkpoint folded it into the snapshot. The caller
// (the log-shipping service) turns this into "bootstrap from a snapshot".
var ErrWALTruncated = errors.New("engine: wal truncated: requested LSN predates the oldest retained frame")

// ErrNotReplica guards the replica-only entry points.
var ErrNotReplica = errors.New("engine: not a replica (SetReplicaMode was never called)")

// replicaState records the leader this database replicates from.
type replicaState struct{ leader string }

// SetReplicaMode marks the database a read-only replica of leader: every
// local write fails fast with ErrReadOnly, and the only mutations accepted
// are shipped WAL frames through ApplyReplicated / BootstrapReplica.
// Local statements are still recorded in the in-memory query log (local
// provenance) but never WAL-logged — the replica's WAL holds exactly the
// leader's frame sequence, nothing else, so its LSNs stay aligned with the
// leader's.
func (db *DB) SetReplicaMode(leader string) {
	db.replica.Store(&replicaState{leader: leader})
}

// IsReplica reports whether this database is a read-only replica.
func (db *DB) IsReplica() bool { return db.replica.Load() != nil }

// ReplicaSource reports the leader address ("" when not a replica).
func (db *DB) ReplicaSource() string {
	if s := db.replica.Load(); s != nil {
		return s.leader
	}
	return ""
}

// SetCommitGate installs a hook invoked after a committed statement's frame
// is locally durable and before the commit is acknowledged to the client —
// the quorum-ack seam. The gate is called outside the commit barrier with
// the statement's LSN; returning an error fails the ack (the write is
// locally durable and installed: an ambiguous commit, exactly like a
// response lost on the wire). Pass nil to remove the gate.
func (db *DB) SetCommitGate(gate func(lsn int64) error) {
	if gate == nil {
		db.commitGate.Store(nil)
		return
	}
	db.commitGate.Store(&gate)
}

// waitCommitGate runs the installed commit gate, if any.
func (db *DB) waitCommitGate(lsn int64) error {
	g := db.commitGate.Load()
	if g == nil || lsn == 0 {
		return nil
	}
	replGateWaits.Add(1)
	return (*g)(lsn)
}

// DurableLSN reports the highest LSN known durable: the group-commit
// watermark under the fsync policy, the append position when flushing is
// left to the OS (where "durable" means "handed to the kernel" and a
// crash loses the tail on both leader and follower alike).
func (db *DB) DurableLSN() int64 {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return db.replayLSN
	}
	w := db.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sync {
		return w.lsn
	}
	return w.syncedLSN
}

// WatchDurable returns the current durable watermark and a channel closed
// the next time it advances (or the WAL fails/closes, so waiters re-check
// instead of hanging) — the log shipper's tailing primitive.
func (db *DB) WatchDurable() (int64, <-chan struct{}) {
	closed := make(chan struct{})
	close(closed)
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return db.replayLSN, closed
	}
	w := db.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || w.broken {
		lsn := w.syncedLSN
		if !w.sync {
			lsn = w.lsn
		}
		return lsn, closed
	}
	if w.watch == nil {
		w.watch = make(chan struct{})
	}
	if !w.sync {
		return w.lsn, w.watch
	}
	return w.syncedLSN, w.watch
}

// SyncWALTo forces an fsync covering every frame up to lsn WITHOUT running
// the commit gate — the shipper's flush for the non-durable tail (query-log
// frames never force an fsync of their own), and the follower's batch
// durability wait. Running the gate here would deadlock the quorum path:
// the shipper would wait for acks it is itself responsible for producing.
func (db *DB) SyncWALTo(lsn int64) error {
	if lsn == 0 {
		return nil
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	w := db.wal
	if w == nil {
		w = db.retiredWAL
	}
	if w == nil {
		return nil
	}
	err := w.waitDurable(lsn)
	db.noteWALErr(err)
	return err
}

// WALHorizon reports the lowest LSN still readable from disk + 1's
// predecessor: frames with LSN <= horizon were folded into the snapshot and
// are gone. A follower behind the horizon must bootstrap from the snapshot.
func (db *DB) WALHorizon() int64 {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.walHorizon
}

// errStopRead is the internal sentinel that ends a bounded ReadWALSince
// scan early (watermark or byte budget reached).
var errStopRead = errors.New("engine: stop wal read")

// ReadWALSince streams committed, durable WAL frames with LSNs in
// (fromLSN, DurableLSN()] to fn in order, stopping after ~maxBytes of
// payload (at least one frame is always delivered when available). It
// returns the last LSN delivered and the durable watermark observed.
//
// fn receives the raw frame payload (the gob-encoded record, exactly the
// bytes on disk) and must not block: the scan holds the checkpoint lock so
// rotation cannot retire a segment mid-read — buffer, then transmit.
//
// A fromLSN older than the horizon returns ErrWALTruncated (the frames were
// folded into the snapshot; ship the snapshot instead). A gap or a tear
// anywhere below the durable watermark is corruption and errors loudly.
func (db *DB) ReadWALSince(fromLSN int64, maxBytes int, fn func(lsn int64, payload []byte) error) (last int64, durable int64, err error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.durDir == "" {
		return 0, 0, fmt.Errorf("engine: ReadWALSince requires a database opened with OpenDirDB")
	}
	durable = db.DurableLSN()
	if fromLSN < db.walHorizon {
		return 0, durable, fmt.Errorf("%w (from %d, horizon %d)", ErrWALTruncated, fromLSN, db.walHorizon)
	}
	if fromLSN >= durable {
		return fromLSN, durable, nil
	}
	files, err := walFilesInOrder(db.durDir)
	if err != nil {
		return 0, durable, err
	}
	last = fromLSN
	expect := fromLSN + 1
	sentBytes := 0
	for _, path := range files {
		if lsn, ok := segLSN(filepath.Base(path)); ok && lsn <= fromLSN {
			continue // the whole segment predates the request
		}
		f, err := os.Open(path)
		if err != nil {
			return last, durable, err
		}
		// A torn tail ends the file silently: frames past the durable
		// watermark may legitimately be mid-append.
		_, err = readWAL(f, func(rec *WALRecord, payload []byte) error {
			if rec.LSN <= fromLSN {
				return nil
			}
			if rec.LSN > durable {
				return errStopRead
			}
			if rec.LSN != expect {
				return fmt.Errorf("engine: wal gap: frame %d after %d", rec.LSN, expect-1)
			}
			if sentBytes > 0 && sentBytes+len(payload) > maxBytes {
				return errStopRead
			}
			if err := fn(rec.LSN, payload); err != nil {
				return err
			}
			last = rec.LSN
			expect++
			sentBytes += len(payload)
			return nil
		})
		_ = f.Close()
		if errors.Is(err, errStopRead) {
			return last, durable, nil
		}
		if err != nil {
			return last, durable, fmt.Errorf("engine: reading %s: %w", path, err)
		}
	}
	if last < durable {
		// Every file was scanned yet durable frames are missing: the
		// directory lost data (a torn or deleted segment mid-sequence).
		return last, durable, fmt.Errorf("engine: wal ends at %d but the durable watermark is %d (missing frames)", last, durable)
	}
	return last, durable, nil
}

// SnapshotForShip returns the on-disk snapshot (the follower bootstrap
// image) and the LSN it covers. Taken under the checkpoint lock so a
// concurrent checkpoint cannot swap the file mid-read; the bytes are
// buffered before return, so callers stream to slow followers without
// holding the lock.
func (db *DB) SnapshotForShip() ([]byte, int64, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.durDir == "" {
		return nil, 0, fmt.Errorf("engine: SnapshotForShip requires a database opened with OpenDirDB")
	}
	blob, err := os.ReadFile(filepath.Join(db.durDir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		// No checkpoint yet: the horizon is 0 and the whole history is
		// still in the log — the follower replicates from LSN 0 instead.
		return nil, 0, fmt.Errorf("engine: no snapshot on disk yet (replicate from LSN 0)")
	}
	if err != nil {
		return nil, 0, err
	}
	return blob, db.walHorizon, nil
}

// AppliedLSN reports the highest LSN applied on a replica (== its WAL
// position: every shipped frame is appended at the leader's LSN before its
// effect installs).
func (db *DB) AppliedLSN() int64 { return db.LastLSN() }

// ApplyReplicated applies one shipped WAL frame on a replica: append the
// raw payload to the local WAL at the leader's LSN, then install its effect
// through the replay primitives (versions, time-travel history, the query
// log — identical to the original commit). It does NOT wait for
// durability; the follower applies a batch and then calls SyncWALTo once,
// riding one fsync per shipped batch exactly like the leader's group
// commit. Re-shipping an already-applied frame is a no-op (resume
// overlap); a frame that skips ahead is a gap and errors.
func (db *DB) ApplyReplicated(payload []byte) (lsn int64, err error) {
	if !db.IsReplica() {
		return 0, ErrNotReplica
	}
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return 0, fmt.Errorf("engine: replicated frame: %w", err)
	}
	// The epoch gate runs before any LSN comparison: an epoch-transition
	// record from a superseded generation must never enter the local log,
	// not even as an "idempotent duplicate" — its LSN may collide with a
	// frame of the live lineage while carrying different history.
	if rec.Kind == WALEpoch && rec.Epoch < db.epoch.Load() {
		return 0, fmt.Errorf("%w: shipped epoch record %d below local epoch %d (lsn %d)", ErrStaleEpoch, rec.Epoch, db.epoch.Load(), rec.LSN)
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.wal == nil {
		return 0, fmt.Errorf("engine: replica has no attached WAL (open with OpenDirDB)")
	}
	cur := db.wal.currentLSN()
	if rec.LSN <= cur {
		return cur, nil // duplicate from a resume overlap: idempotent skip
	}
	if rec.LSN != cur+1 {
		return 0, fmt.Errorf("engine: replication gap: frame %d after %d (resume from %d)", rec.LSN, cur, cur)
	}
	if err := db.wal.appendRaw(payload, rec.LSN); err != nil {
		db.noteWALErr(err)
		return 0, err
	}
	if err := db.applyWALRecord(&rec); err != nil {
		// The frame is logged but its effect did not install: memory is now
		// behind the local WAL (a restart's replay would heal it, but until
		// then reads would serve a state no LSN describes). Degrade loudly.
		db.degraded.CompareAndSwap(nil, &degradedState{
			reason: fmt.Sprintf("replica apply failed at LSN %d: %v", rec.LSN, err),
			since:  time.Now(),
		})
		return 0, fmt.Errorf("engine: replica apply at LSN %d: %w", rec.LSN, err)
	}
	return rec.LSN, nil
}

// BootstrapReplica resets a replica from a leader snapshot stream (the
// recovery path when the leader's checkpoint horizon has passed the
// replica's position): validate and decode the snapshot into a scratch
// database, then rebase the data directory onto it (rebaseLocked): persist
// it as the local snapshot file, adopt the scratch state, retire the local
// WAL and segments, and start a fresh WAL at the snapshot's LSN. In-flight
// local reads keep serving the pre-bootstrap table versions they hold;
// new lookups see the rebased state.
func (db *DB) BootstrapReplica(snapshot []byte) error {
	if !db.IsReplica() {
		return ErrNotReplica
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.durDir == "" {
		return fmt.Errorf("engine: BootstrapReplica requires a database opened with OpenDirDB")
	}

	// All-or-nothing: decode into a scratch database first, so a corrupt or
	// truncated snapshot stream changes nothing.
	scratch := NewDB()
	if err := scratch.LoadSnapshot(bytes.NewReader(snapshot)); err != nil {
		return fmt.Errorf("engine: bootstrap: %w", err)
	}

	// Persist the image durably before adopting it, riding the bootstrap.*
	// failpoints: a crash mid-bootstrap must recover either the old state or
	// the new, never a mix. Every local log file goes, including a divergent
	// tail past the snapshot.
	write := func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	}
	adopt := func() {
		db.mu.Lock()
		db.tables = scratch.tables
		db.catalogGen.Add(1)
		db.mu.Unlock()
		db.logMu.Lock()
		db.log = scratch.log
		db.logSeq = scratch.logSeq
		db.logFramed = len(db.log)
		db.logMu.Unlock()
		// Adopt the snapshot's leadership generation: a bootstrap from a
		// post-promotion leader is exactly how a deposed node (its divergent
		// tail now discarded) rejoins the new lineage, so any fence clears.
		if e := scratch.epoch.Load(); e > 0 {
			db.epoch.Store(e)
			db.epochStart.Store(scratch.epochStart.Load())
		}
		db.fenced.Store(nil)
	}
	if err := db.rebaseLocked(scratch.replayLSN, "bootstrap", write, adopt); err != nil {
		return fmt.Errorf("engine: bootstrap: %w", err)
	}
	return nil
}

// currentLSN reads the append position under w.mu.
func (w *WAL) currentLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// appendRaw frames an already-encoded payload at exactly lsn — the replica
// apply path, which preserves the leader's LSNs instead of assigning local
// ones. Same rewind-on-failure discipline as appendFrame.
func (w *WAL) appendRaw(payload []byte, lsn int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return w.poisonedErrLocked()
	}
	if lsn != w.lsn+1 {
		return fmt.Errorf("engine: wal appendRaw: LSN %d does not follow %d", lsn, w.lsn)
	}
	if len(payload) > maxFrameLen {
		return fmt.Errorf("engine: wal appendRaw: frame of %d bytes exceeds the %d-byte limit", len(payload), maxFrameLen)
	}
	if err := AppendFrame(w.f, payload); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.poisonLocked(fmt.Errorf("engine: wal rewind after failed append: %w", terr))
		} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			w.poisonLocked(fmt.Errorf("engine: wal rewind after failed append: %w", serr))
		}
		return fmt.Errorf("engine: wal appendRaw: %w", err)
	}
	w.lsn = lsn
	w.size += int64(frameHeaderLen + len(payload))
	w.durableAppended++
	if !w.sync {
		w.notifyLocked()
	}
	return nil
}

// replGateCounter counts gate invocations for tests/metrics.
var replGateWaits atomic.Int64

// CommitGateWaits reports how many commits have waited on the commit gate
// (quorum acks) since process start.
func CommitGateWaits() int64 { return replGateWaits.Load() }

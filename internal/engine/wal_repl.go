package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
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

// WALHorizon reports the LSN before the oldest frame still on disk: frames
// with LSN <= horizon were folded into a snapshot and are gone. A checkpoint
// keeps one interval of log, so the horizon trails the snapshot's LSN by
// one checkpoint. A follower behind the horizon must bootstrap from the
// snapshot.
func (db *DB) WALHorizon() int64 {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.walHorizon
}

// SnapshotLSN reports the LSN the on-disk snapshot covers: where a follower
// that bootstraps from it lands.
func (db *DB) SnapshotLSN() int64 {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.snapLSN
}

// ReadWALSince streams committed, durable WAL frames with LSNs in
// (fromLSN, DurableLSN()] to fn in order, stopping after ~maxBytes of
// payload (at least one frame is always delivered when available). It
// returns the last LSN delivered and the durable watermark observed.
//
// One call reads from one file: the WAL's in-memory frame index locates
// frame fromLSN+1, and the batch — up to the durable watermark, the end of
// that file or the byte budget — is read as one byte range. Nothing is
// decoded and no frame at or below fromLSN is touched, so a call costs
// O(frames shipped), not O(log retained); a caller pages on from the
// returned LSN.
//
// fn receives the raw frame payload (the gob-encoded record, exactly the
// bytes on disk) and must not block: the read holds the checkpoint lock so
// rotation cannot retire a segment mid-read — buffer, then transmit.
//
// A fromLSN older than the horizon returns ErrWALTruncated (the frames were
// folded into the snapshot; ship the snapshot instead). A short read, a
// length that disagrees with the index, or a CRC mismatch below the durable
// watermark is corruption and errors loudly.
func (db *DB) ReadWALSince(fromLSN int64, maxBytes int, fn func(lsn int64, payload []byte) error) (last int64, durable int64, err error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.durDir == "" {
		return 0, 0, fmt.Errorf("engine: ReadWALSince requires a database opened with OpenDirDB")
	}
	db.commitMu.RLock()
	w := db.wal
	if w == nil {
		w = db.retiredWAL // closed, but its files are still on disk
	}
	durable, x, found := w.locate(fromLSN)
	db.commitMu.RUnlock()
	if fromLSN < db.walHorizon {
		return 0, durable, fmt.Errorf("%w (from %d, horizon %d)", ErrWALTruncated, fromLSN, db.walHorizon)
	}
	if fromLSN >= durable {
		return fromLSN, durable, nil
	}
	if !found {
		return fromLSN, durable, fmt.Errorf("engine: no retained wal file holds LSN %d (horizon %d, durable %d)", fromLSN+1, db.walHorizon, durable)
	}

	// Frames first..end-1 of x (LSNs x.base+first+1 ...) make the batch.
	first := fromLSN - x.base
	limit := min(durable, x.last()) - x.base
	end := first + 1
	for sent := x.payloadLen(first); end < limit; end++ {
		n := x.payloadLen(end)
		if sent+n > int64(maxBytes) {
			break
		}
		sent += n
	}
	buf := make([]byte, x.offs[end]-x.offs[first])
	f, err := os.Open(x.path)
	if err != nil {
		return fromLSN, durable, err
	}
	_, err = f.ReadAt(buf, x.offs[first])
	_ = f.Close()
	if err != nil {
		return fromLSN, durable, fmt.Errorf("engine: reading frames %d..%d of %s: %w", x.base+first+1, x.base+end, x.path, err)
	}
	last = fromLSN
	for k := first; k < end; k++ {
		frame := buf[x.offs[k]-x.offs[first] : x.offs[k+1]-x.offs[first]]
		payload := frame[frameHeaderLen:]
		lsn := x.base + k + 1
		if n := binary.LittleEndian.Uint32(frame[0:4]); int64(n) != int64(len(payload)) {
			return last, durable, fmt.Errorf("engine: wal frame %d in %s: length %d, index says %d (corrupt log)", lsn, x.path, n, len(payload))
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
			return last, durable, fmt.Errorf("engine: wal frame %d in %s fails its CRC (corrupt log)", lsn, x.path)
		}
		if err := fn(lsn, payload); err != nil {
			return last, durable, err
		}
		last = lsn
	}
	return last, durable, nil
}

// locate reports the durable watermark and the index of the file holding
// frame from+1 (found is false when no retained file does).
func (w *WAL) locate(from int64) (durable int64, x walIndex, found bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	durable = w.syncedLSN
	if !w.sync {
		durable = w.lsn
	}
	for _, s := range w.segs {
		if from >= s.base && from < s.last() {
			return durable, s, true
		}
	}
	if from >= w.idx.base && from < w.idx.last() {
		return durable, w.idx, true
	}
	return durable, walIndex{}, false
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
	return blob, db.snapLSN, nil
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
	w.idx.offs = append(w.idx.offs, w.size)
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

package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Graceful degradation. A poisoned write-ahead log (failed fsync, an append
// that could not be rolled back, a failed rotation) used to brick every
// subsequent commit with an opaque error while leaving the process
// nominally healthy. Instead the DB now transitions to an explicit
// read-only degraded mode: reads and cursor fetches keep serving from the
// in-memory state, writes fail fast with ErrReadOnly, and the serving
// layer surfaces the state through /readyz and the flock_degraded_mode /
// flock_wal_poisoned gauges. Recovery is operator-triggered: once the disk
// heals, ReopenWAL folds the current in-memory state into a fresh durable
// snapshot, discards the poisoned log, and re-enables writes.

// ErrReadOnly is returned by every write once the DB has degraded to
// read-only mode. It wraps the poison cause, so errors.Is(err, ErrReadOnly)
// and errors.Is(err, ErrWALPoisoned) both hold for WAL-driven degradation.
var ErrReadOnly = errors.New("engine: database is in read-only degraded mode")

// degradedState records why and when the DB degraded.
type degradedState struct {
	reason string
	since  time.Time
}

// Degraded reports whether the DB is in read-only degraded mode and why.
func (db *DB) Degraded() (bool, string) {
	s := db.degraded.Load()
	if s == nil {
		return false, ""
	}
	return true, s.reason
}

// DegradedSince reports when the DB degraded (zero time when healthy).
func (db *DB) DegradedSince() time.Time {
	s := db.degraded.Load()
	if s == nil {
		return time.Time{}
	}
	return s.since
}

// checkWritable is the write-path gate: nil when healthy, a fast typed
// error once degraded. One atomic load on the happy path.
func (db *DB) checkWritable() error {
	if r := db.replica.Load(); r != nil {
		return fmt.Errorf("%w: read-only replica of %s; route writes to the leader", ErrReadOnly, r.leader)
	}
	if f := db.fenced.Load(); f != nil {
		return fmt.Errorf("%w: a newer leader at epoch %d was observed via %s; this deposed leader cannot ack writes (repoint it to the new leader)", ErrFenced, f.observed, f.source)
	}
	s := db.degraded.Load()
	if s == nil {
		return nil
	}
	return fmt.Errorf("%w (%s); reads still serve, writes resume after a successful ReopenWAL", ErrReadOnly, s.reason)
}

// noteWALErr inspects an error from a WAL operation and, when it carries
// the poison sentinel, transitions the DB to degraded mode (idempotent;
// first cause wins).
func (db *DB) noteWALErr(err error) {
	if err == nil || !errors.Is(err, ErrWALPoisoned) {
		return
	}
	db.degraded.CompareAndSwap(nil, &degradedState{
		reason: strings.TrimSpace(err.Error()),
		since:  time.Now(),
	})
}

// ReopenWAL recovers a degraded database back to read-write once the
// underlying fault (full disk, failed device) is resolved: under an
// exclusive commit barrier it writes the current in-memory state — which
// contains every acknowledged write, plus any installed-but-unacked
// statements whose clients saw errors — as a fresh durable snapshot and
// rebases the data directory onto it (rebaseLocked): the poisoned log and
// any segments are retired and a fresh WAL continues the LSN sequence. On
// failure (the disk is still bad) the DB stays degraded and the error
// explains why.
//
// Also valid on a healthy DB, where it is equivalent to a checkpoint that
// additionally swaps the log file.
func (db *DB) ReopenWAL() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.durDir == "" {
		return fmt.Errorf("engine: ReopenWAL requires a database opened with OpenDirDB")
	}
	if f := db.fenced.Load(); f != nil {
		// Fencing is terminal by design: an operator "fixing" a deposed
		// leader with a reopen would put two writable nodes on one lineage.
		return fmt.Errorf("%w: reopen refused; a newer leader at epoch %d exists (observed via %s) — repoint this node to it instead", ErrFenced, f.observed, f.source)
	}

	// The snapshot is built from memory, not from the poisoned log: memory
	// holds a superset of every durably acked statement (commit order is
	// install-then-ack), so folding it durably loses nothing.
	snap := db.buildSnapshotLocked()
	if err := db.rebaseLocked(snap.LSN, "snapshot", snap.encode, nil); err != nil {
		return fmt.Errorf("engine: reopen: %w", err)
	}
	return nil
}

// discard closes the underlying file ignoring errors and leaves the WAL
// poisoned — the rebase's teardown, where the log's content is already
// superseded by a freshly written snapshot.
func (w *WAL) discard() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		_ = w.f.File.Close()
		w.f = nil
	}
	w.broken = true
	if w.syncErr == nil {
		w.syncErr = fmt.Errorf("%w: log discarded by a snapshot rebase", ErrWALPoisoned)
	}
	w.cond.Broadcast()
	w.notifyLocked()
}

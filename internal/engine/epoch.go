package engine

import (
	"errors"
	"fmt"
	"time"
)

// Leadership epochs and fencing. Replication failover needs every node to
// know which leadership generation a WAL record belongs to: the epoch is a
// monotonically increasing counter bumped by each promotion, persisted in
// snapshot metadata and as an in-band WALEpoch record, and stamped on
// every shipped batch and ack by the repl layer. Two rules keep exactly
// one writable lineage alive:
//
//  1. A node that observes a higher epoch than its own is deposed: Fence
//     flips it into a terminal read-only state that ReopenWAL refuses to
//     clear — only adopting the new lineage (DemoteToReplica or a
//     bootstrap from the new leader's snapshot) does.
//  2. Frames from a stale epoch are never applied: ErrStaleEpoch is the
//     typed rejection, checked before any LSN comparison.

// ErrStaleEpoch reports a replication message or record from a superseded
// leadership generation.
var ErrStaleEpoch = errors.New("engine: stale replication epoch")

// ErrFenced wraps ErrReadOnly: a fenced node is read-only like a degraded
// one, but the condition is terminal until the node rejoins the new
// leader's lineage. errors.Is(err, ErrReadOnly) holds for fenced errors.
var ErrFenced = fmt.Errorf("%w: fenced", ErrReadOnly)

// fencedState records the higher epoch this deposed leader observed.
type fencedState struct {
	observed int64
	source   string
	since    time.Time
}

// Epoch reports the leadership generation this node's log belongs to
// (0 only before OpenDirDB ran on the database).
func (db *DB) Epoch() int64 { return db.epoch.Load() }

// EpochStart reports the last LSN of the previous epoch: frames at or
// below it are shared history across the promotion that started the
// current epoch, frames above it belong to the current generation.
func (db *DB) EpochStart() int64 { return db.epochStart.Load() }

// Fence deposes this node: it observed observedEpoch (strictly above its
// own epoch) from source, so a newer leader exists and this node must
// never acknowledge another write. Idempotent; the first observation wins.
// A no-op when observedEpoch does not actually exceed the local epoch.
func (db *DB) Fence(observedEpoch int64, source string) {
	if observedEpoch <= db.epoch.Load() {
		return
	}
	db.fenced.CompareAndSwap(nil, &fencedState{
		observed: observedEpoch,
		source:   source,
		since:    time.Now(),
	})
}

// Fenced reports whether this node is fenced, and if so the higher epoch
// it observed and where.
func (db *DB) Fenced() (bool, int64, string) {
	f := db.fenced.Load()
	if f == nil {
		return false, 0, ""
	}
	return true, f.observed, f.source
}

// PromoteToLeader turns a replica into the leader of a new epoch: under an
// exclusive commit barrier it folds the replayed state — which contains
// every frame the old leader shipped, a superset of every quorum-acked
// write — into a fresh durable snapshot stamped epoch+1, rebases the data
// directory onto it through the same rebaseLocked as ReopenWAL (old log
// retired, a fresh WAL continuing the LSN sequence), appends a durable
// WALEpoch record so the transition ships in-band to other followers, and
// opens the write gate by leaving replica mode. Returns the new epoch.
//
// On failure the node stays a read-only replica: at most one writable node
// exists under any schedule, including a crash mid-promotion (recovery
// lands on either the old follower state or the fully promoted one).
func (db *DB) PromoteToLeader() (int64, error) {
	if !db.IsReplica() {
		return 0, fmt.Errorf("engine: promote: not a replica (already a leader?)")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.durDir == "" {
		return 0, fmt.Errorf("engine: promote requires a database opened with OpenDirDB")
	}

	// The new generation supersedes everything this node has seen: its own
	// epoch, and any higher epoch it may have observed while fenced.
	newEpoch := db.epoch.Load() + 1
	if f := db.fenced.Load(); f != nil && f.observed >= newEpoch {
		newEpoch = f.observed + 1
	}

	// The fold point is the last LSN of the old epoch: frames above it (the
	// WALEpoch record and everything after) belong to the new generation.
	snap := db.buildSnapshotLocked()
	snap.Epoch = newEpoch
	snap.EpochStart = snap.LSN
	// A failure past the fold leaves a degraded read-only replica, never a
	// half-promoted leader.
	if err := db.rebaseLocked(snap.LSN, "snapshot", snap.encode, nil); err != nil {
		return 0, fmt.Errorf("engine: promote: %w", err)
	}

	// The epoch record is the first frame of the new generation. It must be
	// durable before the node leads: a leader whose own epoch transition
	// could vanish in a crash would resurrect at the old epoch, unfenced.
	lsn, err := db.wal.appendFrame(&WALRecord{Kind: WALEpoch, Epoch: newEpoch})
	if err == nil {
		err = db.wal.waitDurable(lsn)
	}
	if err != nil {
		db.noteWALErr(err)
		return 0, fmt.Errorf("engine: promote: epoch record: %w", err)
	}

	db.epoch.Store(newEpoch)
	db.epochStart.Store(snap.EpochStart)
	db.fenced.Store(nil)
	db.replica.Store(nil) // the write gate opens last: everything above is in place
	return newEpoch, nil
}

// DemoteToReplica turns this node (typically a fenced ex-leader) into a
// read-only replica of leader: replica mode guards writes from here on,
// and the fence clears — the node is rejoining the new lineage. Its
// divergent unreplicated tail, if any, is handled by the new leader's
// (epoch, LSN) comparison on the first ship request: a tail past the
// promotion point draws a typed divergence rejection that routes the
// follower through a snapshot bootstrap, which discards the tail.
func (db *DB) DemoteToReplica(leader string) {
	db.replica.Store(&replicaState{leader: leader})
	db.fenced.Store(nil)
}

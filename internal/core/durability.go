package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/governance"
)

// Crash-safe durability for a served Flock instance: engine.OpenDirDB
// recovers tables, time-travel history and (through the system table)
// every deployed model; this file adds the audit chain — the one record of
// executed statements, which lazy provenance capture reads, persisted as
// its own append-only frame stream since tamper evidence wants an
// independent medium — and the background checkpointer that folds the WAL
// into snapshots while the server runs.

// auditFile holds the persisted audit chain inside the data directory.
const auditFile = "audit.log"

// DurabilityOptions tunes OpenDir.
type DurabilityOptions struct {
	// WALSync fsyncs every committed DML record before it is acknowledged
	// (the default in flock-serve); disabled, durability degrades to
	// OS-buffered writes in exchange for write latency.
	WALSync bool
}

// Durability owns a Flock's data directory: the recovery report, the audit
// persistence hook, and the checkpoint lifecycle (manual, periodic, and
// final-on-shutdown).
type Durability struct {
	db  *engine.DB
	dir string

	auditMu  sync.Mutex
	auditF   *fault.File
	auditEnc *auditEncoder
	auditErr error // first audit-persistence failure (surfaced on Close)

	mu             sync.Mutex
	recovery       engine.RecoveryInfo
	lastCheckpoint time.Time
	checkpoints    int64

	stopOnce  sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
	closeErr  error
}

// OpenDir opens (or initializes) a durable Flock in dir: it recovers the
// engine state (snapshot + WAL replay), rebuilds the model registry from
// the recovered system table, restores the audit chain, and wires every
// subsequent commit and audit record back into the directory. The caller
// runs the returned Durability's checkpointer (Run) and must Close it on
// shutdown for a final checkpoint.
func OpenDir(dir string, opts DurabilityOptions) (*Flock, *Durability, error) {
	return openDir(dir, opts, "")
}

// OpenDirReplica opens dir as a read-only replica of the leader at
// leaderURL: identical recovery (snapshot + WAL replay restores whatever
// frames were already shipped), but the engine is placed in replica mode
// before the facade assembles — writes fail fast with engine.ErrReadOnly,
// the model system table is never created locally (the leader's own create
// arrives as a shipped frame), and the only accepted mutations are
// replicated frames. The audit chain stays per-node: a replica audits its
// own read traffic into its own audit.log.
func OpenDirReplica(dir, leaderURL string, opts DurabilityOptions) (*Flock, *Durability, error) {
	if leaderURL == "" {
		return nil, nil, fmt.Errorf("core: OpenDirReplica requires a leader URL")
	}
	return openDir(dir, opts, leaderURL)
}

func openDir(dir string, opts DurabilityOptions, replicaOf string) (*Flock, *Durability, error) {
	db, info, err := engine.OpenDirDB(dir, opts.WALSync)
	if err != nil {
		return nil, nil, err
	}
	if replicaOf != "" {
		db.SetReplicaMode(replicaOf)
	}
	f, err := newFromDB(db)
	if err != nil {
		db.CloseDurability()
		return nil, nil, err
	}

	d := &Durability{
		db:             db,
		dir:            dir,
		recovery:       info,
		lastCheckpoint: time.Now(), // recovery consolidates into a fresh snapshot
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	close(d.done) // Run replaces it; Close must not block when Run never ran

	auditPath := filepath.Join(dir, auditFile)
	entries, err := readAuditEntries(auditPath)
	if err != nil {
		db.CloseDurability()
		return nil, nil, fmt.Errorf("core: recovering audit log: %w", err)
	}
	if err := f.Audit.Restore(entries); err != nil {
		db.CloseDurability()
		return nil, nil, err
	}
	af, err := os.OpenFile(auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		db.CloseDurability()
		return nil, nil, fmt.Errorf("core: opening audit log: %w", err)
	}
	d.auditEnc, err = newAuditEncoder()
	if err != nil {
		_ = af.Close()
		db.CloseDurability()
		return nil, nil, fmt.Errorf("core: audit encoder: %w", err)
	}
	// Audit I/O rides the "audit.*" failpoints: a new durability file
	// must never be invisible to the chaos plane.
	d.auditF = fault.NewFile(af, "audit")
	f.Audit.SetSink(d.appendAudit)
	return f, d, nil
}

// appendAudit persists one audit entry (called under the audit log's lock,
// in chain order) as one synchronous frame, so the record reaches the file
// before the statement's result reaches the client. Failures are
// remembered rather than propagated — the audit API has no error channel —
// and surfaced by Close.
func (d *Durability) appendAudit(e governance.AuditEntry) {
	d.auditMu.Lock()
	defer d.auditMu.Unlock()
	if d.auditF == nil || d.auditErr != nil {
		return
	}
	payload, err := d.auditEnc.encode(&e)
	if err == nil {
		err = engine.AppendFrame(d.auditF, payload)
	}
	if err != nil {
		d.auditErr = err
	}
}

// auditEncoder produces each audit frame's payload — exactly the bytes a
// fresh gob.Encoder writes for one AuditEntry: the type header, then the
// value — without paying to build the type header again per entry. It
// keeps one encoder, which sends the header once, and the header's bytes,
// which it writes in front of every value. Frames stay self-contained, so
// readAuditEntries decodes each with a fresh decoder, as it always has.
type auditEncoder struct {
	buf    bytes.Buffer
	enc    *gob.Encoder
	header []byte
}

// newAuditEncoder primes the encoder: it encodes a zero entry twice, and
// since the second value is the first one's bytes without the header, the
// header is the first 2*first - second bytes.
func newAuditEncoder() (*auditEncoder, error) {
	a := &auditEncoder{}
	a.enc = gob.NewEncoder(&a.buf)
	var zero governance.AuditEntry
	if err := a.enc.Encode(&zero); err != nil {
		return nil, err
	}
	first := a.buf.Len()
	if err := a.enc.Encode(&zero); err != nil {
		return nil, err
	}
	a.header = append([]byte(nil), a.buf.Bytes()[:2*first-a.buf.Len()]...)
	return a, nil
}

// encode returns e's frame payload, valid until the next call.
func (a *auditEncoder) encode(e *governance.AuditEntry) ([]byte, error) {
	a.buf.Reset()
	a.buf.Write(a.header)
	if err := a.enc.Encode(e); err != nil {
		return nil, err
	}
	return a.buf.Bytes(), nil
}

// readAuditEntries loads the persisted audit chain; a missing file is an
// empty chain, and a torn final frame (crash mid-append) is dropped — the
// entry it held was never fully recorded.
func readAuditEntries(path string) ([]governance.AuditEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var out []governance.AuditEntry
	_, err = engine.ReadFrames(f, func(payload []byte) error {
		var e governance.AuditEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	return out, err
}

// Checkpoint folds the WAL into a fresh snapshot now.
func (d *Durability) Checkpoint() error {
	if err := d.db.Checkpoint(); err != nil {
		return err
	}
	d.auditMu.Lock()
	if d.auditF != nil {
		_ = d.auditF.Sync() // ride the checkpoint: audit tail becomes durable too
	}
	d.auditMu.Unlock()
	d.mu.Lock()
	d.lastCheckpoint = time.Now()
	d.checkpoints++
	d.mu.Unlock()
	return nil
}

// Reopen recovers a degraded (poisoned-WAL) instance back to read-write
// once the underlying disk fault is resolved: the engine folds the current
// in-memory state into a fresh durable snapshot, discards the poisoned log,
// and attaches a fresh WAL. Counted as a checkpoint — that is exactly what
// it is, plus a log swap. Safe (and a no-op beyond the fold) on a healthy
// instance.
func (d *Durability) Reopen() error {
	if err := d.db.ReopenWAL(); err != nil {
		return err
	}
	d.auditMu.Lock()
	if d.auditF != nil {
		_ = d.auditF.Sync()
	}
	d.auditMu.Unlock()
	d.mu.Lock()
	d.lastCheckpoint = time.Now()
	d.checkpoints++
	d.mu.Unlock()
	return nil
}

// Run starts the background checkpointer: every interval the WAL is folded
// into a snapshot, keeping both replay time and log size bounded. The loop
// stops at Close (which takes a final checkpoint itself).
func (d *Durability) Run(interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		return
	}
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := d.Checkpoint(); err != nil && onErr != nil {
					onErr(err)
				}
			case <-d.stop:
				return
			}
		}
	}()
}

// Close stops the checkpointer, takes a final checkpoint (the drain-time
// fold: a clean shutdown restarts from the snapshot alone), and closes the
// log files. Safe to call once; returns the first error encountered,
// including any deferred audit-persistence failure.
func (d *Durability) Close() error {
	d.closeOnce.Do(func() {
		d.stopOnce.Do(func() { close(d.stop) })
		<-d.done
		err := d.Checkpoint()
		if werr := d.db.CloseDurability(); err == nil {
			err = werr
		}
		d.auditMu.Lock()
		if d.auditF != nil {
			if serr := d.auditF.Sync(); err == nil {
				err = serr
			}
			if cerr := d.auditF.Close(); err == nil {
				err = cerr
			}
			d.auditF = nil
		}
		if err == nil {
			err = d.auditErr
		}
		d.auditMu.Unlock()
		d.closeErr = err
	})
	return d.closeErr
}

// Recovery reports what boot-time recovery found.
func (d *Durability) Recovery() engine.RecoveryInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovery
}

// Gauges exports the durability state for /metrics: live WAL size, age of
// the last checkpoint, total checkpoints taken, and how long boot-time
// recovery took (plus how many WAL records it replayed).
func (d *Durability) Gauges() map[string]float64 {
	d.mu.Lock()
	age := time.Since(d.lastCheckpoint).Seconds()
	ckpts := float64(d.checkpoints)
	rec := d.recovery
	d.mu.Unlock()
	degraded, poisoned := 0.0, 0.0
	if down, _ := d.db.Degraded(); down {
		// Today the only degradation trigger is WAL poison, so the two
		// gauges move together; they are exported separately because future
		// triggers (replication divergence, read-only standby) will not be
		// poison-driven.
		degraded, poisoned = 1, 1
	}
	return map[string]float64{
		"flock_wal_bytes":               float64(d.db.WALSizeBytes()),
		"flock_checkpoint_age_seconds":  age,
		"flock_checkpoints_total":       ckpts,
		"flock_recovery_seconds":        rec.Duration.Seconds(),
		"flock_recovery_replay_records": float64(rec.Records),
		"flock_degraded_mode":           degraded,
		"flock_wal_poisoned":            poisoned,
	}
}

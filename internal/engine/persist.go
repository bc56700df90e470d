package engine

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Durable snapshots: the engine serializes every table (schema, data,
// version counter, retained time-travel history) and the query log to a
// single stream, and restores them into an empty database — the durability
// half of the paper's call for "query, lineage-tracking and storage
// technology that can cover heterogeneous, versioned, and durable data".
// Model blobs live in the registry's system table, so a snapshot +
// ModelRegistry.LoadPersisted is a full recovery.
//
// Format v2 adds the retained history (time travel survives restarts) and
// the WAL sequence number the snapshot covers (recovery replays only newer
// records). v1 snapshots still load, with an empty history.

const snapshotMagic = "FLKD"

// savedVersion is one retained historical table version.
type savedVersion struct {
	Version int64
	Cols    []Column
	Rows    int
}

type savedTable struct {
	Name    string
	Schema  Schema
	Cols    []Column
	Version int64
	History []savedVersion
	Retain  int
}

type savedDB struct {
	FormatVersion int
	Tables        []savedTable
	Log           []LogEntry
	LogSeq        int64
	LSN           int64
	// Epoch and EpochStart carry the replication leadership generation
	// across restarts and follower bootstraps. Gob leaves them zero when
	// decoding a pre-epoch snapshot; OpenDirDB then defaults the epoch to 1.
	Epoch      int64
	EpochStart int64
}

// buildSnapshot captures the whole database under the commit barrier.
func (db *DB) buildSnapshot() savedDB {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	return db.buildSnapshotLocked()
}

// buildSnapshotLocked assembles every table, a copy of the query log and
// the covered LSN. The caller holds commitMu exclusively, so no statement
// can commit between any two reads: the log, each table, and cross-table
// state are captured at one instant (a torn snapshot whose log and data
// disagree — or whose tables are from different moments — cannot be
// produced). Tables are captured as column headers, current ones truncated
// at the committed row count, and not copied: a committed row range is
// never written again (appends land past it, UPDATE clones the column,
// DELETE gathers a new one), so the snapshot can be encoded after the
// barrier is released.
func (db *DB) buildSnapshotLocked() savedDB {
	db.logMu.Lock()
	snap := savedDB{
		FormatVersion: 2,
		Log:           append([]LogEntry(nil), db.log...),
		LogSeq:        db.logSeq,
		LSN:           db.replayLSN,
		Epoch:         db.epoch.Load(),
		EpochStart:    db.epochStart.Load(),
	}
	db.logMu.Unlock()
	db.mu.RLock()
	if db.wal != nil {
		snap.LSN = db.wal.lsn // quiesced: appenders hold commitMu in read mode
	}
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()

	for _, t := range tables {
		t.mu.RLock()
		st := savedTable{Name: t.Name, Schema: t.schema, Version: t.version, Retain: t.retain, Cols: t.currentLocked()}
		for _, h := range t.history {
			st.History = append(st.History, savedVersion{Version: h.version, Rows: h.rows, Cols: h.cols})
		}
		t.mu.RUnlock()
		snap.Tables = append(snap.Tables, st)
	}
	return snap
}

// encode writes the snapshot stream: magic, then the gob-encoded image.
func (snap savedDB) encode(w io.Writer) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return fmt.Errorf("engine: SaveSnapshot: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("engine: SaveSnapshot: %w", err)
	}
	return nil
}

// SaveSnapshot writes a durable snapshot of all tables (including retained
// time-travel history) and the query log. The copy is taken under the
// statement-level commit barrier, so concurrent DML cannot tear it; the
// encoding happens after the barrier is released.
func (db *DB) SaveSnapshot(w io.Writer) error {
	return db.buildSnapshot().encode(w)
}

// checkSavedCols validates decoded columns against a schema: count, types,
// and a uniform row count.
func checkSavedCols(schema Schema, cols []Column, wantRows int) error {
	if len(cols) != len(schema) {
		return fmt.Errorf("%d columns for %d schema entries", len(cols), len(schema))
	}
	for i, c := range cols {
		if c.Type != schema[i].Type {
			return fmt.Errorf("column %s: type %s, want %s", schema[i].Name, c.Type, schema[i].Type)
		}
		if c.Len() != wantRows {
			return fmt.Errorf("column %s: %d rows, want %d", schema[i].Name, c.Len(), wantRows)
		}
	}
	return nil
}

// tableFromSaved rebuilds one table (data, version counter, history) from
// its decoded form, validating everything before the table is published.
func tableFromSaved(st savedTable, formatVersion int) (*Table, error) {
	t := NewTable(st.Name, st.Schema)
	t.zones = extendZones(st.Cols, zoneMap{})
	if err := checkSavedCols(t.schema, st.Cols, t.zones.rows); err != nil {
		return nil, fmt.Errorf("table %s: %w", st.Name, err)
	}
	t.cols = st.Cols
	t.version = st.Version
	if formatVersion >= 2 {
		t.retain = st.Retain
	}
	for _, h := range st.History {
		if err := checkSavedCols(t.schema, h.Cols, h.Rows); err != nil {
			return nil, fmt.Errorf("table %s version %d: %w", st.Name, h.Version, err)
		}
		t.history = append(t.history, tableSnapshot{version: h.Version, cols: h.Cols, rows: h.Rows})
	}
	t.trimHistoryLocked() // t is unpublished; no lock needed yet
	return t, nil
}

// LoadSnapshot restores a snapshot into this (empty) database. The restore
// is all-or-nothing: every table is decoded and validated before anything
// is installed, so a corrupt snapshot leaves the database empty and a
// retry (with a good snapshot) succeeds.
func (db *DB) LoadSnapshot(r io.Reader) error {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("engine: LoadSnapshot: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("engine: LoadSnapshot: bad magic (not a snapshot)")
	}
	var snap savedDB
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("engine: LoadSnapshot: %w", err)
	}
	if snap.FormatVersion != 1 && snap.FormatVersion != 2 {
		return fmt.Errorf("engine: LoadSnapshot: unsupported format %d", snap.FormatVersion)
	}
	tables := make(map[string]*Table, len(snap.Tables))
	for _, st := range snap.Tables {
		if _, dup := tables[st.Name]; dup {
			return fmt.Errorf("engine: LoadSnapshot: duplicate table %q", st.Name)
		}
		t, err := tableFromSaved(st, snap.FormatVersion)
		if err != nil {
			return fmt.Errorf("engine: LoadSnapshot: %w", err)
		}
		tables[st.Name] = t
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.tables) != 0 {
		return fmt.Errorf("engine: LoadSnapshot requires an empty database (%d tables present)", len(db.tables))
	}
	for n, t := range tables {
		db.tables[n] = t
	}
	db.catalogGen.Add(1)
	db.logMu.Lock()
	db.log = snap.Log
	db.logSeq = snap.LogSeq
	db.logFramed = len(db.log)
	db.logMu.Unlock()
	db.replayLSN = snap.LSN
	if snap.Epoch > 0 {
		db.epoch.Store(snap.Epoch)
		db.epochStart.Store(snap.EpochStart)
	}
	return nil
}

// SaveSnapshotFile writes a snapshot to path crash-safely: temp file in the
// same directory, fsync, atomic rename, directory fsync — the export path
// (e.g. flock-sql's \save) shares the checkpoint's write discipline.
func (db *DB) SaveSnapshotFile(path string) error {
	return writeFileDurable(path, "snapshot", db.SaveSnapshot)
}

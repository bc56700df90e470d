package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

// DB is the in-process database: named tables and an optional model
// provider enabling the PREDICT extension.
type DB struct {
	mu         sync.RWMutex
	tables     map[string]*Table
	catalogGen atomic.Int64 // bumped under mu on every change to tables

	// commitMu is the statement-level commit barrier: every committing
	// statement (DML apply + WAL append, DDL) holds it in read mode, and
	// snapshot/checkpoint construction holds it exclusively.
	// A snapshot therefore sits between whole statements — never inside one,
	// and never between a statement's in-memory apply and its WAL record.
	commitMu sync.RWMutex

	// wal, durDir and replayLSN are set by OpenDirDB: the attached
	// write-ahead log, the data directory it lives in, and the highest LSN
	// applied during boot-time recovery (snapshot + replay). ckptMu
	// serializes whole checkpoints: overlapping runs could otherwise retire
	// segments covered only by the other's not-yet-renamed snapshot.
	wal       *WAL
	durDir    string
	walSync   bool // the fsync policy OpenDirDB attached the WAL with (ReopenWAL reuses it)
	replayLSN int64
	ckptMu    sync.Mutex
	// snapLSN is the LSN the on-disk snapshot covers. walHorizon is the
	// LSN before the oldest frame still on disk — the previous snapshot's,
	// since a checkpoint keeps one interval of log: log shipping from below
	// the horizon must bootstrap from the snapshot instead. Both guarded by
	// ckptMu (every writer holds it; OpenDirDB writes pre-publication).
	snapLSN    int64
	walHorizon int64
	// replica, when non-nil, marks this database a read-only replica: local
	// writes fail with ErrReadOnly and the only accepted mutations are
	// shipped WAL frames (ApplyReplicated / BootstrapReplica).
	replica atomic.Pointer[replicaState]
	// applyMu serializes replica-side frame application and bootstrap (the
	// follower loop is single-threaded, but the invariant should not depend
	// on it).
	applyMu sync.Mutex
	// commitGate, when set, runs after local durability and before a commit
	// is acknowledged — the quorum-replication ack wait (SetCommitGate).
	commitGate atomic.Pointer[func(lsn int64) error]
	// degraded, when non-nil, marks read-only degraded mode: the WAL is
	// poisoned, writes fail fast with ErrReadOnly, reads keep serving. Set
	// by noteWALErr, cleared by a successful ReopenWAL.
	degraded atomic.Pointer[degradedState]
	// epoch is the replication leadership generation this node's log belongs
	// to; epochStart is the last LSN of the previous epoch (frames at or
	// below it are shared history across a promotion, frames above it belong
	// to the current generation). 0 means "unknown/legacy"; OpenDirDB
	// initializes fresh directories at epoch 1. Changed only by promotion,
	// bootstrap, and WALEpoch replay.
	epoch      atomic.Int64
	epochStart atomic.Int64
	// fenced, when non-nil, marks this node a deposed leader: it observed a
	// higher epoch, so it must never ack another write. Set by Fence,
	// cleared only by DemoteToReplica / BootstrapReplica (adopting the new
	// lineage) — ReopenWAL deliberately refuses to clear it.
	fenced atomic.Pointer[fencedState]
	// retiredWAL keeps the closed WAL reachable so a commit whose
	// durability wait races CloseDurability still resolves against the
	// final sync's outcome instead of silently acking (see walWaitDurable).
	retiredWAL *WAL

	models opt.ModelProvider

	// udfScorer builds the scorer used by UDF-mode PREDICT; defaults to an
	// in-memory JSON remote scorer and can be replaced (e.g. with a real
	// HTTP scoring client) via SetUDFScorerFactory.
	udfScorer func(g *onnx.Graph) (onnx.Scorer, error)

	// predictPlane, when set, routes both PREDICT paths (vectorized
	// operator and row-mode UDF) through the inference plane for
	// micro-batching, score caching, and canary mirroring. nil preserves
	// the direct scoring paths.
	predictPlane PredictPlane

	// DefaultLevel is the optimization level used by Exec; defaults to
	// opt.LevelFull.
	DefaultLevel opt.Level
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, DefaultLevel: opt.LevelFull}
}

// SetModelProvider wires in the model registry that resolves PREDICT names.
func (db *DB) SetModelProvider(p opt.ModelProvider) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.models = p
}

// CreateTable registers a new empty table (a committed, WAL-logged DDL
// statement).
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if err := db.checkWritable(); err != nil {
		return nil, err
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t := NewTable(name, schema)
	if err := db.walAppend(&WALRecord{Kind: WALCreate, Table: name, Schema: t.schema}); err != nil {
		return nil, err
	}
	db.tables[name] = t
	db.catalogGen.Add(1)
	return t, nil
}

// CreateTableFromColumns registers a table and bulk-loads it in one step.
func (db *DB) CreateTableFromColumns(name string, names []string, cols []Column) (*Table, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("engine: %d names for %d columns", len(names), len(cols))
	}
	schema := make(Schema, len(names))
	for i := range names {
		schema[i] = ColMeta{Name: names[i], Type: cols[i].Type}
	}
	t, err := db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := db.ReplaceColumns(name, cols); err != nil {
		return nil, err
	}
	return t, nil
}

// DropTable removes a table (a committed, WAL-logged DDL statement).
//
//flockvet:ignore deadexport the only writer of a WALDrop frame, which replay and replicas install; TestPreparedPlanFollowsRecreatedTable recreates a table through it
func (db *DB) DropTable(name string) error {
	if err := db.checkWritable(); err != nil {
		return err
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	if err := db.walAppend(&WALRecord{Kind: WALDrop, Table: name}); err != nil {
		return err
	}
	delete(db.tables, name)
	db.catalogGen.Add(1)
	return nil
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// CatalogGeneration advances whenever a table is created or dropped or the
// catalog is loaded or replaced whole: a plan depends on the catalog only
// through table names and schemas, which hold while this does.
func (db *DB) CatalogGeneration() int64 { return db.catalogGen.Load() }

// TableNames lists the tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// TableColumns implements opt.CatalogInfo.
func (db *DB) TableColumns(table string) ([]string, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Schema().Names(), nil
}

// installCreate registers a replayed or replicated CREATE TABLE without
// WAL-logging it — the record already exists in the log being applied.
func (db *DB) installCreate(name string, schema Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("engine: table %q already exists", name)
	}
	db.tables[name] = NewTable(name, schema)
	db.catalogGen.Add(1)
	return nil
}

// installDrop is installCreate's DROP TABLE sibling.
func (db *DB) installDrop(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("engine: unknown table %q", name)
	}
	delete(db.tables, name)
	db.catalogGen.Add(1)
	return nil
}

// commitAppend applies a batch append and its WAL record as one committed
// statement, in validate -> log -> install order: a validation error logs
// nothing, and a WAL append failure (disk full) installs nothing — either
// way the statement that errors to the client has no effect. The caller
// holds t.writeMu (the statement-level write lock — the commit point), so
// the sequence cannot interleave with another statement on the same table.
//
// The returned LSN is the statement's WAL frame (0 when no WAL is
// attached): the frame is written but NOT yet known durable. The caller
// must release t.writeMu and then block on walWaitDurable(lsn) before
// acknowledging — moving the fsync wait outside the statement lock is what
// lets concurrent writers on one table share a single group-commit fsync.
func (db *DB) commitAppend(t *Table, rows [][]Value) (int64, error) {
	if err := db.checkWritable(); err != nil {
		return 0, err
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if len(rows) == 0 {
		return 0, nil
	}
	newCols, zones, err := t.appendBuild(rows)
	if err != nil {
		return 0, err
	}
	rec := &WALRecord{Kind: WALInsert, Table: t.Name, Rows: rows}
	if err := db.walAppendFrame(rec); err != nil {
		return 0, err
	}
	t.install(newCols, zones)
	return rec.LSN, nil
}

// commitReplace applies a whole-table rebuild (UPDATE/DELETE/bulk load) and
// its WAL record as one committed statement, with the same validate ->
// log -> install -> wait-durable discipline as commitAppend. Caller holds
// t.writeMu and must walWaitDurable the returned LSN after releasing it.
func (db *DB) commitReplace(t *Table, cols []Column) (int64, error) {
	if err := db.checkWritable(); err != nil {
		return 0, err
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if err := t.validateReplace(cols); err != nil {
		return 0, err
	}
	zones := extendZones(cols, zoneMap{}) // a replace is O(table) already
	rec := &WALRecord{Kind: WALReplace, Table: t.Name, Cols: cols}
	if err := db.walAppendFrame(rec); err != nil {
		return 0, err
	}
	t.install(cols, zones)
	return rec.LSN, nil
}

// AppendRows appends rows to the named table as one committed, WAL-logged
// statement — the write path internal writers (e.g. the model registry's
// system table) share with INSERT. Returns after the record is durable.
func (db *DB) AppendRows(table string, rows [][]Value) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	lsn, err := db.commitAppend(t, rows)
	t.writeMu.Unlock()
	if err != nil {
		return err
	}
	return db.walWaitDurable(lsn)
}

// ReplaceColumns replaces the named table's rows with fully-built columns
// as one committed, WAL-logged statement — the bulk-load path. Returns
// after the record is durable.
func (db *DB) ReplaceColumns(table string, cols []Column) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	lsn, err := db.commitReplace(t, cols)
	t.writeMu.Unlock()
	if err != nil {
		return err
	}
	return db.walWaitDurable(lsn)
}

// compileEnv is the expression compiler's environment for one statement
// under ctx: models resolve through the provider, row-mode PREDICT scores
// through the installed plane or, with none, the UDF-mode scorer.
func (db *DB) compileEnv(ctx context.Context) *compileEnv {
	return &compileEnv{ctx: ctx, graphFor: db.graphFor, remoteFor: db.remoteFor, plane: db.plane()}
}

// graphFor resolves a model name to its deployed graph (row-mode PREDICT
// path).
func (db *DB) graphFor(model string) (*onnx.Graph, error) {
	db.mu.RLock()
	provider := db.models
	db.mu.RUnlock()
	if provider == nil {
		return nil, fmt.Errorf("engine: no model provider configured")
	}
	return provider.GraphFor(model)
}

// SetUDFScorerFactory replaces the scorer used by UDF-mode PREDICT (e.g.
// with a client for a real HTTP scoring service).
func (db *DB) SetUDFScorerFactory(f func(g *onnx.Graph) (onnx.Scorer, error)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfScorer = f
}

// PredictPlane is the inference plane's engine-facing hook (implemented by
// internal/infer.Plane): it scores a PREDICT batch for a model with
// micro-batching across concurrent sessions, generation-keyed score
// caching, and candidate mirroring. g is the planned graph — possibly
// sparsity-pruned, so the plane must score it as given rather than
// re-resolve the model name — and out receives one score per row of b.
type PredictPlane interface {
	Score(ctx context.Context, model string, g *onnx.Graph, b *onnx.Batch, out []float64) error
}

// SetPredictPlane installs (or, with nil, removes) the inference plane.
func (db *DB) SetPredictPlane(p PredictPlane) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.predictPlane = p
}

// plane returns the installed inference plane, if any.
func (db *DB) plane() PredictPlane {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.predictPlane
}

// remoteFor builds the UDF-mode scorer for g: by default a one-row-per-call
// JSON remote scorer (each call pays REST-style marshalling), or whatever
// SetUDFScorerFactory installed.
func (db *DB) remoteFor(g *onnx.Graph) (onnx.Scorer, error) {
	db.mu.RLock()
	factory := db.udfScorer
	db.mu.RUnlock()
	if factory != nil {
		return factory(g)
	}
	return onnx.NewRemoteScorerJSON(g, 1)
}

// Exec parses and executes a statement string at the default level — the
// text convenience for tests, loaders and tools. Governed callers go
// through core.Flock instead, whose audit chain records every statement.
func (db *DB) Exec(query string) (*Result, error) {
	stmts, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("engine: empty statement")
	}
	var last *Result
	for _, stmt := range stmts {
		if last, err = db.ExecStmtContext(context.Background(), stmt, ExecOptions{Level: db.DefaultLevel}); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmtContext executes a parsed statement under a cancellation
// context: execution aborts at the next batch boundary once ctx is done.
func (db *DB) ExecStmtContext(ctx context.Context, stmt sql.Statement, o ExecOptions) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		rs, err := db.execSelect(ctx, s, o)
		if err != nil {
			return nil, err
		}
		return &Result{RowSet: *rs}, nil
	case *sql.CreateTableStmt:
		return db.execCreate(s)
	case *sql.InsertStmt:
		return db.execInsertLevel(ctx, s, o)
	case *sql.UpdateStmt:
		return db.execRebuild(s.Table, func(t *Table) (int64, int64, error) { return db.execUpdateLocked(ctx, t, s) })
	case *sql.DeleteStmt:
		return db.execRebuild(s.Table, func(t *Table) (int64, int64, error) { return db.execDeleteLocked(ctx, t, s) })
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// execSelect plans a SELECT at o.Level and runs it to completion.
func (db *DB) execSelect(ctx context.Context, s *sql.SelectStmt, o ExecOptions) (*RowSet, error) {
	plan, err := db.PlanSelect(s, o.Level)
	if err != nil {
		return nil, err
	}
	return db.ExecPlanContext(ctx, plan, o)
}

// PlanSelect lowers a SELECT into an optimized plan without executing it,
// for plan caching (prepared statements reuse the plan across calls) and
// EXPLAIN.
func (db *DB) PlanSelect(s *sql.SelectStmt, level opt.Level) (*opt.Plan, error) {
	db.mu.RLock()
	provider := db.models
	db.mu.RUnlock()
	if provider == nil {
		provider = noModels{}
	}
	// At LevelUDF there is no ML-aware planning at all; PREDICT stays a
	// scalar call inside expressions.
	return opt.PlanSelect(s, provider, db, level)
}

// ExecPlanContext executes a previously planned SELECT, materializing the
// result — a thin Collect wrapper over the cursor path, so LIMIT-capped
// streamable pipelines short-circuit the scan even for materialized
// callers. The executor polls ctx at operator and batch boundaries, so a
// canceled query returns within one batch of work. Callers caching plans
// must revalidate them against CatalogGeneration and the model registry
// generation (see core.Prepared).
func (db *DB) ExecPlanContext(ctx context.Context, plan *opt.Plan, o ExecOptions) (*RowSet, error) {
	cur, err := db.OpenPlanCursor(ctx, plan, o)
	if err != nil {
		return nil, err
	}
	return Collect(ctx, cur)
}

// noModels is the provider used when none is configured: every lookup fails.
type noModels struct{}

func (noModels) GraphFor(name string) (*onnx.Graph, error) {
	return nil, fmt.Errorf("engine: no model provider configured (model %q)", name)
}

package core

// Pull-based query entry points. Exec* materializes whole results; Query*
// returns an engine.Cursor that produces batches on demand, so a caller
// (the serving layer's NDJSON drains and server-side cursors) holds
// O(batch) memory per result. The full governance path — access check,
// eager provenance capture, query log, audit — runs at open, BEFORE the
// first batch is released: a cursor in hand means the statement was
// authorized and recorded, and no batch ever flows to an unauthorized
// user.

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Query opens a cursor over a single SELECT on behalf of user at the
// default optimization level. The caller owns the cursor and must Close it
// (Collect-style drains included); the context passed to each Next bounds
// that pull only.
func (f *Flock) Query(ctx context.Context, user, query string) (engine.Cursor, error) {
	return f.QueryLevel(ctx, user, query, f.DB.DefaultLevel)
}

// QueryLevel is Query with an explicit optimization level. Only a single
// SELECT statement can be cursored; DML and multi-statement strings must
// go through Exec*.
func (f *Flock) QueryLevel(ctx context.Context, user, query string, level opt.Level) (engine.Cursor, error) {
	stmt, err := sql.ParseOne(query)
	if err != nil {
		f.Audit.Record(user, "parse", "", truncate(query), false)
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: Query requires a single SELECT statement; use Exec for %T", stmt)
	}
	text := sql.FormatStatement(sel)
	acc := sql.Analyze(sel)

	// Governance gate: nothing is planned, scanned, or released until the
	// read is authorized and captured.
	if err := f.checkAccess(user, sel, acc); err != nil {
		f.Audit.Record(user, "denied", firstObject(acc), truncate(text), false)
		return nil, err
	}
	f.Prov.CaptureStmt(sel, text, user)
	f.DB.LogStatement(text, user)

	cur, _, err := f.DB.OpenCursor(ctx, sel, engine.ExecOptions{Level: level})
	f.Audit.Record(user, "select", firstObject(acc), truncate(text), err == nil)
	return cur, err
}

// QueryPrepared opens a cursor over a prepared SELECT with the same
// governance path as ExecPrepared: per-execution access check (cache-shared
// plans are re-checked for this user), provenance capture, query log, and
// audit all happen before the plan is opened.
func (f *Flock) QueryPrepared(ctx context.Context, user string, p *Prepared) (engine.Cursor, error) {
	sel, ok := p.stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: QueryPrepared requires a prepared SELECT, have %s", p.Kind())
	}
	if err := f.checkAccess(user, p.stmt, p.acc); err != nil {
		f.Audit.Record(user, "denied", firstObject(p.acc), truncate(p.text), false)
		return nil, err
	}
	f.Prov.CaptureStmt(p.stmt, p.text, user)
	f.DB.LogStatement(p.text, user)

	plan, err := p.freshPlan(f, sel)
	var cur engine.Cursor
	if err == nil {
		cur, err = f.DB.OpenPlanCursor(ctx, plan, engine.ExecOptions{Level: p.Level})
	}
	f.Audit.Record(user, "select", firstObject(p.acc), truncate(p.text), err == nil)
	return cur, err
}

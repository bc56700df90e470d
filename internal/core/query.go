package core

// Cursor entry points. Exec* runs statements to completion; Query* returns
// an engine.Cursor that produces batches on demand, so a caller (the
// serving layer's NDJSON drains and server-side cursors) holds O(batch)
// memory per result. Both pass the one governance gate (gate, in
// prepared.go); a cursor passes it and is audited at open, BEFORE the
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
	stmts, err := f.Parse(user, query, level)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("core: Query requires a single SELECT statement, got %d statements", len(stmts))
	}
	return f.QueryPrepared(ctx, user, stmts[0])
}

// QueryPrepared opens a cursor over a SELECT: the gate (a cache-shared
// plan is re-checked for this user), then the plan is opened, and the open
// is audited.
func (f *Flock) QueryPrepared(ctx context.Context, user string, p *Prepared) (engine.Cursor, error) {
	sel, ok := p.stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: Query requires a single SELECT statement; use Exec for %s", p.Kind())
	}
	if err := f.gate(user, p); err != nil {
		return nil, err
	}
	plan, err := p.freshPlan(f, sel)
	var cur engine.Cursor
	if err == nil {
		cur, err = f.DB.OpenPlanCursor(ctx, plan, engine.ExecOptions{Level: p.Level})
	}
	f.record(user, "select", p, err == nil)
	return cur, err
}

package core

// The cursor entry point. ExecPrepared runs a statement to completion;
// QueryPrepared returns an engine.Cursor that produces batches on demand,
// so a caller (the serving layer's NDJSON drains and server-side cursors)
// holds O(batch) memory per result. Both pass the one governance gate
// (gate, in prepared.go); a cursor passes it and is audited at open, BEFORE
// the first batch is released: a cursor in hand means the statement was
// authorized and recorded, and no batch ever flows to an unauthorized
// user.

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
)

// QueryPrepared opens a cursor over a SELECT: the gate (a cache-shared
// plan is re-checked for this user), then the plan is opened, and the open
// is audited. The caller owns the cursor and must Close it; the context
// passed to each Next bounds that pull only. Only a SELECT can be
// cursored: anything else must go through ExecPrepared.
func (f *Flock) QueryPrepared(ctx context.Context, user string, p *Prepared) (engine.Cursor, error) {
	sel, ok := p.stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: QueryPrepared requires a SELECT statement; use ExecPrepared for %s", p.Kind())
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

package core

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Prepared is a parsed, analyzed and (for SELECTs) planned statement that
// can be executed repeatedly without re-parsing or re-planning. The serving
// layer's plan cache stores these keyed on (SQL, opt.Level).
//
// A cached plan can go stale: a DML write bumps a scanned table's version
// (invalidating pushed-down stats and time-travel snapshots), and a model
// deploy or promotion changes what PREDICT resolves to (the plan embeds a
// possibly-rewritten model graph). ExecPrepared revalidates both before
// every run and transparently replans on mismatch, so a stale cache entry
// costs one replan, never a wrong answer.
type Prepared struct {
	SQL   string
	Level opt.Level

	stmt sql.Statement
	acc  sql.Access
	text string // canonical formatted statement

	mu       sync.Mutex
	plan     *opt.Plan        // non-nil for SELECT statements
	tables   map[string]int64 // scanned table -> version at plan time
	modelGen int64            // registry generation at plan time
}

// Kind reports the statement kind ("select", "insert", ...).
func (p *Prepared) Kind() string { return stmtAction(p.stmt) }

// Text returns the canonical formatted statement.
func (p *Prepared) Text() string { return p.text }

// Prepare parses and analyzes a single statement and, for SELECTs, plans it
// at the given level. The returned Prepared is safe for concurrent
// ExecPrepared calls.
func (f *Flock) Prepare(query string, level opt.Level) (*Prepared, error) {
	return f.prepare("", query, level)
}

// PrepareAs is Prepare gated on the governance path: access is checked (and
// denials audited) BEFORE any planning happens, so an unauthorized user can
// neither spend planner work nor learn schema details from planner errors.
// The returned Prepared is user-independent — ExecPrepared (and
// CheckPrepared, for cached entries) re-check access per execution.
func (f *Flock) PrepareAs(user, query string, level opt.Level) (*Prepared, error) {
	return f.prepare(user, query, level)
}

func (f *Flock) prepare(user, query string, level opt.Level) (*Prepared, error) {
	stmt, err := sql.ParseOne(query)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		SQL: query, Level: level,
		stmt: stmt, acc: sql.Analyze(stmt), text: sql.FormatStatement(stmt),
	}
	if user != "" {
		if err := f.CheckPrepared(user, p); err != nil {
			return nil, err
		}
	}
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		p.mu.Lock()
		err := p.replanLocked(f, sel)
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// CheckPrepared applies the same access checks ExecPrepared would, auditing
// a denial. Servers call it when handing out a cache-shared Prepared to a
// different user than the one that planned it.
func (f *Flock) CheckPrepared(user string, p *Prepared) error {
	if err := f.checkAccess(user, p.stmt, p.acc); err != nil {
		f.Audit.Record(user, "denied", firstObject(p.acc), truncate(p.text), false)
		return err
	}
	return nil
}

// ExecPrepared runs a prepared statement on behalf of user with the full
// governance path of Exec: access check, eager provenance capture, query
// log, and audit — only the parse (and usually the plan) is amortized.
func (f *Flock) ExecPrepared(ctx context.Context, user string, p *Prepared) (*engine.Result, error) {
	if err := f.checkAccess(user, p.stmt, p.acc); err != nil {
		f.Audit.Record(user, "denied", firstObject(p.acc), truncate(p.text), false)
		return nil, err
	}
	f.Prov.CaptureStmt(p.stmt, p.text, user)
	f.DB.LogStatement(p.text, user)

	var res *engine.Result
	var err error
	if sel, ok := p.stmt.(*sql.SelectStmt); ok {
		var plan *opt.Plan
		plan, err = p.freshPlan(f, sel)
		if err == nil {
			var rs *engine.RowSet
			rs, err = f.DB.ExecPlanContext(ctx, plan, engine.ExecOptions{Level: p.Level})
			if err == nil {
				res = engine.ResultFromRowSet(rs)
			}
		}
	} else {
		res, err = f.DB.ExecStmtContext(ctx, p.stmt, engine.ExecOptions{Level: p.Level})
	}
	f.Audit.Record(user, stmtAction(p.stmt), firstObject(p.acc), truncate(p.text), err == nil)
	return res, err
}

// freshPlan returns the cached plan when still valid, replanning otherwise.
func (p *Prepared) freshPlan(f *Flock, sel *sql.SelectStmt) (*opt.Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plan != nil && p.modelGen == f.Models.Generation() {
		fresh := true
		for name, ver := range p.tables {
			t, err := f.DB.Table(name)
			if err != nil || t.Version() != ver {
				fresh = false
				break
			}
		}
		if fresh {
			return p.plan, nil
		}
	}
	if err := p.replanLocked(f, sel); err != nil {
		return nil, err
	}
	return p.plan, nil
}

// replanLocked rebuilds the plan and records the table versions and model
// generation it was built against. Caller holds p.mu.
//
// Versions are snapshotted BEFORE planning: the plan embeds decisions
// derived from table state (stats-driven model compression, time-travel
// snapshots), so a write racing with planning must leave the recorded
// version behind the table's — forcing a replan on the next execution —
// rather than validating a plan built against pre-write statistics.
func (p *Prepared) replanLocked(f *Flock, sel *sql.SelectStmt) error {
	gen := f.Models.Generation()
	pre := map[string]int64{}
	for _, name := range p.acc.ReadTables {
		if t, err := f.DB.Table(name); err == nil {
			pre[name] = t.Version()
		}
	}
	plan, err := f.DB.PlanSelect(sel, p.Level)
	if err != nil {
		return err
	}
	tables := map[string]int64{}
	collectScanTables(plan.Root, tables)
	for name := range tables {
		v, ok := pre[name]
		if !ok {
			// Not visible to the pre-plan snapshot (cannot happen for
			// tables the analyzer sees); -1 never matches a real version,
			// so such a plan replans on every execution — safe, just slow.
			v = -1
		}
		tables[name] = v
	}
	p.plan = plan
	p.tables = tables
	p.modelGen = gen
	return nil
}

// collectScanTables gathers the base tables a plan scans.
func collectScanTables(n opt.Node, out map[string]int64) {
	if s, ok := n.(*opt.Scan); ok {
		out[s.Table] = 0
	}
	for _, in := range opt.Inputs(n) {
		collectScanTables(in, out)
	}
}

package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Prepared is one parsed and analyzed statement: every statement Flock runs
// is one, ad hoc or prepared, run to completion (ExecPrepared) or opened as
// a cursor (QueryPrepared). Parse makes them unplanned, and a SELECT is
// planned on first use; Prepare plans it up front. The serving layer's plan
// cache stores prepared ones keyed on (SQL, opt.Level).
//
// A plan depends only on the catalog (table names and schemas) and the
// models: decisions that depend on data, such as stats-driven model
// compression, are made by the engine over the snapshot it scans, and a
// time-travel scan names its version in the plan. So a write leaves a
// cached plan valid, while a CREATE or DROP TABLE (the catalog generation)
// or a model deploy or promotion (the registry generation: the plan embeds
// a possibly-rewritten model graph) makes it stale. Every run checks both
// and transparently replans on a mismatch, so a stale cache entry costs one
// replan, never a wrong answer.
type Prepared struct {
	SQL   string
	Level opt.Level

	stmt sql.Statement
	acc  sql.Access
	text string // canonical formatted statement

	mu         sync.Mutex
	plan       *opt.Plan // SELECT only; nil until first planned
	catalogGen int64     // catalog generation at plan time
	modelGen   int64     // registry generation at plan time
}

// Kind reports the statement kind ("select", "insert", "update", "delete"
// or "create") — also the governance action the statement is checked and
// audited under.
func (p *Prepared) Kind() string {
	switch p.stmt.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case *sql.CreateTableStmt:
		return "create"
	}
	return "exec"
}

// Parse is the one way text becomes statements: it parses query into
// unplanned statements at level, failing on an empty one. A failure is
// audited as "parse" for user; user "" parses ungoverned and audits nothing
// (Prepare).
func (f *Flock) Parse(user, query string, level opt.Level) ([]*Prepared, error) {
	stmts, err := sql.Parse(query)
	if err == nil && len(stmts) == 0 {
		err = fmt.Errorf("core: empty statement")
	}
	if err != nil {
		if user != "" {
			f.Audit.Record(user, "parse", "", truncate(query), false)
		}
		return nil, err
	}
	out := make([]*Prepared, len(stmts))
	for i, stmt := range stmts {
		out[i] = &Prepared{SQL: query, Level: level,
			stmt: stmt, acc: sql.Analyze(stmt), text: sql.FormatStatement(stmt)}
	}
	return out, nil
}

// Prepare parses and analyzes a single statement and, for SELECTs, plans it
// at the given level. The returned Prepared is safe for concurrent
// ExecPrepared calls.
func (f *Flock) Prepare(query string, level opt.Level) (*Prepared, error) {
	return f.prepare("", query, level)
}

// PrepareAs is Prepare gated on the governance path: a parse failure is
// audited, and access is checked (and denials audited) BEFORE any planning
// happens, so an unauthorized user can neither spend planner work nor learn
// schema details from planner errors. The returned Prepared is
// user-independent — ExecPrepared (and CheckPrepared, for cached entries)
// re-check access per execution.
func (f *Flock) PrepareAs(user, query string, level opt.Level) (*Prepared, error) {
	return f.prepare(user, query, level)
}

func (f *Flock) prepare(user, query string, level opt.Level) (*Prepared, error) {
	stmts, err := f.Parse(user, query, level)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("core: prepare expects one statement, got %d", len(stmts))
	}
	p := stmts[0]
	if user != "" {
		if err := f.CheckPrepared(user, p); err != nil {
			return nil, err
		}
	}
	if sel, ok := p.stmt.(*sql.SelectStmt); ok {
		p.mu.Lock()
		err := p.replanLocked(f, sel)
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// CheckPrepared applies the access checks every run of p applies, auditing
// a denial. Servers call it when handing out a cache-shared Prepared to a
// different user than the one that planned it.
func (f *Flock) CheckPrepared(user string, p *Prepared) error {
	if err := f.checkAccess(user, p); err != nil {
		f.record(user, "denied", p, false)
		return err
	}
	return nil
}

// gate is the one governance gate every statement passes before it runs:
// the access check (a denial is audited), then eager provenance capture.
// Nothing is planned, scanned or released before it.
func (f *Flock) gate(user string, p *Prepared) error {
	if err := f.CheckPrepared(user, p); err != nil {
		return err
	}
	f.Prov.CaptureStmt(p.stmt, p.text, user)
	return nil
}

// record appends p's audit entry under action. Its Detail is the formatted
// statement, whole: the audit chain is the record lazy provenance capture
// reads (provenance.SQLTracker.CaptureLog).
func (f *Flock) record(user, action string, p *Prepared, ok bool) {
	f.Audit.Record(user, action, firstObject(p.acc), p.text, ok)
}

// ExecPrepared runs a statement to completion on behalf of user: the gate,
// then the run, then the outcome audit — so a statement that fails mid-run
// is audited as failed.
func (f *Flock) ExecPrepared(ctx context.Context, user string, p *Prepared) (*engine.Result, error) {
	if err := f.gate(user, p); err != nil {
		return nil, err
	}
	res, err := f.run(ctx, p)
	f.record(user, p.Kind(), p, err == nil)
	return res, err
}

// run executes p: a SELECT on its fresh plan, anything else on the engine.
func (f *Flock) run(ctx context.Context, p *Prepared) (*engine.Result, error) {
	sel, ok := p.stmt.(*sql.SelectStmt)
	if !ok {
		return f.DB.ExecStmtContext(ctx, p.stmt, engine.ExecOptions{Level: p.Level})
	}
	plan, err := p.freshPlan(f, sel)
	if err != nil {
		return nil, err
	}
	rs, err := f.DB.ExecPlanContext(ctx, plan, engine.ExecOptions{Level: p.Level})
	if err != nil {
		return nil, err
	}
	return &engine.Result{RowSet: *rs}, nil
}

// freshPlan returns the cached plan when still valid, replanning otherwise.
func (p *Prepared) freshPlan(f *Flock, sel *sql.SelectStmt) (*opt.Plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plan == nil || p.catalogGen != f.DB.CatalogGeneration() || p.modelGen != f.Models.Generation() {
		if err := p.replanLocked(f, sel); err != nil {
			return nil, err
		}
	}
	return p.plan, nil
}

// replanLocked rebuilds the plan and records the generations it was built
// against. Caller holds p.mu. The generations are read BEFORE planning, so
// a DDL statement or deploy racing with planning leaves them behind and the
// next run replans.
func (p *Prepared) replanLocked(f *Flock, sel *sql.SelectStmt) error {
	catalogGen, modelGen := f.DB.CatalogGeneration(), f.Models.Generation()
	plan, err := f.DB.PlanSelect(sel, p.Level)
	if err != nil {
		return err
	}
	p.plan, p.catalogGen, p.modelGen = plan, catalogGen, modelGen
	return nil
}

// Fixture for the governgate analyzer: statement text is parsed only in
// (*Flock).Parse, and each governance step has exactly one caller —
// checkAccess in CheckPrepared, CaptureStmt in gate.
package governgate_fixture

import "repro/internal/sql"

type tracker struct{}

func (tracker) CaptureStmt(stmt sql.Statement, text, user string) {}

type Prepared struct {
	stmt sql.Statement
	text string
}

type Flock struct {
	Prov tracker
}

// The one parse site.
func (f *Flock) Parse(query string) ([]*Prepared, error) {
	stmts, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	out := make([]*Prepared, len(stmts))
	for i, s := range stmts {
		out[i] = &Prepared{stmt: s, text: query}
	}
	return out, nil
}

func (f *Flock) checkAccess(user string, p *Prepared) error { return nil }

// The one access check.
func (f *Flock) CheckPrepared(user string, p *Prepared) error {
	return f.checkAccess(user, p)
}

// The one gate.
func (f *Flock) gate(user string, p *Prepared) error {
	if err := f.CheckPrepared(user, p); err != nil {
		return err
	}
	f.Prov.CaptureStmt(p.stmt, p.text, user)
	return nil
}

// A second parse site: its statements never reach the gate.
func (f *Flock) explain(query string) error {
	_, err := sql.ParseOne(query) // want `sql.ParseOne called in explain: statement text becomes statements only in \(\*Flock\).Parse`
	return err
}

// A side door that captures a statement it never access-checked.
func (f *Flock) runUnchecked(user string, p *Prepared) {
	f.Prov.CaptureStmt(p.stmt, p.text, user) // want `CaptureStmt called in runUnchecked: only \(\*Flock\).gate may call it`
}

// An access check that skips CheckPrepared's denial audit.
func (f *Flock) quickCheck(user string, p *Prepared) error {
	return f.checkAccess(user, p) // want `checkAccess called in quickCheck: only \(\*Flock\).CheckPrepared may call it`
}

// A plain function named like the gate is not the gate.
func gate(f *Flock, p *Prepared) {
	f.Prov.CaptureStmt(p.stmt, p.text, "system") // want `CaptureStmt called in gate: only \(\*Flock\).gate may call it`
}

// Nor is a plain function named Parse the parse site.
func Parse(query string) (sql.Statement, error) {
	return sql.ParseOne(query) // want `sql.ParseOne called in Parse`
}

// Formatting and analysis are not parsing.
func (f *Flock) describe(p *Prepared) (string, sql.Access) {
	return sql.FormatStatement(p.stmt), sql.Analyze(p.stmt)
}

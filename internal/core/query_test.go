package core

// Cursor-path governance pinning: QueryPrepared performs the access check,
// audit and provenance capture BEFORE the first batch is released, denied
// users get no cursor at all, and non-SELECT statements are rejected.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/provenance"
	"repro/internal/sql"
)

func queryTestFlock(t *testing.T) *Flock {
	t.Helper()
	f, err := New()
	if err != nil {
		t.Fatal(err)
	}
	f.Access.AssignRole("root", "admin")
	mustExecQ(t, f, `CREATE TABLE readings (id int, v float)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO readings VALUES `)
	for i := 0; i < 500; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d.5)", i, i%50)
	}
	mustExecQ(t, f, b.String())
	return f
}

func mustExecQ(t *testing.T, f *Flock, q string) {
	t.Helper()
	if _, err := f.Exec("root", q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// queryText opens a cursor over one ad hoc SELECT the way the server's
// cursor route does: Parse, then QueryPrepared.
func queryText(ctx context.Context, f *Flock, user, query string) (engine.Cursor, error) {
	stmts, err := f.Parse(user, query, f.DB.DefaultLevel)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("queryText: %d statements, want 1", len(stmts))
	}
	return f.QueryPrepared(ctx, user, stmts[0])
}

func TestQueryCursorDrain(t *testing.T) {
	f := queryTestFlock(t)
	cur, err := queryText(context.Background(), f, "root", `SELECT id, v FROM readings WHERE v > 10.0`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if names := cur.Schema().Names(); len(names) != 2 || names[0] != "id" {
		t.Fatalf("schema: %v", names)
	}
	n := 0
	for {
		b, err := cur.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += b.N
	}
	if n != 400 { // v in {10.5 .. 49.5}: 40 of 50 values, 10 reps each
		t.Fatalf("drained %d rows, want 400", n)
	}
}

// TestQueryGovernanceBeforeFirstBatch pins the ordering contract: a denied
// user gets an error (and an audit record) with no cursor, and a granted
// user's query is audited and captured at open — before any batch is
// pulled.
func TestQueryGovernanceBeforeFirstBatch(t *testing.T) {
	f := queryTestFlock(t)

	if _, err := queryText(context.Background(), f, "mallory", `SELECT id FROM readings`); err == nil {
		t.Fatal("denied user got a cursor")
	}
	entries := f.Audit.Entries()
	last := entries[len(entries)-1]
	if last.User != "mallory" || last.Action != "denied" {
		t.Fatalf("expected a denial audit record, got %+v", last)
	}

	text := sql.FormatStatement(mustParseQ(t, `SELECT id FROM readings`))
	capturedBefore := len(queryEntitiesWithText(f, text))
	auditBefore := f.Audit.Len()
	cur, err := queryText(context.Background(), f, "root", `SELECT id FROM readings`)
	if err != nil {
		t.Fatal(err)
	}
	// No batch pulled yet: the statement must already be captured and audited.
	if got := len(queryEntitiesWithText(f, text)); got != capturedBefore+1 {
		t.Fatalf("provenance gained %d entities for %q at open, want 1", got-capturedBefore, text)
	}
	if got := f.Audit.Len(); got != auditBefore+1 {
		t.Fatalf("audit grew %d entries at open, want 1", got-auditBefore)
	}
	cur.Close()
}

// TestLoggedTextIsFormatted pins what the ad hoc paths record, now that
// each parses its statement once: the audit entry and the provenance
// entity carry sql.FormatStatement of the parsed statement, not the text as
// sent, for Exec (one and several statements) and a cursor alike.
func TestLoggedTextIsFormatted(t *testing.T) {
	f := queryTestFlock(t)
	const multi = `select   id from readings where v>40.0 ;  SELECT count(*)  FROM readings`
	stmts, err := sql.Parse(multi)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, s := range stmts {
		want = append(want, sql.FormatStatement(s))
	}
	before := f.Audit.Len()
	mustExecQ(t, f, multi)
	cur, err := queryText(context.Background(), f, "root", `select id   from readings where id<3`)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	want = append(want, sql.FormatStatement(mustParseQ(t, `select id   from readings where id<3`)))

	audit := f.Audit.Entries()[before:]
	if len(audit) != len(want) {
		t.Fatalf("audit chain grew %d entries, want %d", len(audit), len(want))
	}
	for i, e := range audit {
		if e.Detail != want[i] || e.User != "root" {
			t.Errorf("audit entry %d = %q by %q, want %q by root", i, e.Detail, e.User, want[i])
		}
		if len(queryEntitiesWithText(f, want[i])) != 1 {
			t.Errorf("no single provenance entity for %q", want[i])
		}
	}
}

func mustParseQ(t *testing.T, q string) sql.Statement {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func queryEntitiesWithText(f *Flock, text string) []*provenance.Entity {
	var out []*provenance.Entity
	for _, q := range f.Catalog.EntitiesOfType(provenance.TypeQuery) {
		if q.Attrs["text"] == text {
			out = append(out, q)
		}
	}
	return out
}

// TestQueryRejectsNonSelect: an ad hoc (unplanned) DML statement cannot be
// cursored, and the refusal comes before the gate, so it leaves nothing in
// the provenance catalog or the audit log.
func TestQueryRejectsNonSelect(t *testing.T) {
	f := queryTestFlock(t)
	stmts, err := f.Parse("root", `INSERT INTO readings VALUES (999, 1.0)`, f.DB.DefaultLevel)
	if err != nil {
		t.Fatal(err)
	}
	nodesBefore, _ := f.Catalog.Size()
	auditBefore := f.Audit.Len()
	if _, err := f.QueryPrepared(context.Background(), "root", stmts[0]); err == nil {
		t.Fatal("QueryPrepared accepted ad hoc DML")
	}
	if nodes, _ := f.Catalog.Size(); nodes != nodesBefore || f.Audit.Len() != auditBefore {
		t.Fatal("a refused cursor was captured or audited")
	}
}

func TestQueryPreparedCursor(t *testing.T) {
	f := queryTestFlock(t)
	p, err := f.PrepareAs("root", `SELECT id FROM readings WHERE v > 40.0`, f.DB.DefaultLevel)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := f.QueryPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := cur.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += b.N
	}
	cur.Close()
	if n != 100 { // v in {40.5 .. 49.5}: 10 of 50 values, 10 reps each
		t.Fatalf("drained %d rows, want 100", n)
	}

	// A different, unauthorized user is re-checked against the shared plan.
	_, err = f.QueryPrepared(context.Background(), "intruder", p)
	var perm *governance.PermissionError
	if !errors.As(err, &perm) {
		t.Fatalf("unauthorized user on a shared prepared plan: got %v, want a permission error", err)
	}

	// DML cannot be cursored even when prepared.
	pd, err := f.PrepareAs("root", `INSERT INTO readings VALUES (1000, 2.0)`, f.DB.DefaultLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.QueryPrepared(context.Background(), "root", pd); err == nil {
		t.Fatal("QueryPrepared accepted DML")
	}
	if open := engine.CursorsOpen(); open != 0 {
		t.Fatalf("%d cursors leaked", open)
	}
}

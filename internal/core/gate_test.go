package core

// One gate, four routes: an ad hoc or prepared statement, run to
// completion or opened as a cursor, leaves the same audit entries, the
// same eagerly captured statement texts and the same provenance growth.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/provenance"
)

// governed is what one statement leaves behind in the governance records.
type governed struct {
	Failed       bool
	Audit        []governance.AuditEntry // User, Action, Object, Detail, Allowed only
	Captured     []string                // texts of the query entities eager capture added
	Nodes, Edges int
}

type route struct {
	name string
	run  func(ctx context.Context, f *Flock, user, query string) error
}

var execRoutes = []route{
	{"Exec", func(ctx context.Context, f *Flock, user, query string) error {
		_, err := f.ExecContext(ctx, user, query)
		return err
	}},
	{"ExecPrepared", func(ctx context.Context, f *Flock, user, query string) error {
		p, err := f.Prepare(query, f.DB.DefaultLevel)
		if err != nil {
			return err
		}
		_, err = f.ExecPrepared(ctx, user, p)
		return err
	}},
}

var queryRoutes = []route{
	{"Parse+QueryPrepared", func(ctx context.Context, f *Flock, user, query string) error {
		cur, err := queryText(ctx, f, user, query)
		if err != nil {
			return err
		}
		_, err = engine.Collect(ctx, cur)
		return err
	}},
	{"QueryPrepared", func(ctx context.Context, f *Flock, user, query string) error {
		p, err := f.Prepare(query, f.DB.DefaultLevel)
		if err != nil {
			return err
		}
		cur, err := f.QueryPrepared(ctx, user, p)
		if err != nil {
			return err
		}
		_, err = engine.Collect(ctx, cur)
		return err
	}},
}

// governFresh runs query through r on a fresh instance (so a folded
// repeated read cannot hide a provenance entity) and returns what it left.
func governFresh(t *testing.T, ctx context.Context, r route, user, query string) governed {
	t.Helper()
	f := queryTestFlock(t)
	f.Access.Grant("researcher", governance.ActSelect, governance.ColumnObject("readings", "id"))
	f.Access.Grant("researcher", governance.ActSelect, governance.ColumnObject("readings", "v"))
	f.Access.AssignRole("rae", "researcher")

	audit, queries := f.Audit.Len(), len(f.Catalog.EntitiesOfType(provenance.TypeQuery))
	nodes, edges := f.Catalog.Size()
	err := r.run(ctx, f, user, query)
	var g governed
	g.Failed = err != nil
	for _, e := range f.Audit.Entries()[audit:] {
		g.Audit = append(g.Audit, governance.AuditEntry{
			User: e.User, Action: e.Action, Object: e.Object, Detail: e.Detail, Allowed: e.Allowed})
	}
	for _, q := range f.Catalog.EntitiesOfType(provenance.TypeQuery)[queries:] {
		g.Captured = append(g.Captured, q.Attrs["text"])
	}
	n, e := f.Catalog.Size()
	g.Nodes, g.Edges = n-nodes, e-edges
	return g
}

func TestEveryRouteGovernsAlike(t *testing.T) {
	const read = `SELECT id FROM readings WHERE v > 40.0`
	cases := []struct {
		name, user, query string
		routes            []route
		action            string
		ok                bool
	}{
		{"allowed select", "root", read, append(execRoutes, queryRoutes...), "select", true},
		{"denied select", "mallory", read, append(execRoutes, queryRoutes...), "denied", false},
		{"column-granted select", "rae", read, append(execRoutes, queryRoutes...), "select", true},
		{"allowed insert", "root", `INSERT INTO readings VALUES (1000, 2.5)`, execRoutes, "insert", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := governFresh(t, context.Background(), c.routes[0], c.user, c.query)
			if want.Failed == c.ok || len(want.Audit) != 1 ||
				want.Audit[0].User != c.user || want.Audit[0].Action != c.action || want.Audit[0].Allowed != c.ok {
				t.Fatalf("%s: %+v, want one %q audit entry with ok=%t", c.routes[0].name, want, c.action, c.ok)
			}
			if captured := len(want.Captured) == 1; captured != c.ok || (want.Nodes > 0) != c.ok {
				t.Fatalf("%s: captured %q, %d new provenance nodes; want them only when allowed",
					c.routes[0].name, want.Captured, want.Nodes)
			}
			if c.ok && want.Audit[0].Detail != want.Captured[0] {
				t.Fatalf("%s: audited %q, captured %q; want the same formatted text",
					c.routes[0].name, want.Audit[0].Detail, want.Captured[0])
			}
			for _, r := range c.routes[1:] {
				if got := governFresh(t, context.Background(), r, c.user, c.query); !reflect.DeepEqual(got, want) {
					t.Errorf("%s left %+v\n%s left %+v", r.name, got, c.routes[0].name, want)
				}
			}
		})
	}

	// A SELECT that passes the gate and then fails is captured and audited
	// as a failed select on every route that runs to completion.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range execRoutes {
		g := governFresh(t, canceled, r, "root", read)
		if !g.Failed || len(g.Captured) != 1 || len(g.Audit) != 1 ||
			g.Audit[0].Action != "select" || g.Audit[0].Allowed {
			t.Errorf("%s under a canceled context: %+v, want a failed run audited select ok=false", r.name, g)
		}
	}
}

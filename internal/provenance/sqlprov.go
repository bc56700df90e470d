package provenance

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/governance"
	"repro/internal/sql"
)

// SQLTracker is the SQL provenance module: it extracts coarse-grained
// provenance (input tables and columns, written tables, scored models) from
// statements and populates the catalog. It supports the paper's two capture
// modes: eager (per statement, as it executes) and lazy (batch, from the
// audit chain, the one record of executed statements). Trackers are safe
// for concurrent capture: the query sequence is guarded here and all graph
// mutations go through the (locked) catalog.
type SQLTracker struct {
	catalog  *Catalog
	mu       sync.Mutex
	querySeq int
	// reads remembers, per (statement text, user), the query entity
	// CaptureStmt last created for a read, so a repeat can reuse it.
	reads map[readKey]*Entity
}

type readKey struct{ text, user string }

// NewSQLTracker binds a tracker to a catalog.
func NewSQLTracker(c *Catalog) *SQLTracker {
	return &SQLTracker{catalog: c, reads: map[readKey]*Entity{}}
}

// CaptureQuery eagerly captures provenance for one statement string issued
// by user. It returns the created query entity.
func (tr *SQLTracker) CaptureQuery(query, user string) (*Entity, error) {
	stmt, err := sql.ParseOne(query)
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	return tr.captureStmt(stmt, sql.Analyze(stmt), query, user), nil
}

// CaptureStmt eagerly captures provenance for an already-parsed statement —
// the serving path, which must not pay a reparse per execution. Repeats of
// a read aggregate: when user issued the same text before and every entity
// the remembered query entity's edges point to is still the latest version
// of its name, that entity is returned with its execution count bumped
// (Catalog.Executions) and nothing else is added to the graph. Otherwise —
// a first execution, or a write since made a new table or column version —
// the statement is captured afresh and the new entity is remembered. A
// statement that writes never aggregates: each makes a new table version.
func (tr *SQLTracker) CaptureStmt(stmt sql.Statement, text, user string) *Entity {
	key := readKey{text, user}
	tr.mu.Lock()
	q := tr.reads[key]
	tr.mu.Unlock()
	if q != nil && tr.catalog.repeat(q.ID) {
		return q
	}
	acc := sql.Analyze(stmt)
	q = tr.captureStmt(stmt, acc, text, user)
	if len(acc.WriteTables) == 0 {
		tr.mu.Lock()
		tr.reads[key] = q
		tr.mu.Unlock()
	}
	return q
}

// CaptureLog lazily captures provenance from an audit chain,
// reconstructing the provenance model from history in one pass. An entry
// is a statement that ran when it is Allowed and its Detail (the formatted
// statement) parses; every other entry — a denial, a failed statement, a
// login or deploy record, text the parser rejects — is skipped and counted
// (the paper's module "specializes to the engine's parser" for those; we
// record them for inspection instead).
func (tr *SQLTracker) CaptureLog(log []governance.AuditEntry) (captured, skipped int) {
	for _, entry := range log {
		if !entry.Allowed {
			skipped++
			continue
		}
		stmt, err := sql.ParseOne(entry.Detail)
		if err != nil {
			skipped++
			continue
		}
		tr.captureStmt(stmt, sql.Analyze(stmt), entry.Detail, entry.User)
		captured++
	}
	return captured, skipped
}

// captureStmt adds one query entity for stmt and links it to what it reads,
// writes and scores.
func (tr *SQLTracker) captureStmt(stmt sql.Statement, acc sql.Access, text, user string) *Entity {
	tr.mu.Lock()
	tr.querySeq++
	seq := tr.querySeq
	tr.mu.Unlock()
	q := tr.catalog.NewVersion(TypeQuery, "q"+strconv.Itoa(seq), map[string]string{
		"text": text,
		"kind": stmtKind(stmt),
	})
	if user != "" {
		u := tr.catalog.Ensure(TypeUser, user)
		tr.catalog.AddEdge(q.ID, u.ID, EdgeIssuedBy)
	}

	// Reads: link to the *current* version of each input table and column,
	// so the temporal dimension is preserved. Following the paper's
	// coarse-grained model, SELECT statements record the input columns
	// "that affected the output" (projection and grouping columns), not
	// every filter column; DML statements record all referenced columns.
	for _, tab := range acc.ReadTables {
		te := tr.catalog.Ensure(TypeTable, tab)
		tr.catalog.AddEdge(q.ID, te.ID, EdgeReads)
	}
	readCols := acc.Columns
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		readCols = outputColumns(sel)
	}
	for qual, cols := range readCols {
		for _, col := range cols {
			owner := qual
			if owner == "" {
				// Unqualified columns attach to the single read table when
				// unambiguous; otherwise they attach to a query-scoped
				// pseudo-table, still useful for impact analysis.
				if len(acc.ReadTables) == 1 {
					owner = acc.ReadTables[0]
				} else if len(acc.WriteTables) == 1 {
					owner = acc.WriteTables[0]
				} else {
					owner = "?"
				}
			}
			ce := tr.catalog.Ensure(TypeColumn, owner+"."+col)
			tr.catalog.AddEdge(q.ID, ce.ID, EdgeReads)
			if owner != "?" {
				te := tr.catalog.Ensure(TypeTable, owner)
				tr.catalog.AddEdge(te.ID, ce.ID, EdgeHasColumn)
			}
		}
	}

	// Writes: a write creates a NEW VERSION of the table entity ("an
	// INSERT to a table results in a new version of the table in the
	// provenance data model"), and of every column the statement assigns —
	// the temporal dimension is tracked at column granularity so that
	// column-level impact analysis (C3) sees precise write points.
	for _, tab := range acc.WriteTables {
		tr.catalog.Ensure(TypeTable, tab) // make sure v1 exists
		te := tr.catalog.NewVersion(TypeTable, tab, nil)
		tr.catalog.AddEdge(q.ID, te.ID, EdgeWrites)
		written := writtenColumns(stmt)
		for _, col := range written {
			name := tab + "." + col
			tr.catalog.Ensure(TypeColumn, name)
			ce := tr.catalog.NewVersion(TypeColumn, name, nil)
			tr.catalog.AddEdge(q.ID, ce.ID, EdgeWrites)
			tr.catalog.AddEdge(te.ID, ce.ID, EdgeHasColumn)
		}
	}

	// Models scored by the query.
	for _, m := range acc.Models {
		me := tr.catalog.Ensure(TypeModel, m)
		tr.catalog.AddEdge(q.ID, me.ID, EdgeScores)
	}
	return q
}

// outputColumns collects the columns that affect a SELECT's output: the
// projection and GROUP BY expressions, recursing through FROM subqueries
// (whose outputs feed the outer query).
func outputColumns(s *sql.SelectStmt) map[string][]string {
	cols := map[string]map[string]bool{}
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			if cr, ok := x.(*sql.ColRef); ok {
				if cols[cr.Table] == nil {
					cols[cr.Table] = map[string]bool{}
				}
				cols[cr.Table][cr.Name] = true
			}
			return true
		})
	}
	var walk func(sel *sql.SelectStmt)
	walk = func(sel *sql.SelectStmt) {
		for _, it := range sel.Items {
			collect(it.Expr)
		}
		for _, g := range sel.GroupBy {
			collect(g)
		}
		for _, f := range sel.From {
			if f.Sub != nil {
				walk(f.Sub)
			}
		}
	}
	walk(s)
	out := map[string][]string{}
	for qual, set := range cols {
		for c := range set {
			out[qual] = append(out[qual], c)
		}
	}
	return out
}

// writtenColumns extracts the columns a DML statement assigns.
func writtenColumns(s sql.Statement) []string {
	switch st := s.(type) {
	case *sql.InsertStmt:
		return st.Columns
	case *sql.UpdateStmt:
		out := make([]string, len(st.Sets))
		for i, sc := range st.Sets {
			out[i] = sc.Column
		}
		return out
	case *sql.CreateTableStmt:
		out := make([]string, len(st.Columns))
		for i, c := range st.Columns {
			out[i] = c.Name
		}
		return out
	}
	return nil
}

func stmtKind(s sql.Statement) string {
	switch s.(type) {
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
	default:
		return "other"
	}
}

// RecordTraining links a model version to the datasets/tables it was
// trained on and the script that produced it — the cross-system bridge
// (challenge C3): the Python module finds the tables, the SQL module owns
// their entities, the catalog connects them.
func (tr *SQLTracker) RecordTraining(model string, version int, script string, tables []string, hyperparams map[string]string, metrics map[string]string) *Entity {
	name := fmt.Sprintf("%s@%d", model, version)
	mv := tr.catalog.Ensure(TypeModel, name)
	base := tr.catalog.Ensure(TypeModel, model)
	tr.catalog.AddEdge(base.ID, mv.ID, EdgeProduces)
	if script != "" {
		se := tr.catalog.Ensure(TypeScript, script)
		tr.catalog.AddEdge(se.ID, mv.ID, EdgeProduces)
	}
	for _, t := range tables {
		te := tr.catalog.Ensure(TypeTable, t)
		tr.catalog.AddEdge(mv.ID, te.ID, EdgeTrainedOn)
	}
	for k, v := range hyperparams {
		he := tr.catalog.Ensure(TypeHyperparam, name+"."+k)
		tr.catalog.SetAttr(he.ID, "value", v)
		tr.catalog.AddEdge(mv.ID, he.ID, EdgeHasParam)
	}
	for k, v := range metrics {
		me := tr.catalog.Ensure(TypeMetric, name+"."+k)
		tr.catalog.SetAttr(me.ID, "value", v)
		tr.catalog.AddEdge(mv.ID, me.ID, EdgeHasMetric)
	}
	return mv
}

// ImpactedModels answers the paper's C3 example: "if we change a column in
// a database, models trained in Python that depend on this column may need
// to be invalidated and retrained". It returns the model-version entities
// downstream of the given table.
func (tr *SQLTracker) ImpactedModels(table string) []*Entity {
	// Models point AT tables via TRAINED_ON; a model may reference any
	// historical version, so inspect every version of the table entity.
	seen := map[string]bool{}
	var out []*Entity
	for _, te := range tr.catalog.Versions(TypeTable, table) {
		for _, e := range tr.catalog.Lineage(te.ID, Upstream, 1) {
			if e.Type == TypeModel && !seen[e.ID] {
				seen[e.ID] = true
				out = append(out, e)
			}
		}
	}
	return out
}

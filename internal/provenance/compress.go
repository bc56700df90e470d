package provenance

import (
	"repro/internal/opt"
	"repro/internal/sql"
)

// Compression and summarization (the paper's answer to the provenance
// graph "becoming substantially large in size"): structurally identical
// queries — same template after literal normalization — are collapsed into
// a single template entity that carries an execution count (a query entity
// counts every execution SQLTracker.CaptureStmt folded into it), and their
// per-query read edges are replaced by template-level edges.

// CompressionResult reports the effect of a Compress run.
type CompressionResult struct {
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int
	TemplatesCreated        int
	QueriesCollapsed        int
}

// NormalizeStatement rewrites all literals in a statement to '?'
// placeholders and returns the canonical template text.
func NormalizeStatement(stmt sql.Statement) string {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return sql.FormatStatement(normalizeSelect(s))
	case *sql.InsertStmt:
		ns := &sql.InsertStmt{Table: s.Table, Columns: s.Columns}
		for _, row := range s.Rows {
			var nr []sql.Expr
			for _, e := range row {
				nr = append(nr, normalizeExpr(e))
			}
			ns.Rows = append(ns.Rows, nr)
		}
		return sql.FormatStatement(ns)
	case *sql.UpdateStmt:
		ns := &sql.UpdateStmt{Table: s.Table, Where: normalizeExpr(s.Where)}
		for _, sc := range s.Sets {
			ns.Sets = append(ns.Sets, sql.SetClause{Column: sc.Column, Value: normalizeExpr(sc.Value)})
		}
		return sql.FormatStatement(ns)
	case *sql.DeleteStmt:
		return sql.FormatStatement(&sql.DeleteStmt{Table: s.Table, Where: normalizeExpr(s.Where)})
	default:
		return sql.FormatStatement(stmt)
	}
}

func normalizeSelect(s *sql.SelectStmt) *sql.SelectStmt {
	ns := &sql.SelectStmt{Distinct: s.Distinct, Limit: -1}
	for _, it := range s.Items {
		ns.Items = append(ns.Items, sql.SelectItem{Star: it.Star, Alias: it.Alias, Expr: normalizeExpr(it.Expr)})
	}
	for _, f := range s.From {
		nf := f
		if f.Sub != nil {
			nf.Sub = normalizeSelect(f.Sub)
		}
		nf.On = normalizeExpr(f.On)
		ns.From = append(ns.From, nf)
	}
	ns.Where = normalizeExpr(s.Where)
	for _, g := range s.GroupBy {
		ns.GroupBy = append(ns.GroupBy, normalizeExpr(g))
	}
	ns.Having = normalizeExpr(s.Having)
	for _, o := range s.OrderBy {
		ns.OrderBy = append(ns.OrderBy, sql.OrderItem{Expr: normalizeExpr(o.Expr), Desc: o.Desc})
	}
	return ns
}

func normalizeExpr(e sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	return opt.RewriteExpr(e, func(x sql.Expr) sql.Expr {
		switch v := x.(type) {
		case *sql.Lit:
			return &sql.Lit{Kind: sql.LitString, S: "?"}
		case *sql.Interval:
			return &sql.Interval{Value: "?", Unit: v.Unit}
		case *sql.Subquery:
			return &sql.Subquery{Sel: normalizeSelect(v.Sel)}
		case *sql.Exists:
			return &sql.Exists{Sub: normalizeSelect(v.Sub), Not: v.Not}
		case *sql.InList:
			if v.Sub != nil {
				return &sql.InList{X: v.X, Sub: normalizeSelect(v.Sub), Not: v.Not}
			}
			// Collapse the whole list to one placeholder.
			return &sql.InList{X: v.X, List: []sql.Expr{&sql.Lit{Kind: sql.LitString, S: "?"}}, Not: v.Not}
		}
		return nil
	})
}

// Compress rebuilds the catalog with query entities collapsed into
// templates. It returns the new catalog and a report. The original catalog
// is left intact (compression is a materialization step, so the full
// fidelity graph can be archived first).
func Compress(c *Catalog) (*Catalog, CompressionResult) {
	var res CompressionResult
	res.NodesBefore, res.EdgesBefore = c.Size()

	out := NewCatalog()
	templates := map[string]*Entity{} // normalized text -> template entity
	queryToTemplate := map[string]string{}

	for _, q := range c.EntitiesOfType(TypeQuery) {
		text := q.Attrs["text"]
		stmt, err := sql.ParseOne(text)
		var norm string
		if err != nil {
			norm = text // keep unparseable queries as their own template
		} else {
			norm = NormalizeStatement(stmt)
		}
		tpl, ok := templates[norm]
		if !ok {
			tpl = out.NewVersion(TypeTemplate, norm, map[string]string{"count": "0", "kind": q.Attrs["kind"]})
			templates[norm] = tpl
			res.TemplatesCreated++
		} else {
			res.QueriesCollapsed++
		}
		execs, _ := c.Executions(q.ID)
		bump(tpl, execs)
		queryToTemplate[q.ID] = tpl.ID
	}

	// Re-add all non-query entities (latest versions only for tables —
	// the version chain is summarized into a "versions" attribute).
	versionCounts := map[string]int{}
	for id, e := range c.allEntities() {
		_ = id
		if e.Type == TypeQuery {
			continue
		}
		key := baseKey(e.Type, e.Name)
		if e.Version > versionCounts[key] {
			versionCounts[key] = e.Version
		}
	}
	for key, maxV := range versionCounts {
		// key is "<type>:<name>"
		t, name := splitKey(key)
		ne := out.Ensure(t, name)
		if ne.Attrs == nil {
			ne.Attrs = map[string]string{}
		}
		if maxV > 1 {
			ne.Attrs["versions"] = itoa(maxV)
		}
	}

	// Re-link edges at template granularity.
	for _, e := range c.allEdges() {
		from := e.From
		if t, ok := queryToTemplate[from]; ok {
			from = t
		} else {
			from = collapseID(from)
		}
		to := e.To
		if t, ok := queryToTemplate[to]; ok {
			to = t
		} else {
			to = collapseID(to)
		}
		if e.Label == EdgePrevious {
			continue // version chains are summarized
		}
		if from == to {
			continue
		}
		// Edges into collapsed entities point at version 1 in the new
		// catalog (Ensure created v1).
		out.AddEdge(from, to, e.Label)
	}

	res.NodesAfter, res.EdgesAfter = out.Size()
	return out, res
}

// bump adds execs executions to a template's count.
func bump(e *Entity, execs int64) {
	n := 0
	if e.Attrs != nil {
		n = atoi(e.Attrs["count"])
	} else {
		e.Attrs = map[string]string{}
	}
	e.Attrs["count"] = itoa(n + int(execs))
}

// collapseID maps "type:name@vN" to "type:name@v1" (all versions collapse).
func collapseID(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '@' {
			return id[:i] + "@v1"
		}
	}
	return id
}

func splitKey(key string) (EntityType, string) {
	for i := 0; i < len(key); i++ {
		if key[i] == ':' {
			return EntityType(key[:i]), key[i+1:]
		}
	}
	return EntityType(key), ""
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return n
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

// allEntities returns a snapshot of the entity map.
func (c *Catalog) allEntities() map[string]*Entity {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Entity, len(c.entities))
	for k, v := range c.entities {
		out[k] = v
	}
	return out
}

// allEdges returns a snapshot of the edges.
func (c *Catalog) allEdges() []Edge {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Edge(nil), c.edges...)
}

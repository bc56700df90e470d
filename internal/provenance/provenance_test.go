package provenance

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/governance"
	"repro/internal/sql"
)

func TestCatalogVersioning(t *testing.T) {
	c := NewCatalog()
	e1 := c.Ensure(TypeTable, "orders")
	if e1.Version != 1 {
		t.Fatalf("first version = %d", e1.Version)
	}
	if again := c.Ensure(TypeTable, "orders"); again.ID != e1.ID {
		t.Error("Ensure should be idempotent")
	}
	e2 := c.NewVersion(TypeTable, "orders", nil)
	if e2.Version != 2 {
		t.Fatalf("second version = %d", e2.Version)
	}
	if c.newest(TypeTable, "orders").ID != e2.ID {
		t.Error("Latest should return v2")
	}
	vs := c.Versions(TypeTable, "orders")
	if len(vs) != 2 || vs[0].Version != 1 || vs[1].Version != 2 {
		t.Errorf("versions = %v", vs)
	}
	// Version chain edge exists v2 -> v1.
	found := false
	for _, e := range c.edgesFrom(e2.ID) {
		if e.To == e1.ID && e.Label == EdgePrevious {
			found = true
		}
	}
	if !found {
		t.Error("missing PREVIOUS_VERSION edge")
	}
}

// TestCatalogEdgeDedup pins what dedup keys on: an edge is its (from,
// label, to) triple. A repeat is stored once; the same (label, to) from a
// second entity, or the same endpoints under another label, is a new edge.
func TestCatalogEdgeDedup(t *testing.T) {
	c := NewCatalog()
	a := c.Ensure(TypeQuery, "q1")
	a2 := c.Ensure(TypeQuery, "q2")
	b := c.Ensure(TypeTable, "t")
	c.AddEdge(a.ID, b.ID, EdgeReads)
	c.AddEdge(a.ID, b.ID, EdgeReads)
	if _, edges := c.Size(); edges != 1 {
		t.Errorf("edges = %d, want 1 (deduplicated)", edges)
	}
	c.AddEdge(a2.ID, b.ID, EdgeReads)
	c.AddEdge(a2.ID, b.ID, EdgeReads)
	c.AddEdge(a.ID, b.ID, EdgeWrites)
	if _, edges := c.Size(); edges != 3 {
		t.Errorf("edges = %d, want 3 (one per distinct from|label|to)", edges)
	}
	if got := c.edgesFrom(a.ID); len(got) != 2 || got[0].Label != EdgeReads || got[1].Label != EdgeWrites {
		t.Errorf("EdgesFrom(q1) = %v, want reads then writes", got)
	}
}

func TestLineage(t *testing.T) {
	c := NewCatalog()
	tab := c.Ensure(TypeTable, "train_data")
	model := c.Ensure(TypeModel, "churn@1")
	query := c.Ensure(TypeQuery, "q1")
	c.AddEdge(model.ID, tab.ID, EdgeTrainedOn)
	c.AddEdge(query.ID, model.ID, EdgeScores)

	down := c.Lineage(query.ID, Downstream, 0)
	if len(down) != 2 {
		t.Fatalf("downstream of query = %d entities", len(down))
	}
	up := c.Lineage(tab.ID, Upstream, 0)
	if len(up) != 2 { // model, then query
		t.Fatalf("upstream of table = %d entities", len(up))
	}
	limited := c.Lineage(tab.ID, Upstream, 1)
	if len(limited) != 1 || limited[0].Type != TypeModel {
		t.Errorf("depth-1 upstream = %v", limited)
	}
}

func TestCaptureQueryEager(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	q, err := tr.CaptureQuery("SELECT o.total, c.name FROM orders o JOIN customers c ON o.cid = c.id WHERE o.total > 10", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if q.Attrs["kind"] != "select" {
		t.Errorf("kind = %v", q.Attrs)
	}
	reads := 0
	for _, e := range c.edgesFrom(q.ID) {
		if e.Label == EdgeReads {
			reads++
		}
	}
	// 2 tables + the 2 output-affecting columns (o.total, c.name); the
	// join/filter columns do not affect the output in the coarse model.
	if reads != 4 {
		t.Errorf("read edges = %d, want 4", reads)
	}
	if c.newest(TypeUser, "alice") == nil {
		t.Error("user entity missing")
	}
}

func TestCaptureWriteCreatesVersion(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	if _, err := tr.CaptureQuery("INSERT INTO t (a) VALUES (1)", "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CaptureQuery("INSERT INTO t (a) VALUES (2)", "u"); err != nil {
		t.Fatal(err)
	}
	vs := c.Versions(TypeTable, "t")
	// v1 (ensure) + one new version per write = 3
	if len(vs) != 3 {
		t.Errorf("table versions = %d, want 3", len(vs))
	}
}

func TestCapturePredictLinksModel(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	q, err := tr.CaptureQuery("SELECT PREDICT(churn, age) FROM customers", "svc")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range c.edgesFrom(q.ID) {
		if e.Label == EdgeScores && strings.HasPrefix(e.To, "model:churn") {
			found = true
		}
	}
	if !found {
		t.Error("SCORES edge missing")
	}
}

// TestCaptureLogLazy: lazy capture reads an audit chain and keeps only the
// statements that ran — allowed entries whose Detail parses.
func TestCaptureLogLazy(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	log := []governance.AuditEntry{
		{Seq: 1, User: "u1", Action: "select", Detail: "SELECT a FROM t", Allowed: true},
		{Seq: 2, User: "u2", Action: "insert", Detail: "INSERT INTO t (a) VALUES (1)", Allowed: true},
		{Seq: 3, User: "u3", Action: "login", Detail: "session 0123abcd", Allowed: true},
		{Seq: 4, User: "u4", Action: "denied", Detail: "SELECT a FROM t", Allowed: false},
		{Seq: 5, User: "u2", Action: "insert", Detail: "INSERT INTO t (a) VALUES ('x')", Allowed: false},
	}
	captured, skipped := tr.CaptureLog(log)
	if captured != 2 || skipped != 3 {
		t.Errorf("captured=%d skipped=%d", captured, skipped)
	}
	if len(c.EntitiesOfType(TypeQuery)) != 2 {
		t.Error("query entities wrong")
	}
}

func TestRecordTrainingAndImpact(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	tr.RecordTraining("churn", 1, "train.py", []string{"customers", "events"},
		map[string]string{"n_trees": "100"}, map[string]string{"auc": "0.91"})
	tr.RecordTraining("fraud", 1, "fraud.py", []string{"transactions"}, nil, nil)

	impacted := tr.ImpactedModels("customers")
	if len(impacted) != 1 || impacted[0].Name != "churn@1" {
		t.Errorf("impacted = %v", impacted)
	}
	if len(tr.ImpactedModels("transactions")) != 1 {
		t.Error("fraud model not found")
	}
	if len(tr.ImpactedModels("nothing")) != 0 {
		t.Error("unknown table should impact nothing")
	}
	// Hyperparameters and metrics attached.
	mv := c.newest(TypeModel, "churn@1")
	var hasParam, hasMetric bool
	for _, e := range c.edgesFrom(mv.ID) {
		switch e.Label {
		case EdgeHasParam:
			hasParam = true
		case EdgeHasMetric:
			hasMetric = true
		}
	}
	if !hasParam || !hasMetric {
		t.Error("hyperparam/metric edges missing")
	}
}

func TestEndToEndLineageModelToRawTable(t *testing.T) {
	// Full chain: query scores model, model trained on table.
	c := NewCatalog()
	tr := NewSQLTracker(c)
	tr.RecordTraining("churn", 1, "train.py", []string{"customers"}, nil, nil)
	q, err := tr.CaptureQuery("SELECT PREDICT(churn, age) FROM live_data", "svc")
	if err != nil {
		t.Fatal(err)
	}
	// Hop 1: query -> model "churn"; model base PRODUCES churn@1; churn@1
	// TRAINED_ON customers. Verify "customers" is in the query's
	// downstream closure.
	found := false
	for _, e := range c.Lineage(q.ID, Downstream, 0) {
		if e.Type == TypeTable && e.Name == "customers" {
			found = true
		}
	}
	if !found {
		t.Error("training table not reachable from scoring query")
	}
}

func TestNormalizeStatement(t *testing.T) {
	s1 := mustParse(t, "SELECT a FROM t WHERE b > 5 AND c = 'x'")
	s2 := mustParse(t, "SELECT a FROM t WHERE b > 99 AND c = 'zzz'")
	s3 := mustParse(t, "SELECT a FROM t WHERE b > 5 AND d = 'x'")
	n1, n2, n3 := NormalizeStatement(s1), NormalizeStatement(s2), NormalizeStatement(s3)
	if n1 != n2 {
		t.Errorf("same template should normalize equal:\n%s\n%s", n1, n2)
	}
	if n1 == n3 {
		t.Error("different templates should normalize differently")
	}
	// IN lists of different lengths collapse to the same template.
	s4 := mustParse(t, "SELECT a FROM t WHERE b IN (1, 2)")
	s5 := mustParse(t, "SELECT a FROM t WHERE b IN (1, 2, 3, 4)")
	if NormalizeStatement(s4) != NormalizeStatement(s5) {
		t.Error("IN lists should collapse")
	}
}

func TestCompress(t *testing.T) {
	c := NewCatalog()
	tr := NewSQLTracker(c)
	// 50 queries from 2 templates.
	for i := 0; i < 25; i++ {
		if _, err := tr.CaptureQuery(fmt.Sprintf("SELECT a FROM t WHERE b = %d", i), "u"); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.CaptureQuery(fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i), "u"); err != nil {
			t.Fatal(err)
		}
	}
	nodesBefore, edgesBefore := c.Size()
	compressed, res := Compress(c)
	if res.TemplatesCreated != 2 {
		t.Errorf("templates = %d, want 2", res.TemplatesCreated)
	}
	if res.QueriesCollapsed != 48 {
		t.Errorf("collapsed = %d, want 48", res.QueriesCollapsed)
	}
	nodesAfter, edgesAfter := compressed.Size()
	if nodesAfter >= nodesBefore || edgesAfter >= edgesBefore {
		t.Errorf("compression did not shrink: %d/%d -> %d/%d",
			nodesBefore, edgesBefore, nodesAfter, edgesAfter)
	}
	// Original catalog untouched.
	n2, e2 := c.Size()
	if n2 != nodesBefore || e2 != edgesBefore {
		t.Error("Compress mutated the source catalog")
	}
	// Template carries its count.
	tpls := compressed.EntitiesOfType(TypeTemplate)
	var counts int
	for _, tpl := range tpls {
		counts += atoi(tpl.Attrs["count"])
	}
	if counts != 50 {
		t.Errorf("template counts sum = %d, want 50", counts)
	}

	// A read captured N times through CaptureStmt is one query entity that
	// stands for N executions; its template counts all N.
	const n = 10
	stmt := mustParse(t, "SELECT a FROM t WHERE b = 99")
	for i := 0; i < n; i++ {
		tr.CaptureStmt(stmt, sql.FormatStatement(stmt), "u")
	}
	if got := len(c.EntitiesOfType(TypeQuery)); got != 51 {
		t.Fatalf("query entities = %d, want 51 (the repeats fold into one)", got)
	}
	compressed, _ = Compress(c)
	for _, tpl := range compressed.EntitiesOfType(TypeTemplate) {
		want := 25
		if tpl.Attrs["kind"] == "select" {
			want += n
		}
		if got := atoi(tpl.Attrs["count"]); got != want {
			t.Errorf("template %q count = %d, want %d", tpl.Name, got, want)
		}
	}
}

// queryEntities returns the query entities whose text is text.
func queryEntities(c *Catalog, text string) []*Entity {
	var out []*Entity
	for _, q := range c.EntitiesOfType(TypeQuery) {
		if q.Attrs["text"] == text {
			out = append(out, q)
		}
	}
	return out
}

// TestCaptureStmtAggregatesRepeats pins CaptureStmt's aggregation: repeats
// of one read by one user are one entity with an execution count, until a
// write makes a new version of something the read links to.
func TestCaptureStmtAggregatesRepeats(t *testing.T) {
	capture := func(tr *SQLTracker, text, user string) *Entity {
		stmt := mustParse(t, text)
		return tr.CaptureStmt(stmt, sql.FormatStatement(stmt), user)
	}
	const read = "SELECT a, b FROM t WHERE a > 1"
	text := sql.FormatStatement(mustParse(t, read))

	t.Run("repeats fold", func(t *testing.T) {
		c := NewCatalog()
		tr := NewSQLTracker(c)
		const n = 20
		first := capture(tr, read, "u")
		nodes, edges := c.Size()
		for i := 1; i < n; i++ {
			if q := capture(tr, read, "u"); q != first {
				t.Fatalf("execution %d captured %s, want %s", i, q.ID, first.ID)
			}
		}
		if n2, e2 := c.Size(); n2 != nodes || e2 != edges {
			t.Errorf("repeats grew the graph: %d/%d -> %d/%d", nodes, edges, n2, e2)
		}
		count, last := c.Executions(first.ID)
		if count != n || last <= first.Seq {
			t.Errorf("Executions = %d at seq %d, want %d after seq %d", count, last, n, first.Seq)
		}
	})

	for _, write := range []string{"INSERT INTO t (a, b) VALUES (1, 2)", "UPDATE t SET b = 3 WHERE a = 1"} {
		t.Run("after "+strings.Fields(write)[0], func(t *testing.T) {
			c := NewCatalog()
			tr := NewSQLTracker(c)
			before := capture(tr, read, "u")
			capture(tr, read, "u")
			capture(tr, write, "u")
			after := capture(tr, read, "u")
			if after == before {
				t.Fatal("a read after a write reused the pre-write entity")
			}
			for _, tc := range []struct {
				typ  EntityType
				name string
			}{{TypeTable, "t"}, {TypeColumn, "t.b"}} {
				latest := c.newest(tc.typ, tc.name)
				linked := false
				for _, e := range c.edgesFrom(after.ID) {
					linked = linked || e.To == latest.ID
				}
				if !linked {
					t.Errorf("post-write read does not link %s (edges %v)", latest.ID, c.edgesFrom(after.ID))
				}
			}
			if q := capture(tr, read, "u"); q != after {
				t.Errorf("the post-write entity is not reused: got %s, want %s", q.ID, after.ID)
			}
			if n, _ := c.Executions(before.ID); n != 2 {
				t.Errorf("pre-write entity count = %d, want 2", n)
			}
			if n, _ := c.Executions(after.ID); n != 2 {
				t.Errorf("post-write entity count = %d, want 2", n)
			}
		})
	}

	t.Run("users are separate", func(t *testing.T) {
		c := NewCatalog()
		tr := NewSQLTracker(c)
		a := capture(tr, read, "alice")
		b := capture(tr, read, "bob")
		capture(tr, read, "alice")
		if a == b {
			t.Fatal("two users share one query entity")
		}
		if n, _ := c.Executions(a.ID); n != 2 {
			t.Errorf("alice count = %d, want 2", n)
		}
		if n, _ := c.Executions(b.ID); n != 1 {
			t.Errorf("bob count = %d, want 1", n)
		}
	})

	t.Run("writes never fold", func(t *testing.T) {
		c := NewCatalog()
		tr := NewSQLTracker(c)
		const write = "INSERT INTO t (a, b) VALUES (1, 2)"
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			q := capture(tr, write, "u")
			if seen[q.ID] {
				t.Fatalf("write %d reused %s", i, q.ID)
			}
			seen[q.ID] = true
			if n, _ := c.Executions(q.ID); n != 1 {
				t.Errorf("write entity count = %d, want 1", n)
			}
		}
		if got := len(c.Versions(TypeTable, "t")); got != 4 {
			t.Errorf("table versions = %d, want 4", got)
		}
	})

	t.Run("concurrent counts sum", func(t *testing.T) {
		c := NewCatalog()
		tr := NewSQLTracker(c)
		stmt := mustParse(t, read)
		const workers, per = 8, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tr.CaptureStmt(stmt, text, "u")
				}
			}()
		}
		wg.Wait()
		var total int64
		for _, q := range queryEntities(c, text) {
			n, _ := c.Executions(q.ID)
			total += n
		}
		if total != workers*per {
			t.Errorf("execution counts sum to %d, want %d", total, workers*per)
		}
	})
}

// Property: versions are strictly increasing and contiguous regardless of
// the interleaving of Ensure/NewVersion calls.
func TestVersionMonotonicProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := NewCatalog()
		want := 0
		for _, newVer := range ops {
			if newVer {
				e := c.NewVersion(TypeTable, "t", nil)
				want++
				if e.Version != want {
					return false
				}
			} else {
				e := c.Ensure(TypeTable, "t")
				if want == 0 {
					want = 1
				}
				if e.Version != want {
					return false
				}
			}
		}
		return len(c.Versions(TypeTable, "t")) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustParse(t *testing.T, q string) sql.Statement {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

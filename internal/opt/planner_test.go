package opt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/sql"
)

type fakeModels map[string]*onnx.Graph

func (f fakeModels) GraphFor(name string) (*onnx.Graph, error) {
	g, ok := f[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return g, nil
}

type fakeCatalog struct {
	cols map[string][]string
}

func (c *fakeCatalog) TableColumns(table string) ([]string, error) {
	cols, ok := c.cols[table]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	return cols, nil
}

func testGraph(t *testing.T) *onnx.Graph {
	t.Helper()
	r := ml.NewRand(5)
	n := 300
	ages := make([]float64, n)
	regions := make([]string, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		ages[i] = 20 + r.Float64()*50
		regions[i] = []string{"us", "eu"}[r.Intn(2)]
		if ages[i] > 45 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().AddNumeric("age", ages).AddCategorical("region", regions)
	p := ml.NewPipeline("m",
		ml.NewFeaturizer().With("age", &ml.StandardScaler{}).With("region", &ml.OneHotEncoder{}),
		&ml.LogisticRegression{Epochs: 30})
	if err := p.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	g, err := onnx.Export(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func plan(t *testing.T, q string, models ModelProvider, cat CatalogInfo, level Level) *Plan {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanSelect(stmt.(*sql.SelectStmt), models, cat, level)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func defaultCatalog() *fakeCatalog {
	return &fakeCatalog{cols: map[string][]string{
		"customers": {"id", "age", "region"},
		"orders":    {"id", "cust_id", "amount"},
	}}
}

func TestPlanSimpleSelect(t *testing.T) {
	pl := plan(t, "SELECT id FROM customers WHERE age > 30", nil, defaultCatalog(), LevelFull)
	proj, ok := pl.Root.(*Project)
	if !ok {
		t.Fatalf("root is %T", pl.Root)
	}
	sc, ok := proj.Input.(*Scan)
	if !ok {
		t.Fatalf("input is %T, want Scan with pushed filter", proj.Input)
	}
	if len(sc.Filters) != 1 {
		t.Errorf("pushed filters = %d", len(sc.Filters))
	}
}

func TestPlanPredictExtraction(t *testing.T) {
	g := testGraph(t)
	models := fakeModels{"m": g}
	q := "SELECT id, PREDICT(m, age, region) AS s FROM customers WHERE PREDICT(m, age, region) > 0.5 AND age > 30"

	// LevelUDF: no extraction.
	pl := plan(t, q, models, defaultCatalog(), LevelUDF)
	if pl.Report.PredictsExtracted != 0 {
		t.Errorf("UDF level extracted %d predicts", pl.Report.PredictsExtracted)
	}

	// LevelVectorized: extraction, no pushdown.
	pl = plan(t, q, models, defaultCatalog(), LevelVectorized)
	if pl.Report.PredictsExtracted != 1 {
		t.Errorf("extracted = %d, want 1 (deduplicated)", pl.Report.PredictsExtracted)
	}
	if pl.Report.PushedDown != 0 {
		t.Errorf("vectorized level pushed down %d", pl.Report.PushedDown)
	}

	// LevelFull: pushdown fires; push-up must NOT fire (score projected).
	pl = plan(t, q, models, defaultCatalog(), LevelFull)
	if pl.Report.PushedDown != 1 {
		t.Errorf("pushdown = %d, want 1", pl.Report.PushedDown)
	}
	if pl.Report.PushedUp {
		t.Error("push-up must not fire when the score is projected")
	}
}

func TestPlanPushUpOnlyWhenScoreUnused(t *testing.T) {
	g := testGraph(t)
	models := fakeModels{"m": g}
	q := "SELECT id FROM customers WHERE PREDICT(m, age, region) >= 0.8"
	pl := plan(t, q, models, defaultCatalog(), LevelFull)
	if !pl.Report.PushedUp {
		t.Error("push-up should fire")
	}
	// The predict node's graph must have lost its sigmoid.
	var pn *Predict
	walkPlan(pl.Root, func(n Node) {
		if p, ok := n.(*Predict); ok {
			pn = p
		}
	})
	if pn == nil {
		t.Fatal("no Predict node in plan")
	}
	if pn.Graph.Model.PostSigmoid {
		t.Error("sigmoid not removed by push-up")
	}
	if pn.Compare == nil {
		t.Error("compare not fused")
	}
}

func TestPlanAggregateRewrite(t *testing.T) {
	pl := plan(t, `SELECT region, count(*) AS n, sum(age) AS s FROM customers
		GROUP BY region HAVING count(*) > 1 ORDER BY s DESC LIMIT 5`,
		nil, defaultCatalog(), LevelFull)
	lim, ok := pl.Root.(*Limit)
	if !ok {
		t.Fatalf("root %T, want Limit", pl.Root)
	}
	srt, ok := lim.Input.(*Sort)
	if !ok {
		t.Fatalf("below limit %T, want Sort", lim.Input)
	}
	proj, ok := srt.Input.(*Project)
	if !ok {
		t.Fatalf("below sort %T, want Project", srt.Input)
	}
	flt, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("below project %T, want Filter (HAVING)", proj.Input)
	}
	agg, ok := flt.Input.(*Aggregate)
	if !ok {
		t.Fatalf("below having %T, want Aggregate", flt.Input)
	}
	if len(agg.Aggs) != 2 {
		t.Errorf("aggs = %d, want 2 (count deduplicated with having)", len(agg.Aggs))
	}
	if agg.GroupNames[0] != "region" {
		t.Errorf("group names = %v", agg.GroupNames)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := defaultCatalog()
	for _, q := range []string{
		"SELECT id FROM ghost",
		"SELECT id FROM customers WHERE id IN (SELECT id FROM orders)",
		"SELECT *, count(*) FROM customers GROUP BY id",
		"SELECT PREDICT(nope, age) FROM customers",
	} {
		stmt, err := sql.ParseOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanSelect(stmt.(*sql.SelectStmt), fakeModels{}, cat, LevelFull); err == nil {
			t.Errorf("expected planning error for %q", q)
		}
	}
}

func TestSplitAndAll(t *testing.T) {
	stmt, _ := sql.ParseOne("SELECT 1 FROM customers WHERE a = 1 AND b = 2 AND c = 3")
	where := stmt.(*sql.SelectStmt).Where
	parts := SplitConjuncts(where)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	back := AndAll(parts)
	if sql.FormatExpr(back) != sql.FormatExpr(where) {
		t.Errorf("AndAll(SplitConjuncts(x)) != x: %s", sql.FormatExpr(back))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
}

func TestRewriteExprDoesNotMutate(t *testing.T) {
	stmt, _ := sql.ParseOne("SELECT a + b * 2 FROM customers")
	orig := stmt.(*sql.SelectStmt).Items[0].Expr
	before := sql.FormatExpr(orig)
	out := RewriteExpr(orig, func(e sql.Expr) sql.Expr {
		if cr, ok := e.(*sql.ColRef); ok && cr.Name == "a" {
			return &sql.ColRef{Name: "z"}
		}
		return nil
	})
	if sql.FormatExpr(orig) != before {
		t.Error("RewriteExpr mutated its input")
	}
	if sql.FormatExpr(out) == before {
		t.Error("RewriteExpr did not apply the transform")
	}
}

func TestJoinConditionScanAssignment(t *testing.T) {
	pl := plan(t, `SELECT c.id FROM customers c JOIN orders o ON c.id = o.cust_id
		WHERE c.age > 30 AND o.amount > 100`, nil, defaultCatalog(), LevelFull)
	// Both single-table conjuncts should be pushed into their scans.
	var scanFilters int
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scanFilters += len(x.Filters)
		case *Project:
			walk(x.Input)
		case *Filter:
			walk(x.Input)
		case *Join:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(pl.Root)
	if scanFilters != 2 {
		t.Errorf("scan filters = %d, want 2", scanFilters)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelUDF: "udf", LevelVectorized: "vectorized",
		LevelParallel: "parallel", LevelFull: "full",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q", int(l), l.String())
		}
	}
}

func TestFormatPlan(t *testing.T) {
	g := testGraph(t)
	pl := plan(t, `SELECT region, count(*) AS n FROM customers
		WHERE age > 30 AND PREDICT(m, age, region) >= 0.8
		GROUP BY region ORDER BY n DESC LIMIT 3`,
		fakeModels{"m": g}, defaultCatalog(), LevelFull)
	out := FormatPlan(pl.Root)
	for _, want := range []string{"Limit(3)", "Sort(", "Aggregate(", "Predict(model=m", "fused-compare", "Scan(customers"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	// The pushed-down filter lives on the scan, below the predict.
	if !strings.Contains(out, "filter=") {
		t.Errorf("pushed filter missing:\n%s", out)
	}
}

// benchCatalog mirrors the tables the scan_agg and predict_scan workloads
// query.
func benchCatalog() *fakeCatalog {
	return &fakeCatalog{cols: map[string][]string{
		"customers": {"id", "age", "income", "tenure", "region", "notes"},
		"visits":    {"id", "cust_id", "amount"},
	}}
}

// TestPlanGoldenScanAggShapes pins, through the EXPLAIN rendering, what each
// scan_agg statement shape is annotated with: the columns every scan emits
// (cols=…) and the bound on every sort under a LIMIT (top=…).
func TestPlanGoldenScanAggShapes(t *testing.T) {
	for _, tc := range []struct{ name, query, want string }{
		{"filter_count",
			`SELECT count(*) FROM customers WHERE age > 35.0 AND income < 130000.0`,
			`Project(agg_1 AS agg_1)
  Aggregate(group=[] aggs=[count(*) AS agg_1])
    Scan(customers) cols=[] filter=((age > 35.0) AND (income < 130000.0))
`},
		{"group_region",
			`SELECT region, count(*), avg(income), sum(tenure) FROM customers WHERE age > 30.0 GROUP BY region ORDER BY region`,
			`Sort(region)
  Project(region AS region, agg_1 AS agg_1, agg_2 AS agg_2, agg_3 AS agg_3)
    Aggregate(group=[region] aggs=[count(*) AS agg_1, avg(income) AS agg_2, sum(tenure) AS agg_3])
      Scan(customers) cols=[income tenure region] filter=(age > 30.0)
`},
		{"distinct",
			`SELECT DISTINCT region, notes FROM customers WHERE age > 30.0 ORDER BY region, notes`,
			`Sort(region, notes)
  Distinct
    Project(region AS region, notes AS notes)
      Scan(customers) cols=[region notes] filter=(age > 30.0)
`},
		{"topk",
			`SELECT id, income FROM customers WHERE tenure > 2.5 ORDER BY income DESC LIMIT 100`,
			`Limit(100)
  Sort(income DESC) top=100
    Project(id AS id, income AS income)
      Scan(customers) cols=[id income] filter=(tenure > 2.5)
`},
		{"join_group",
			`SELECT c.region, count(*), sum(v.amount) FROM visits v JOIN customers c ON v.cust_id = c.id WHERE v.amount > 12.5 GROUP BY c.region ORDER BY c.region`,
			`Sort(region)
  Project(region AS region, agg_1 AS agg_1, agg_2 AS agg_2)
    Aggregate(group=[c.region] aggs=[count(*) AS agg_1, sum(v.amount) AS agg_2])
      InnerJoin((v.cust_id = c.id))
        Scan(visits AS v) cols=[id cust_id amount] filter=(amount > 12.5)
        Scan(customers AS c) cols=[id region]
`},
	} {
		pl := plan(t, tc.query, nil, benchCatalog(), LevelFull)
		if got := FormatPlan(pl.Root); got != tc.want {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want)
		}
	}
}

// scanOf returns the plan's single scan.
func scanOf(t *testing.T, root Node) *Scan {
	t.Helper()
	var found *Scan
	walkPlan(root, func(n Node) {
		if sc, ok := n.(*Scan); ok {
			found = sc
		}
	})
	if found == nil {
		t.Fatalf("no scan in:\n%s", FormatPlan(root))
	}
	return found
}

func walkPlan(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, in := range Inputs(n) {
		walkPlan(in, fn)
	}
}

// TestPruneFollowsModelInputs pins the predict_scan shape: the scan emits
// the model's inputs and nothing else at every level — and once the
// cross-optimizer drops an input the model does not read, the scan stops
// emitting that column too (the prune pass runs after compressModels).
func TestPruneFollowsModelInputs(t *testing.T) {
	const q = `SELECT count(*) FROM customers WHERE id BETWEEN 1 AND 12288 AND PREDICT(m, age, region) > 0.5`
	g := testGraph(t)
	for _, level := range []Level{LevelUDF, LevelVectorized, LevelParallel, LevelFull} {
		pl := plan(t, q, fakeModels{"m": g}, benchCatalog(), level)
		want := []string{"age", "region"}
		if level == LevelVectorized || level == LevelParallel {
			// Only LevelFull pushes the id conjunct below an extracted
			// Predict; here a Filter above the scan reads it.
			want = []string{"id", "age", "region"}
		}
		if sc := scanOf(t, pl.Root); !slices.Equal(sc.Cols, want) {
			t.Errorf("level %v: scan cols = %v, want %v\n%s", level, sc.Cols, want, FormatPlan(pl.Root))
		}
	}

	// A model whose region block is all zeros never reads region.
	dead := g.Clone()
	for i := range dead.Feats {
		if f := &dead.Feats[i]; f.Input == "region" {
			for j := 0; j < f.Width(); j++ {
				dead.Model.Coeff[f.Offset+j] = 0
			}
		}
	}
	pl := plan(t, q, fakeModels{"m": dead}, benchCatalog(), LevelFull)
	if !slices.Contains(pl.Report.PrunedInputs, "region") {
		t.Fatalf("region not pruned from the model: %v", pl.Report.PrunedInputs)
	}
	if sc := scanOf(t, pl.Root); !slices.Equal(sc.Cols, []string{"age"}) {
		t.Errorf("scan cols = %v, want [age]\n%s", sc.Cols, FormatPlan(pl.Root))
	}
	// The UDF baseline scores inside the expression and must keep both.
	pl = plan(t, q, fakeModels{"m": dead}, benchCatalog(), LevelUDF)
	if sc := scanOf(t, pl.Root); !slices.Equal(sc.Cols, []string{"age", "region"}) {
		t.Errorf("udf scan cols = %v\n%s", sc.Cols, FormatPlan(pl.Root))
	}
}

// TestPruneNeededSets covers the per-node rules the goldens above do not
// reach: SELECT * and hand-built scans need everything (nil), DISTINCT over a
// star sub-plan needs whole rows, a star sub-plan without DISTINCT passes the
// outer set through, and names match across join sides and qualifiers.
func TestPruneNeededSets(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  map[string][]string // scan alias -> Cols (nil = everything)
	}{
		{`SELECT * FROM customers WHERE age > 30`, map[string][]string{"customers": nil}},
		{`SELECT * FROM customers ORDER BY income LIMIT 5`, map[string][]string{"customers": nil}},
		{`SELECT id FROM (SELECT DISTINCT * FROM customers) q`, map[string][]string{"customers": nil}},
		{`SELECT id FROM (SELECT * FROM customers WHERE age > 30 ORDER BY income LIMIT 5) q WHERE tenure > 1`,
			map[string][]string{"customers": {"id", "income", "tenure"}}},
		{`SELECT n FROM (SELECT id AS n, age FROM customers) q`, map[string][]string{"customers": {"id", "age"}}},
		{`SELECT c.region FROM visits v JOIN customers c ON v.cust_id = c.id`,
			map[string][]string{"v": {"id", "cust_id"}, "c": {"id", "region"}}},
		{`SELECT region, count(*) FROM customers GROUP BY region HAVING sum(income) > 10`,
			map[string][]string{"customers": {"income", "region"}}},
		{`SELECT id FROM customers ORDER BY tenure DESC LIMIT 3`, map[string][]string{"customers": {"id", "tenure"}}},
	} {
		pl := plan(t, tc.query, nil, benchCatalog(), LevelFull)
		got := map[string][]string{}
		walkPlan(pl.Root, func(n Node) {
			if sc, ok := n.(*Scan); ok {
				got[sc.Alias] = sc.Cols
			}
		})
		for alias, want := range tc.want {
			cols, ok := got[alias]
			if !ok || (want == nil) != (cols == nil) || !slices.Equal(cols, want) {
				t.Errorf("%s: scan %s cols = %#v, want %#v", tc.query, alias, cols, want)
			}
		}
	}
}

// TestOrderByOutsideSelectList pins where the sort goes when a key is not a
// projected column: below the projection, on the input schema, with aliases
// mapped back to their expressions — and still bounded by the LIMIT.
func TestOrderByOutsideSelectList(t *testing.T) {
	pl := plan(t, `SELECT id AS k, income * 2 AS dbl FROM customers ORDER BY dbl DESC, tenure, k LIMIT 7`,
		nil, benchCatalog(), LevelFull)
	want := `Limit(7)
  Project(id AS k, (income * 2) AS dbl)
    Sort((income * 2) DESC, tenure, id) top=7
      Scan(customers) cols=[id income tenure]
`
	if got := FormatPlan(pl.Root); got != want {
		t.Errorf("got:\n%s want:\n%s", got, want)
	}

	// Keys that all resolve against the select list keep the sort on top.
	pl = plan(t, `SELECT id AS k, income FROM customers ORDER BY income, k`, nil, benchCatalog(), LevelFull)
	if _, ok := pl.Root.(*Sort); !ok {
		t.Errorf("root %T, want Sort above the projection:\n%s", pl.Root, FormatPlan(pl.Root))
	}

	stmt, err := sql.ParseOne(`SELECT DISTINCT region FROM customers ORDER BY income`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = PlanSelect(stmt.(*sql.SelectStmt), nil, benchCatalog(), LevelFull)
	if err == nil || !strings.Contains(err.Error(), "for SELECT DISTINCT, ORDER BY expressions must appear in select list") {
		t.Errorf("DISTINCT with an unprojected key: err = %v", err)
	}
}

// TestSortTopK pins when a sort is bounded: only with a positive LIMIT.
func TestSortTopK(t *testing.T) {
	for query, want := range map[string]int64{
		`SELECT id FROM customers ORDER BY id`:                                           0,
		`SELECT id FROM customers ORDER BY id LIMIT 0`:                                   0,
		`SELECT id FROM customers ORDER BY id LIMIT 9`:                                   9,
		`SELECT DISTINCT region FROM customers ORDER BY region LIMIT 2`:                  2,
		`SELECT region, count(*) AS n FROM customers GROUP BY region ORDER BY n LIMIT 4`: 4,
	} {
		pl := plan(t, query, nil, benchCatalog(), LevelFull)
		var got int64 = -1
		walkPlan(pl.Root, func(n Node) {
			if s, ok := n.(*Sort); ok {
				got = s.TopK
			}
		})
		if got != want {
			t.Errorf("%s: TopK = %d, want %d", query, got, want)
		}
	}
}

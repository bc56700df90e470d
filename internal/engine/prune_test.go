package engine

// Projection pruning is pinned by counting and by comparing, never by clock:
// ExecCounters.CellsGathered says how much a scan copied, and a plan with
// every Scan.Cols reset to nil (what the executor ran before scans were
// annotated) must return the same rows as the annotated one.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

// pruneTestDB builds a six-column customers table (the benchmark's shape), a
// visits table that shares the column name id with it, and a churn model over
// (age, income, tenure, region). tenure is constant, so no tree can split on
// it and LevelFull's model pruning drops that input.
func pruneTestDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	r := ml.NewRand(7)
	ids := make([]int64, n)
	ages := make([]float64, n)
	income := make([]float64, n)
	tenure := make([]float64, n)
	regions := make([]string, n)
	notes := make([]string, n)
	y := make([]float64, n)
	regionNames := []string{"us", "eu", "apac", "latam"}
	for i := 0; i < n; i++ {
		ids[i] = int64(i + 1)
		ages[i] = 20 + r.Float64()*50
		income[i] = 20000 + r.Float64()*100000
		tenure[i] = 3
		regions[i] = regionNames[r.Intn(4)]
		notes[i] = fmt.Sprintf("note %d", i%17)
		if (ages[i]-45)/12+(income[i]-70000)/40000 > 0 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().
		AddNumeric("age", ages).AddNumeric("income", income).AddNumeric("tenure", tenure).
		AddCategorical("region", regions)
	pipe := ml.NewPipeline("churn",
		ml.NewFeaturizer().
			With("age", &ml.StandardScaler{}).With("income", &ml.StandardScaler{}).
			With("tenure", &ml.StandardScaler{}).With("region", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 10, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := pipe.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		t.Fatal(err)
	}
	db.SetModelProvider(fakeModels{"churn": g})
	if _, err := db.CreateTableFromColumns("customers",
		[]string{"id", "age", "income", "tenure", "region", "notes"},
		[]Column{IntColumn(ids), FloatColumn(ages), FloatColumn(income), FloatColumn(tenure),
			StringColumn(regions), StringColumn(notes)}); err != nil {
		t.Fatal(err)
	}
	const visits = 300
	vid := make([]int64, visits)
	cust := make([]int64, visits)
	amount := make([]float64, visits)
	for i := 0; i < visits; i++ {
		vid[i] = int64(i + 1)
		cust[i] = int64(r.Intn(n+50) + 1) // some visits match no customer
		amount[i] = r.Float64() * 40
	}
	if _, err := db.CreateTableFromColumns("visits",
		[]string{"id", "cust_id", "amount"},
		[]Column{IntColumn(vid), IntColumn(cust), FloatColumn(amount)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPlan(t testing.TB, db *DB, query string, level opt.Level) *opt.Plan {
	t.Helper()
	stmt, err := sql.ParseOne(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	plan, err := db.PlanSelect(stmt.(*sql.SelectStmt), level)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return plan
}

// walkScans visits every Scan of a plan.
func walkScans(n opt.Node, fn func(*opt.Scan)) {
	if s, ok := n.(*opt.Scan); ok {
		fn(s)
	}
	for _, in := range opt.Inputs(n) {
		walkScans(in, fn)
	}
}

// TestScanGathersOnlyReadColumns counts the cells scans copy on a six-column
// table: none under count(*), two columns' worth under a two-column top-k,
// all six under SELECT *, and not the column of a model input that the
// cross-optimizer dropped.
func TestScanGathersOnlyReadColumns(t *testing.T) {
	const n = 6000
	db := pruneTestDB(t, n)
	count := func(query string) int64 {
		res, err := db.Exec(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return boxed(res)[0][0].(int64)
	}
	cells := func(query string, level opt.Level) (int64, *opt.Plan) {
		plan := mustPlan(t, db, query, level)
		var c ExecCounters
		if _, err := db.ExecPlanContext(context.Background(), plan, ExecOptions{Level: level, Counters: &c}); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if got := c.RowsScanned.Load(); got != n {
			t.Errorf("%s: scanned %d rows, want %d (pruning must not change what is scanned)", query, got, n)
		}
		return c.CellsGathered.Load(), plan
	}

	old := count(`SELECT count(*) FROM customers WHERE age > 40.0`)
	if old == 0 || old == n {
		t.Fatalf("age > 40 keeps %d of %d rows; the test is vacuous", old, n)
	}
	if got, _ := cells(`SELECT count(*) FROM customers WHERE age > 40.0`, opt.LevelFull); got != 0 {
		t.Errorf("count(*) gathered %d cells, want 0", got)
	}
	if got, _ := cells(`SELECT id, income FROM customers WHERE age > 40.0 ORDER BY income DESC LIMIT 100`, opt.LevelFull); got != 2*old {
		t.Errorf("two-column top-k gathered %d cells, want %d", got, 2*old)
	}
	if got, _ := cells(`SELECT * FROM customers WHERE age > 40.0`, opt.LevelFull); got != 6*old {
		t.Errorf("SELECT * gathered %d cells, want %d", got, 6*old)
	}
	// The stream path (a cursor over Project/Scan) copies the same cells.
	if got, _ := cells(`SELECT id FROM customers WHERE age > 40.0`, opt.LevelFull); got != old {
		t.Errorf("one-column stream gathered %d cells, want %d", got, old)
	}

	const predict = `SELECT count(*) FROM customers WHERE age > 40.0 AND PREDICT(churn, age, income, tenure, region) > 0.5`
	got, plan := cells(predict, opt.LevelFull)
	if !slices.Contains(plan.Report.PrunedInputs, "tenure") {
		t.Fatalf("tenure was not pruned from the model: %v", plan.Report.PrunedInputs)
	}
	walkScans(plan.Root, func(sc *opt.Scan) {
		if slices.Contains(sc.Cols, "tenure") || len(sc.Cols) == 0 {
			t.Errorf("scan cols = %v, want the surviving model inputs only", sc.Cols)
		}
		if want := int64(len(sc.Cols)) * old; got != want {
			t.Errorf("PREDICT scan gathered %d cells, want %d (%v)", got, want, sc.Cols)
		}
	})
}

// unpruned returns a second plan of the same statement with every scan reset
// to "emit everything".
func unpruned(t testing.TB, db *DB, query string, level opt.Level) *opt.Plan {
	plan := mustPlan(t, db, query, level)
	walkScans(plan.Root, func(sc *opt.Scan) { sc.Cols = nil })
	return plan
}

// requireIdenticalRowSets compares two rowsets exactly, floats by bit pattern
// (NaN equals NaN, -0.0 differs from 0.0).
func requireIdenticalRowSets(t *testing.T, label string, want, got *RowSet) {
	t.Helper()
	if want.N != got.N || len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: %d rows × %d cols, want %d × %d", label, got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for c := range want.Cols {
		if want.Schema[c].Name != got.Schema[c].Name || want.Cols[c].Type != got.Cols[c].Type {
			t.Fatalf("%s: column %d is %s %v, want %s %v", label, c,
				got.Schema[c].Name, got.Cols[c].Type, want.Schema[c].Name, want.Cols[c].Type)
		}
		w, g := &want.Cols[c], &got.Cols[c]
		for r := 0; r < want.N; r++ {
			var same bool
			switch w.Type {
			case TypeInt:
				same = w.Ints[r] == g.Ints[r]
			case TypeFloat:
				same = math.Float64bits(w.Floats[r]) == math.Float64bits(g.Floats[r])
			case TypeString:
				same = w.Strs[r] == g.Strs[r]
			case TypeBool:
				same = w.Bools[r] == g.Bools[r]
			}
			if !same {
				t.Fatalf("%s: row %d column %s = %v, want %v", label, r, want.Schema[c].Name, g.Value(r), w.Value(r))
			}
		}
	}
}

// TestPrunedPlanMatchesUnpruned is the differential for pruning: there is no
// switch to turn it off, so the reference is the same plan with the
// annotations erased.
func TestPrunedPlanMatchesUnpruned(t *testing.T) {
	db := pruneTestDB(t, 3000)
	// A second version of customers for time travel: version 1 holds the
	// loaded rows, the update below makes version 2.
	if _, err := db.Exec(`UPDATE customers SET income = income + 1.0 WHERE id <= 10`); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("customers")
	past := tab.Version() - 1

	queries := []string{
		`SELECT * FROM customers WHERE age > 45.0`,
		`SELECT * FROM customers WHERE age > 45.0 ORDER BY income DESC LIMIT 40`,
		`SELECT id, region FROM (SELECT * FROM customers WHERE age > 30.0) q WHERE income < 90000.0 ORDER BY tenure, id DESC`,
		`SELECT notes FROM (SELECT DISTINCT * FROM customers) q`,
		`SELECT c.id, v.id, amount FROM visits v JOIN customers c ON v.cust_id = c.id WHERE c.age > 25.0`,
		`SELECT region, amount FROM visits JOIN customers ON cust_id = customers.id WHERE amount > 5.0`,
		`SELECT v.id, v.amount, c.region FROM visits v LEFT JOIN customers c ON v.cust_id = c.id ORDER BY v.id`,
		`SELECT c.region, count(*), sum(v.amount) FROM visits v JOIN customers c ON v.cust_id = c.id WHERE v.amount > 12.5 GROUP BY c.region ORDER BY c.region`,
		`SELECT region, count(*) AS n, avg(income) AS a FROM customers WHERE age > 30.0 GROUP BY region HAVING sum(tenure) > 100.0 ORDER BY n DESC, region`,
		`SELECT DISTINCT region, notes FROM customers WHERE age > 50.0 ORDER BY region, notes`,
		`SELECT count(*) FROM customers WHERE age > 35.0 AND income < 130000.0`,
		`SELECT id FROM customers WHERE income > 60000.0 ORDER BY tenure, age DESC LIMIT 25`,
		fmt.Sprintf(`SELECT id, income FROM customers VERSION %d WHERE id <= 20 ORDER BY id`, past),
		fmt.Sprintf(`SELECT count(*), sum(income) FROM customers VERSION %d WHERE age > 40.0`, past),
	}
	levels := []opt.Level{opt.LevelFull}
	run := func(query string, level opt.Level) {
		o := ExecOptions{Level: level}
		want, err := db.ExecPlanContext(context.Background(), unpruned(t, db, query, level), o)
		if err != nil {
			t.Fatalf("%s (unpruned): %v", query, err)
		}
		got, err := db.ExecPlanContext(context.Background(), mustPlan(t, db, query, level), o)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if want.N == 0 {
			t.Fatalf("%s: no rows; the comparison is vacuous", query)
		}
		requireIdenticalRowSets(t, fmt.Sprintf("%s @%v", query, level), want, got)
	}
	for _, q := range queries {
		for _, level := range levels {
			run(q, level)
		}
	}
	// PREDICT: in the select list, as a fused threshold, and both — at the
	// Figure-4 baseline (in-expression), vectorized and with the model-side
	// rewrites on.
	for _, q := range []string{
		`SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM customers WHERE id <= 64 ORDER BY id`,
		`SELECT count(*) FROM customers WHERE id <= 500 AND PREDICT(churn, age, income, tenure, region) > 0.5`,
		`SELECT id, notes FROM customers WHERE id <= 300 AND PREDICT(churn, age, income, tenure, region) > 0.5 ORDER BY PREDICT(churn, age, income, tenure, region) DESC, id LIMIT 10`,
	} {
		for _, level := range []opt.Level{opt.LevelUDF, opt.LevelVectorized, opt.LevelFull} {
			run(q, level)
		}
	}
}

package engine

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	sqlpkg "repro/internal/sql"
)

// boxed is res's rows with every cell boxed, for comparing answers.
func boxed(res *Result) [][]any {
	rows := make([][]any, res.N)
	for i := range rows {
		rows[i] = make([]any, len(res.Cols))
		for c, v := range res.Row(i) {
			rows[i][c] = v.Any()
		}
	}
	return rows
}

// execText parses one statement and runs it through ExecStmtContext under
// ctx and o, without logging it: Exec at a chosen level or worker cap.
func execText(ctx context.Context, db *DB, query string, o ExecOptions) (*Result, error) {
	stmt, err := sqlpkg.ParseOne(query)
	if err != nil {
		return nil, err
	}
	return db.ExecStmtContext(ctx, stmt, o)
}

// execLevel is execText at level with no context.
func execLevel(db *DB, query string, level opt.Level) (*Result, error) {
	return execText(context.Background(), db, query, ExecOptions{Level: level})
}

// fakeModels is a trivial model provider for tests.
type fakeModels map[string]*onnx.Graph

func (f fakeModels) GraphFor(name string) (*onnx.Graph, error) {
	g, ok := f[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return g, nil
}

// newTestDB builds a DB with an "orders" table.
func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	_, err := db.CreateTableFromColumns("orders",
		[]string{"id", "region", "amount", "priority"},
		[]Column{
			IntColumn([]int64{1, 2, 3, 4, 5, 6}),
			StringColumn([]string{"us", "eu", "us", "apac", "eu", "us"}),
			FloatColumn([]float64{10, 20, 30, 40, 50, 60}),
			IntColumn([]int64{1, 2, 1, 3, 2, 1}),
		})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a int, b text, c float)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t (a, b, c) VALUES (1, 'x', 1.5), (2, 'y', 2.5)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("affected = %d", res.Affected)
	}
	res, err = db.Exec("SELECT a, b, c FROM t WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || boxed(res)[0][1] != "y" || boxed(res)[0][2] != 2.5 {
		t.Errorf("rows = %v", boxed(res))
	}
}

func TestSelectFilterProject(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT id, amount * 2 AS dbl FROM orders WHERE region = 'us' AND amount > 15")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 {
		t.Fatalf("rows = %v", boxed(res))
	}
	if res.Schema.Names()[1] != "dbl" {
		t.Errorf("columns = %v", res.Schema.Names())
	}
	if boxed(res)[0][1] != 60.0 || boxed(res)[1][1] != 120.0 {
		t.Errorf("rows = %v", boxed(res))
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT * FROM orders WHERE id <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 || len(res.Cols) != 4 {
		t.Errorf("star select: %v %v", res.Schema.Names(), boxed(res))
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`SELECT region, count(*) AS n, sum(amount) AS total, avg(amount) AS mean,
		min(amount) AS lo, max(amount) AS hi
		FROM orders GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("rows = %v", boxed(res))
	}
	// apac, eu, us
	if boxed(res)[0][0] != "apac" || boxed(res)[0][1] != int64(1) || boxed(res)[0][2] != 40.0 {
		t.Errorf("apac row = %v", boxed(res)[0])
	}
	if boxed(res)[2][0] != "us" || boxed(res)[2][1] != int64(3) || boxed(res)[2][2] != 100.0 {
		t.Errorf("us row = %v", boxed(res)[2])
	}
	if boxed(res)[1][3] != 35.0 || boxed(res)[1][4] != 20.0 || boxed(res)[1][5] != 50.0 {
		t.Errorf("eu stats = %v", boxed(res)[1])
	}
}

func TestHavingAndOrderByAgg(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`SELECT region, sum(amount) AS total FROM orders
		GROUP BY region HAVING sum(amount) > 50 ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 {
		t.Fatalf("rows = %v", boxed(res))
	}
	if boxed(res)[0][0] != "us" || boxed(res)[1][0] != "eu" {
		t.Errorf("order = %v", boxed(res))
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT count(*) AS n, sum(amount) AS s FROM orders WHERE amount > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || boxed(res)[0][0] != int64(0) {
		t.Errorf("empty aggregate = %v", boxed(res))
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT count(DISTINCT region) AS n FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != int64(3) {
		t.Errorf("distinct regions = %v", boxed(res))
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT DISTINCT region FROM orders ORDER BY region LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 || boxed(res)[0][0] != "apac" || boxed(res)[1][0] != "eu" {
		t.Errorf("distinct+limit = %v", boxed(res))
	}
}

func TestJoin(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE regions (code text, name text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO regions VALUES ('us', 'United States'), ('eu', 'Europe')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT o.id, r.name FROM orders o JOIN regions r ON o.region = r.code
		WHERE o.amount >= 30 ORDER BY o.id`)
	if err != nil {
		t.Fatal(err)
	}
	// orders with amount >= 30: ids 3 (us), 4 (apac, no match), 5 (eu), 6 (us)
	if res.N != 3 {
		t.Fatalf("join rows = %v", boxed(res))
	}
	if boxed(res)[0][0] != int64(3) || boxed(res)[0][1] != "United States" {
		t.Errorf("join row 0 = %v", boxed(res)[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE regions (code text, name text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO regions VALUES ('us', 'United States')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT o.id, r.name FROM orders o LEFT JOIN regions r ON o.region = r.code ORDER BY o.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 6 {
		t.Fatalf("left join rows = %d", res.N)
	}
}

// TestLeftJoinPadsAfterTheResidual is the outer-join probe: a left row
// keeps every pair the whole ON accepts and is padded (right cells at their
// zero value) only when none survives, and a WHERE conjunct over the padded
// side filters the joined rows, padded ones included.
func TestLeftJoinPadsAfterTheResidual(t *testing.T) {
	db := NewDB()
	for _, q := range []string{
		"CREATE TABLE a (k int, v int)", "INSERT INTO a VALUES (1, 10), (2, 20)",
		"CREATE TABLE b (k int, w int)", "INSERT INTO b VALUES (1, 99)",
		"CREATE TABLE c (k text, w int)", "INSERT INTO c VALUES ('1', 99)",
		"CREATE TABLE d (k int, w int)", "INSERT INTO d VALUES (1, 99), (2, 7)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, c := range []struct{ query, want string }{
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k", "[[1 99] [2 0]]"},
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k WHERE b.w = 99", "[[1 99]]"},
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k WHERE a.k = b.k", "[[1 99]]"},
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k AND b.w < 5", "[[1 0] [2 0]]"},
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k AND a.v > 10", "[[1 0] [2 0]]"},
		{"SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k AND b.w > 5 WHERE a.v < 15", "[[1 99]]"},
		{"SELECT a.k, b.w FROM a JOIN b ON a.k = b.k AND b.w < 5", "[]"},
		// As many pairs fail the residual as rows are padded; the kept
		// pairs come first.
		{"SELECT a.k, d.w FROM a LEFT JOIN d ON a.k = d.k AND d.w < 50", "[[2 7] [1 0]]"},
		{"SELECT a.k, c.w FROM a LEFT JOIN c ON a.k = c.k", "[[1 0] [2 0]]"},
		{"SELECT a.k, c.w FROM a JOIN c ON a.k = c.k", "[]"},
	} {
		res, err := db.Exec(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := fmt.Sprint(boxed(res)); got != c.want {
			t.Errorf("%s = %s, want %s", c.query, got, c.want)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("UPDATE orders SET amount = amount + 100 WHERE region = 'eu'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Errorf("update affected = %d", res.Affected)
	}
	res, err = db.Exec("SELECT sum(amount) AS s FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != 410.0 {
		t.Errorf("sum after update = %v", boxed(res)[0][0])
	}
	res, err = db.Exec("DELETE FROM orders WHERE priority = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Errorf("delete affected = %d", res.Affected)
	}
	res, _ = db.Exec("SELECT count(*) AS n FROM orders")
	if boxed(res)[0][0] != int64(3) {
		t.Errorf("rows after delete = %v", boxed(res)[0][0])
	}
}

func TestVersionBumpsOnWrite(t *testing.T) {
	db := newTestDB(t)
	tab, _ := db.Table("orders")
	v0 := tab.Version()
	if _, err := db.Exec("INSERT INTO orders VALUES (7, 'us', 70.0, 2)"); err != nil {
		t.Fatal(err)
	}
	if tab.Version() <= v0 {
		t.Error("version should bump on insert")
	}
	v1 := tab.Version()
	if _, err := db.Exec("UPDATE orders SET amount = 0 WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	if tab.Version() <= v1 {
		t.Error("version should bump on update")
	}
}

func TestTableStats(t *testing.T) {
	db := newTestDB(t)
	tab, _ := db.Table("orders")
	stats := tab.Stats()
	am := stats["amount"]
	if !am.HasRange || am.Min != 10 || am.Max != 60 {
		t.Errorf("amount stats = %+v", am)
	}
	reg := stats["region"]
	if len(reg.Categories) != 3 || !reg.Categories["us"] {
		t.Errorf("region stats = %+v", reg)
	}
	// Stats invalidate on write.
	if _, err := db.Exec("INSERT INTO orders VALUES (7, 'latam', 99.0, 1)"); err != nil {
		t.Fatal(err)
	}
	stats = tab.Stats()
	if stats["amount"].Max != 99 || !stats["region"].Categories["latam"] {
		t.Error("stats not refreshed after write")
	}
}

// TestCompressionScoresNaNLikeTheScorer pins stats-driven model compression
// on columns holding NaN. The scorer sends NaN right at every split (NaN < t
// is false), so a float column's [min, max] must not let LevelFull resolve a
// split the NaN row does not take: every row's LevelFull score is bit-equal
// to the uncompressed native scorer's, with the NaN in rows 1-3 (past the
// first value the range starts from) or in row 0.
func TestCompressionScoresNaNLikeTheScorer(t *testing.T) {
	src := pruneTestDB(t, 3000)
	g, err := src.models.GraphFor("churn")
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := onnx.NewLocalScorer(g)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for _, tc := range []struct {
		name string
		nan  [3]int // row holding the NaN in age, income and tenure
	}{
		{"rows 1-3", [3]int{1, 2, 3}},
		{"row 0", [3]int{0, 0, 0}},
	} {
		r := ml.NewRand(11)
		ids := make([]int64, n)
		feats := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		regions := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = int64(i)
			// Young and low-income: the table's ranges sit below most of the
			// model's split thresholds, so compression resolves those splits
			// as "every stored value goes left".
			feats[0][i] = 20 + r.Float64()*5
			feats[1][i] = 20000 + r.Float64()*5000
			feats[2][i] = 3
			regions[i] = []string{"us", "eu", "apac", "latam"}[r.Intn(4)]
		}
		for c, row := range tc.nan {
			feats[c][row] = math.NaN()
		}
		db := NewDB()
		db.SetModelProvider(fakeModels{"churn": g})
		if _, err := db.CreateTableFromColumns("scored",
			[]string{"id", "age", "income", "tenure", "region"},
			[]Column{IntColumn(ids), FloatColumn(feats[0]), FloatColumn(feats[1]), FloatColumn(feats[2]),
				StringColumn(regions)}); err != nil {
			t.Fatal(err)
		}
		res, err := execLevel(db, `SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM scored ORDER BY id`, opt.LevelFull)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]onnx.Column{"age": {Nums: feats[0]}, "income": {Nums: feats[1]},
			"tenure": {Nums: feats[2]}, "region": {Strs: regions}}
		b := onnx.Batch{N: n}
		for _, in := range g.Inputs {
			b.Cols = append(b.Cols, byName[in.Name])
		}
		want, err := scorer.Score(&b)
		if err != nil {
			t.Fatal(err)
		}
		if res.N != n {
			t.Fatalf("%s: %d rows, want %d", tc.name, res.N, n)
		}
		for i, got := range res.Cols[1].Floats {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Errorf("%s: row %d scored %v at LevelFull, native scorer %v", tc.name, i, got, want[i])
			}
		}
	}
}

func TestDateAndLike(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE ship (id int, d text, comment text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO ship VALUES
		(1, '1994-01-15', 'urgent deliver'),
		(2, '1994-06-15', 'standard'),
		(3, '1995-02-01', 'urgent')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT id FROM ship
		WHERE d >= DATE '1994-01-01' AND d < DATE '1994-01-01' + INTERVAL '1' year
		AND comment LIKE '%urgent%' ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || boxed(res)[0][0] != int64(1) {
		t.Errorf("date+like rows = %v", boxed(res))
	}
}

func TestCaseExpression(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`SELECT id, CASE WHEN amount >= 40 THEN 'big' ELSE 'small' END AS size
		FROM orders ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][1] != "small" || boxed(res)[5][1] != "big" {
		t.Errorf("case rows = %v", boxed(res))
	}
}

func TestBetweenInSubstring(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`SELECT id, substring(region, 1, 1) AS initial FROM orders
		WHERE amount BETWEEN 20 AND 50 AND region IN ('eu', 'apac') ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("rows = %v", boxed(res))
	}
	if boxed(res)[0][1] != "e" {
		t.Errorf("substring = %v", boxed(res)[0][1])
	}
}

func TestFromLessSelect(t *testing.T) {
	db := NewDB()
	res, err := db.Exec("SELECT 1 + 2 AS three, 'x' AS s")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || boxed(res)[0][0] != int64(3) || boxed(res)[0][1] != "x" {
		t.Errorf("from-less = %v", boxed(res))
	}
}

func TestErrors(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		"SELECT nope FROM orders",
		"SELECT id FROM missing",
		"SELECT PREDICT(ghost, amount) FROM orders",
		"INSERT INTO orders VALUES (1)",
		"SELECT id FROM orders WHERE region IN (SELECT region FROM orders)",
		"SELECT amount / 0 FROM orders",
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// buildScoringSetup trains a pipeline over a synthetic customer table,
// deploys the graph via a fake provider, and loads the data into a table.
func buildScoringSetup(t testing.TB, db *DB, n int) *onnx.Graph {
	r := ml.NewRand(123)
	ids := make([]int64, n)
	ages := make([]float64, n)
	income := make([]float64, n)
	regions := make([]string, n)
	y := make([]float64, n)
	regionNames := []string{"us", "eu", "apac", "latam"}
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		ages[i] = 20 + r.Float64()*50
		income[i] = 20000 + r.Float64()*100000
		regions[i] = regionNames[r.Intn(4)]
		score := (ages[i]-45)/12 + (income[i]-70000)/40000
		if regions[i] == "us" {
			score++
		}
		if score > 0 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().
		AddNumeric("age", ages).
		AddNumeric("income", income).
		AddCategorical("region", regions)
	pipe := ml.NewPipeline("churn",
		ml.NewFeaturizer().
			With("age", &ml.StandardScaler{}).
			With("income", &ml.StandardScaler{}).
			With("region", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 20, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := pipe.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableFromColumns("customers",
		[]string{"id", "age", "income", "region"},
		[]Column{IntColumn(ids), FloatColumn(ages), FloatColumn(income), StringColumn(regions)}); err != nil {
		t.Fatal(err)
	}
	db.SetModelProvider(fakeModels{"churn": g})
	return g
}

func TestPredictAllLevelsAgree(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 2000)
	const q = `SELECT id, PREDICT(churn, age, income, region) AS score FROM customers
		WHERE age > 30 AND PREDICT(churn, age, income, region) > 0.7 ORDER BY id`

	var ref *Result
	for _, level := range []opt.Level{opt.LevelUDF, opt.LevelVectorized, opt.LevelParallel, opt.LevelFull} {
		res, err := execLevel(db, q, level)
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		if ref == nil {
			ref = res
			if res.N == 0 {
				t.Fatal("query returned no rows; test is vacuous")
			}
			continue
		}
		if res.N != ref.N {
			t.Fatalf("level %v: %d rows, want %d", level, res.N, ref.N)
		}
		gotRows, refRows := boxed(res), boxed(ref)
		for i := range gotRows {
			if gotRows[i][0] != refRows[i][0] {
				t.Fatalf("level %v row %d id mismatch", level, i)
			}
			a := gotRows[i][1].(float64)
			b := refRows[i][1].(float64)
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("level %v row %d score %v vs %v", level, i, a, b)
			}
		}
	}
}

func TestPredictPushUpChangesPlanNotResult(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 1000)
	// Score used only in the threshold: push-up applies at LevelFull.
	const q = `SELECT id FROM customers WHERE PREDICT(churn, age, income, region) >= 0.8 ORDER BY id`
	stmt, err := sqlpkg.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	planFull, err := db.PlanSelect(stmt.(*sqlpkg.SelectStmt), opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	if !planFull.Report.PushedUp {
		t.Error("push-up should fire when score is only compared")
	}
	resFull, err := execLevel(db, q, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := execLevel(db, q, opt.LevelVectorized)
	if err != nil {
		t.Fatal(err)
	}
	if resFull.N != resBase.N {
		t.Fatalf("push-up changed results: %d vs %d rows", resFull.N, resBase.N)
	}
	fullRows, baseRows := boxed(resFull), boxed(resBase)
	for i := range fullRows {
		if fullRows[i][0] != baseRows[i][0] {
			t.Fatalf("push-up changed row %d", i)
		}
	}
}

func TestPredictAggregates(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 500)
	res, err := db.Exec(`SELECT region, avg(PREDICT(churn, age, income, region)) AS mean_score, count(*) AS n
		FROM customers GROUP BY region ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 {
		t.Fatalf("rows = %v", boxed(res))
	}
	var total int64
	for _, row := range boxed(res) {
		total += row[2].(int64)
		score := row[1].(float64)
		if score < 0 || score > 1 {
			t.Errorf("mean score %v out of range", score)
		}
	}
	if total != 500 {
		t.Errorf("total rows = %d", total)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	db := newTestDB(t)
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := db.Exec("SELECT count(*) AS n, sum(amount) AS s FROM orders"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("INSERT INTO orders VALUES (%d, 'us', 5.0, 1)", 100+w*50+i)
				if _, err := db.Exec(q); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Property: LIKE matcher agrees with a reference implementation on random
// inputs drawn from a small alphabet.
func TestLikeProperty(t *testing.T) {
	ref := func(s, p string) bool {
		// Simple recursive reference.
		var rec func(si, pi int) bool
		rec = func(si, pi int) bool {
			if pi == len(p) {
				return si == len(s)
			}
			switch p[pi] {
			case '%':
				for k := si; k <= len(s); k++ {
					if rec(k, pi+1) {
						return true
					}
				}
				return false
			case '_':
				return si < len(s) && rec(si+1, pi+1)
			default:
				return si < len(s) && s[si] == p[pi] && rec(si+1, pi+1)
			}
		}
		return rec(0, 0)
	}
	alphabet := []byte("ab%_")
	f := func(sBits, pBits uint32) bool {
		var s, p []byte
		for i := 0; i < 8; i++ {
			s = append(s, alphabet[(sBits>>(i*2))&1]) // only 'a','b' in s
			p = append(p, alphabet[(pBits>>(i*2))&3])
		}
		return likeMatch(string(s), string(p)) == ref(string(s), string(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAddInterval(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		unit string
		want string
	}{
		{"1994-01-01", 1, "year", "1995-01-01"},
		{"1994-01-31", 1, "month", "1994-02-28"},
		{"1996-01-31", 1, "month", "1996-02-29"},
		{"1994-12-31", 1, "day", "1995-01-01"},
		{"1994-03-01", -1, "day", "1994-02-28"},
		{"1994-01-15", 90, "day", "1994-04-15"},
		{"1994-11-15", 3, "month", "1995-02-15"},
	}
	for _, c := range cases {
		got, err := AddInterval(c.in, c.n, c.unit)
		if err != nil {
			t.Fatalf("AddInterval(%s, %d, %s): %v", c.in, c.n, c.unit, err)
		}
		if got != c.want {
			t.Errorf("AddInterval(%s, %d, %s) = %s, want %s", c.in, c.n, c.unit, got, c.want)
		}
	}
	if _, err := AddInterval("bogus", 1, "day"); err == nil {
		t.Error("bad date should error")
	}
	if _, err := AddInterval("1994-01-01", 1, "fortnight"); err == nil {
		t.Error("bad unit should error")
	}
}

func TestInsertSelectBatchWriteback(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 300)
	if _, err := db.Exec("CREATE TABLE scores (id int, score float)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`INSERT INTO scores (id, score)
		SELECT id, PREDICT(churn, age, income, region) FROM customers WHERE age > 40`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected == 0 {
		t.Fatal("no rows written back")
	}
	check, err := db.Exec("SELECT count(*) AS n, min(score) AS lo, max(score) AS hi FROM scores")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(check)[0][0].(int64) != res.Affected {
		t.Errorf("stored %v rows, affected %d", boxed(check)[0][0], res.Affected)
	}
	if lo := boxed(check)[0][1].(float64); lo < 0 || lo > 1 {
		t.Errorf("score out of range: %v", lo)
	}
	// Mismatched column count errors cleanly.
	if _, err := db.Exec("INSERT INTO scores (id, score) SELECT id FROM customers"); err == nil {
		t.Error("column-count mismatch should error")
	}
}

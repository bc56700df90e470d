package workload

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/sql"
)

// execLevel parses one statement and runs it on db at level, unlogged.
func execLevel(db *engine.DB, q string, level opt.Level) (*engine.Result, error) {
	stmt, err := sql.ParseOne(q)
	if err != nil {
		return nil, err
	}
	return db.ExecStmtContext(context.Background(), stmt, engine.ExecOptions{Level: level})
}

func loadedTPCH(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	if err := LoadTPCH(db, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadTPCHShape(t *testing.T) {
	db := loadedTPCH(t)
	counts := map[string]int{
		"region": 5, "nation": 25, "supplier": 10, "customer": 150,
		"part": 20, "partsupp": 80, "orders": 1500,
	}
	for name, want := range counts {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != want {
			t.Errorf("%s rows = %d, want %d", name, tab.NumRows(), want)
		}
	}
	li, _ := db.Table("lineitem")
	if li.NumRows() < 1500 || li.NumRows() > 9000 {
		t.Errorf("lineitem rows = %d, want ~4 per order", li.NumRows())
	}
}

// TestLoadTPCHSurvivesReopen bulk-loads TPC-H into a durable database,
// closes it and reopens the directory: every table must come back with the
// rows it had, so the bulk load went through the WAL like any other write.
func TestLoadTPCHSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, _, err := engine.OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadTPCH(db, 1); err != nil {
		t.Fatal(err)
	}
	before := map[string]int{}
	for _, name := range db.TableNames() {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		before[name] = tab.NumRows()
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, _, err := engine.OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	if before["lineitem"] == 0 {
		t.Fatal("lineitem loaded no rows")
	}
	for name, want := range before {
		tab, err := re.Table(name)
		if err != nil {
			t.Fatalf("%s after reopen: %v", name, err)
		}
		if got := tab.NumRows(); got != want {
			t.Errorf("%s rows after reopen = %d, want %d", name, got, want)
		}
	}
}

// TestExecutableTPCHQueries runs the executable template subset end to end
// over generated data and sanity-checks each result's shape.
func TestExecutableTPCHQueries(t *testing.T) {
	db := loadedTPCH(t)
	p := NewTPCHParams(99)
	for _, q := range ExecutableTPCHQueries {
		text := TPCHQuery(q, p)
		res, err := db.Exec(text)
		if err != nil {
			t.Fatalf("Q%d failed: %v\n%s", q, err, text)
		}
		switch q {
		case 1:
			// Aggregate over returnflag/linestatus: at most 6 groups, every
			// sum positive.
			if res.N == 0 || res.N > 6 {
				t.Errorf("Q1 groups = %d", res.N)
			}
			for _, row := range boxed(res) {
				if row[2].(float64) <= 0 {
					t.Errorf("Q1 sum_qty = %v", row[2])
				}
			}
		case 6:
			if res.N != 1 {
				t.Errorf("Q6 rows = %d", res.N)
			}
		case 3, 10:
			// Revenue queries are ORDER BY revenue DESC; verify ordering.
			revCol := 2
			if q == 3 {
				revCol = 1
			}
			for i := 1; i < res.N; i++ {
				if boxed(res)[i][revCol].(float64) > boxed(res)[i-1][revCol].(float64) {
					t.Errorf("Q%d not sorted by revenue", q)
					break
				}
			}
		}
	}
}

// TestQ1ManualVerification cross-checks the Q1 aggregate against a manual
// computation over raw scans.
func TestQ1ManualVerification(t *testing.T) {
	db := loadedTPCH(t)
	const cutoff = "1998-09-01"
	res, err := db.Exec(`SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sq, count(*) AS n
		FROM lineitem WHERE l_shipdate <= '` + cutoff + `'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := db.Exec("SELECT l_returnflag, l_linestatus, l_quantity, l_shipdate FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ f, s string }
	sums := map[key]float64{}
	counts := map[key]int64{}
	for _, row := range boxed(raw) {
		if row[3].(string) > cutoff {
			continue
		}
		k := key{row[0].(string), row[1].(string)}
		sums[k] += row[2].(float64)
		counts[k]++
	}
	if res.N != len(sums) {
		t.Fatalf("groups = %d, want %d", res.N, len(sums))
	}
	for _, row := range boxed(res) {
		k := key{row[0].(string), row[1].(string)}
		if got := row[2].(float64); got != sums[k] {
			t.Errorf("group %v sum = %v, want %v", k, got, sums[k])
		}
		if got := row[3].(int64); got != counts[k] {
			t.Errorf("group %v count = %v, want %v", k, got, counts[k])
		}
	}
}

// TestJoinConditionExtraction verifies comma joins execute as hash joins
// via WHERE-clause equality extraction (no cross-product blowup).
func TestJoinConditionExtraction(t *testing.T) {
	db := loadedTPCH(t)
	// customer x orders x lineitem would be 150 * 1500 * ~6000 as a cross
	// product — execution succeeding at all proves the equalities were
	// extracted into join conditions.
	res, err := db.Exec(`SELECT c.c_mktsegment, count(*) AS n
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
		GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 5 {
		t.Fatalf("segments = %d", res.N)
	}
	var total int64
	for _, row := range boxed(res) {
		total += row[1].(int64)
	}
	li, _ := db.Table("lineitem")
	if total != int64(li.NumRows()) {
		t.Errorf("joined rows = %d, want %d (every lineitem exactly once)", total, li.NumRows())
	}
}

// TestOptimizedVsNaivePlansAgree is the optimizer-correctness property on
// real queries: the same query at LevelUDF and LevelFull returns identical
// results.
func TestOptimizedVsNaivePlansAgree(t *testing.T) {
	db := loadedTPCH(t)
	queries := []string{
		"SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_quantity < 24",
		"SELECT o_orderpriority, count(*) AS n FROM orders WHERE o_totalprice > 200000 GROUP BY o_orderpriority ORDER BY o_orderpriority",
		"SELECT c.c_name, o.o_totalprice FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey WHERE o.o_totalprice > 390000 ORDER BY o.o_totalprice DESC LIMIT 5",
	}
	for _, q := range queries {
		naive, err := execLevel(db, q, opt.LevelUDF)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		full, err := execLevel(db, q, opt.LevelFull)
		if err != nil {
			t.Fatalf("full %q: %v", q, err)
		}
		if naive.N != full.N {
			t.Fatalf("%q: %d vs %d rows", q, naive.N, full.N)
		}
		naiveRows, fullRows := boxed(naive), boxed(full)
		for i := range naiveRows {
			for c := range naiveRows[i] {
				if naiveRows[i][c] != fullRows[i][c] {
					t.Fatalf("%q row %d col %d: %v vs %v", q, i, c, naiveRows[i][c], fullRows[i][c])
				}
			}
		}
	}
}

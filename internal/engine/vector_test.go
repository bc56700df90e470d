package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// --- kernel / interpreter equivalence ------------------------------------

// equivRowSet builds a randomized rowset exercising every column type,
// including NaN, ±0.0, negatives, empty strings, and repeated values.
func equivRowSet(r *rand.Rand, n int) *RowSet {
	i1 := make([]int64, n)
	i2 := make([]int64, n)
	f1 := make([]float64, n)
	f2 := make([]float64, n)
	s1 := make([]string, n)
	s2 := make([]string, n)
	b1 := make([]bool, n)
	words := []string{"", "a", "ab", "abc", "b%", "_c", "aa", "zz"}
	for i := 0; i < n; i++ {
		i1[i] = int64(r.Intn(21) - 10)
		i2[i] = int64(r.Intn(5) + 1) // strictly positive: safe divisor
		switch r.Intn(8) {
		case 0:
			f1[i] = math.NaN()
		case 1:
			f1[i] = math.Copysign(0, -1) // -0.0
		case 2:
			f1[i] = 0
		default:
			f1[i] = (r.Float64() - 0.5) * 100
		}
		f2[i] = r.Float64()*10 + 0.5 // strictly positive: safe divisor
		s1[i] = words[r.Intn(len(words))]
		s2[i] = words[r.Intn(len(words))]
		b1[i] = r.Intn(2) == 0
	}
	schema := Schema{
		{Name: "i1", Type: TypeInt}, {Name: "i2", Type: TypeInt},
		{Name: "f1", Type: TypeFloat}, {Name: "f2", Type: TypeFloat},
		{Name: "s1", Type: TypeString}, {Name: "s2", Type: TypeString},
		{Name: "b1", Type: TypeBool},
	}
	cols := []Column{
		IntColumn(i1), IntColumn(i2), FloatColumn(f1), FloatColumn(f2),
		StringColumn(s1), StringColumn(s2), BoolColumn(b1),
	}
	rs, err := NewRowSet(schema, cols)
	if err != nil {
		panic(err)
	}
	return rs
}

// valuesEquivalent compares interpreter and kernel outputs semantically:
// NULL matches NULL, numerics compare numerically with NaN==NaN and
// -0.0==0.0 (the interpreter can surface int 0 where the typed kernel
// surfaces float 0).
func valuesEquivalent(a, b Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	an := a.Kind == TypeInt || a.Kind == TypeFloat || a.Kind == TypeBool
	bn := b.Kind == TypeInt || b.Kind == TypeFloat || b.Kind == TypeBool
	if an && bn {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		return af == bf
	}
	if a.Kind == TypeString && b.Kind == TypeString {
		return a.S == b.S
	}
	return a.Kind == b.Kind
}

// TestKernelInterpreterEquivalence runs a grid of expressions through both
// the row-at-a-time reference interpreter (compileExpr) and the vector
// kernels (compileVec) over randomized columns and requires identical
// results — including whether each errors.
func TestKernelInterpreterEquivalence(t *testing.T) {
	exprs := []string{
		// Arithmetic, including int/float mixing and safe division.
		"i1 + i2", "i1 - 3", "i1 * f1", "f1 / f2", "i1 % i2", "f1 % f2",
		"-i1", "-f1", "i1 + f2 * 2",
		// Comparisons across types, NaN and -0.0 included.
		"i1 = i2", "i1 <> i2", "f1 < f2", "f1 >= 0.0", "i1 <= f1",
		"s1 = s2", "s1 < s2", "s1 >= 'ab'", "f1 = 0.0", "i1 > 5",
		// Boolean logic and NOT.
		"i1 > 0 AND f1 < 0.0", "s1 = 'a' OR i1 = 1", "NOT b1",
		"b1 AND i1 > 0", "b1 OR f1 > 0.0",
		// BETWEEN / IN / LIKE / IS NULL.
		"i1 BETWEEN 0 AND 5", "f1 BETWEEN -1.0 AND 1.0",
		"i1 NOT BETWEEN i2 AND 10",
		"s1 IN ('a', 'ab', 'zz')", "i1 IN (1, 2, 3)", "f1 IN (0.0, 1.0)",
		"s1 NOT IN ('a')",
		"s1 LIKE 'a%'", "s1 LIKE '_b'", "s1 NOT LIKE '%c'",
		"s1 IS NULL", "i1 IS NOT NULL",
		// CASE, both forms, with and without ELSE (NULL fallthrough).
		"CASE WHEN i1 > 0 THEN 'pos' WHEN i1 < 0 THEN 'neg' ELSE 'zero' END",
		"CASE WHEN f1 > 0.0 THEN f1 ELSE f2 END",
		"CASE WHEN i1 > 100 THEN 1 END",
		"CASE i2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END",
		// Functions.
		"length(s1)", "upper(s1)", "lower(s2)", "abs(i1)", "abs(f1)",
		"round(f1)", "substring(s1, 1, 2)", "substring(s2, 2)",
		// Concatenation (exercises Value.String formatting).
		"s1 || s2", "s1 || '-' || i1",
		// NULL literals flowing through kernels.
		"i1 + NULL", "NULL = i1", "CASE WHEN b1 THEN NULL ELSE i1 END",
		// Nested compositions.
		"(i1 + i2) * 2 > f1 AND s1 <> ''",
		"abs(i1 - i2) BETWEEN 0 AND 3 OR s1 LIKE 'z%'",
		"CASE WHEN i1 % 2 = 0 THEN 'even' ELSE 'odd' END = 'even'",
		// Guard-then-compute: short circuits and CASE branches must shield
		// data-dependent errors exactly as the interpreter does (i1 has
		// zeros, f1 has zeros and NaN).
		"i1 <> 0 AND 100 / i1 > 5",
		"i1 = 0 OR 100 / i1 > 5",
		"CASE WHEN i1 = 0 THEN 0.0 ELSE 100.0 / i1 END",
		"CASE WHEN f1 = 0.0 THEN 0.0 ELSE f2 / f1 END",
		"i1 <> 0 AND i2 % i1 = 0",
		"NOT (i1 = 0) AND 1 / i1 < 2",
		// Unguarded: both sides must error.
		"100 / i1", "i2 % i1",
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		rs := equivRowSet(r, 257)
		for _, src := range exprs {
			e := parseTestExpr(t, src)
			rowFn, rowCompileErr := compileExpr(e, rs.Schema, nil)
			vecFn, vecCompileErr := compileVec(e, rs.Schema, nil)
			if (rowCompileErr == nil) != (vecCompileErr == nil) {
				t.Fatalf("%q: compile disagreement: row=%v vec=%v", src, rowCompileErr, vecCompileErr)
			}
			if rowCompileErr != nil {
				continue
			}
			vec, vecErr := vecFn(rs)
			if vecErr == nil {
				// A deferred row error that survives all guards must
				// surface, exactly like the interpreter's eager error.
				vecErr = vec.pendingErr(rs.N)
			}
			var rowErr error
			rowVals := make([]Value, rs.N)
			for i := 0; i < rs.N; i++ {
				v, err := rowFn(rs, i)
				if err != nil {
					rowErr = err
					break
				}
				rowVals[i] = v
			}
			if (rowErr == nil) != (vecErr == nil) {
				t.Fatalf("%q: eval disagreement: row=%v vec=%v", src, rowErr, vecErr)
			}
			if rowErr != nil {
				continue
			}
			for i := 0; i < rs.N; i++ {
				got := vec.valueAt(i)
				if !valuesEquivalent(rowVals[i], got) {
					t.Fatalf("%q row %d: interpreter=%+v kernel=%+v", src, i, rowVals[i], got)
				}
			}
		}
	}
}

// parseTestExpr parses an expression by wrapping it in a SELECT.
func parseTestExpr(t testing.TB, src string) sql.Expr {
	t.Helper()
	stmt, err := sql.ParseOne("SELECT " + src + " AS x FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel := stmt.(*sql.SelectStmt)
	return sel.Items[0].Expr
}

// --- typed hash semantics -------------------------------------------------

// groupOneTable assigns rows [lo, hi) of keys to lg, the way one worker does
// for the morsels it pulls, and returns the rows' local group ids.
func groupOneTable(lg *localGroups, keys []*Vec, lo, hi int) []int32 {
	gids := make([]int32, hi)
	lg.assign(keys, vecKeyModes(keys), gids, lo, hi)
	return gids
}

// TestGroupKeyFloatSemantics pins the float group-key fix: -0.0 and +0.0
// fall in one group (the old "%g" string encoding split them) and NaN
// groups with NaN.
func TestGroupKeyFloatSemantics(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE m (k float, v int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO m VALUES (0.0, 1), (-0.0, 2), (1.5, 3), (-0.0, 4)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT k, count(*) AS n FROM m GROUP BY k ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("0.0 and -0.0 must share a group: %v", res.Rows)
	}
	if res.Rows[0][1] != int64(3) {
		t.Errorf("zero group count = %v, want 3", res.Rows[0][1])
	}

	// count(DISTINCT k) agrees.
	res, err = db.Exec("SELECT count(DISTINCT k) AS n FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(2) {
		t.Errorf("distinct float keys = %v, want 2", res.Rows[0][0])
	}

	// NaN groups with NaN at the hash-table level.
	nan := math.NaN()
	keys := []*Vec{{Type: TypeFloat, Floats: []float64{nan, 1, nan, math.Copysign(0, -1), 0}}}
	lg := &localGroups{}
	gids := groupOneTable(lg, keys, 0, 5)
	if len(lg.groupRows) != 3 {
		t.Fatalf("NaN/zero normalization: %d groups, want 3", len(lg.groupRows))
	}
	if gids[0] != gids[2] {
		t.Error("NaN rows must share a group")
	}
	if gids[3] != gids[4] {
		t.Error("-0.0 and +0.0 rows must share a group")
	}
}

// TestGroupKeyNullSemantics pins NULL-vs-NULL grouping: NULL keys form one
// group and stay distinct from zero values.
func TestGroupKeyNullSemantics(t *testing.T) {
	nulls := []bool{true, false, true, false}
	keys := []*Vec{{Type: TypeInt, Ints: []int64{0, 0, 0, 7}, Nulls: nulls}}
	lg := &localGroups{}
	gids := groupOneTable(lg, keys, 0, 4)
	if len(lg.groupRows) != 3 {
		t.Fatalf("groups = %d, want 3 (NULL, 0, 7)", len(lg.groupRows))
	}
	if gids[0] != gids[2] {
		t.Error("NULL keys must share a group")
	}
	if gids[0] == gids[1] {
		t.Error("NULL must not group with 0")
	}

	// End to end: a CASE key without ELSE yields NULL group keys.
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE g (id int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO g VALUES (1), (2), (3), (4), (5)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT CASE WHEN id > 3 THEN 'big' END AS k, count(*) AS n
		FROM g GROUP BY CASE WHEN id > 3 THEN 'big' END ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// 'big' group has 2 rows, NULL group has 3.
	if res.Rows[0][1] != int64(2) || res.Rows[1][1] != int64(3) {
		t.Errorf("group counts = %v", res.Rows)
	}
}

// TestJoinCrossTypeNumericKeys: an int key joins a float key numerically
// (the typed hash normalizes both sides to float64).
func TestJoinCrossTypeNumericKeys(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE li (k int, a text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE rf (k float, b text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO li VALUES (1, 'x'), (2, 'y'), (3, 'z')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO rf VALUES (1.0, 'one'), (3.0, 'three'), (4.0, 'four')"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT li.a, rf.b FROM li JOIN rf ON li.k = rf.k ORDER BY li.a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != "one" || res.Rows[1][1] != "three" {
		t.Errorf("cross-type join rows = %v", res.Rows)
	}
}

// TestGroupTableManyKeys stresses the open-addressing group tables with
// multi-column keys against a reference map implementation: one table over
// every row, and three tables over interleaved row ranges folded by
// mergeLocalGroups, must both number the groups in first-occurrence order.
func TestGroupTableManyKeys(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 5000
	a := make([]int64, n)
	b := make([]string, n)
	for i := range a {
		a[i] = int64(r.Intn(50))
		b[i] = fmt.Sprintf("s%d", r.Intn(40))
	}
	keys := []*Vec{{Type: TypeInt, Ints: a}, {Type: TypeString, Strs: b}}
	modes := vecKeyModes(keys)

	ref := map[string]int{}
	var refOrder []string
	refGroup := make([]int, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%d|%s", a[i], b[i])
		g, ok := ref[k]
		if !ok {
			g = len(refOrder)
			ref[k] = g
			refOrder = append(refOrder, k)
		}
		refGroup[i] = g
	}
	for _, nTables := range []int{1, 3} {
		tables := make([]*localGroups, nTables)
		for i := range tables {
			tables[i] = &localGroups{}
		}
		local := make([]int32, n) // each row's group id in its own table
		owner := make([]int, n)   // the table that grouped the row
		const span = 97
		for lo, c := 0, 0; lo < n; lo, c = lo+span, c+1 {
			hi := min(lo+span, n)
			tables[c%nTables].assign(keys, modes, local, lo, hi)
			for r := lo; r < hi; r++ {
				owner[r] = c % nTables
			}
		}
		glob, _, remap := mergeLocalGroups(keys, modes, tables)
		if len(glob.groupRows) != len(refOrder) {
			t.Fatalf("%d tables: groups = %d, want %d", nTables, len(glob.groupRows), len(refOrder))
		}
		for i := 0; i < n; i++ {
			g := local[i]
			if remap != nil {
				g = remap[owner[i]][g]
			}
			if int(g) != refGroup[i] {
				t.Fatalf("%d tables: row %d: group %d, want %d", nTables, i, g, refGroup[i])
			}
		}
	}
}

// TestJoinTableChainOrder verifies probe hits come back in build-row order
// (which keeps join output byte-identical to the old map of row lists), from
// one partition at one worker and from eight at four workers. The build side
// is padded past the parallel threshold with keys no probe asks for.
func TestJoinTableChainOrder(t *testing.T) {
	ints := make([]int64, 4*morselRows)
	copy(ints, []int64{7, 3, 7, 7, 3})
	for r := 5; r < len(ints); r++ {
		ints[r] = int64(1000 + r)
	}
	build := []*Vec{{Type: TypeInt, Ints: ints}}
	modes := vecKeyModes(build)
	probe := []*Vec{{Type: TypeInt, Ints: []int64{7, 3, 9}}}
	for _, workers := range []int{1, 4} {
		ex := &executor{o: ExecOptions{Level: opt.LevelParallel, Parallelism: workers}}
		if got := ex.workers(len(ints)); got != workers {
			t.Fatalf("workers(%d) = %d, want %d", len(ints), got, workers)
		}
		jt, err := ex.buildJoinIndex(build, len(ints), modes)
		if err != nil {
			t.Fatal(err)
		}
		want := 2 * workers
		if workers == 1 {
			want = 1
		}
		if len(jt.parts) != want {
			t.Errorf("workers=%d: %d partitions, want %d", workers, len(jt.parts), want)
		}
		got := jt.probe(probe, 0, nil)
		if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
			t.Errorf("workers=%d: probe(7) = %v, want [0 2 3]", workers, got)
		}
		got = jt.probe(probe, 1, nil)
		if len(got) != 2 || got[0] != 1 || got[1] != 4 {
			t.Errorf("workers=%d: probe(3) = %v, want [1 4]", workers, got)
		}
		if got := jt.probe(probe, 2, nil); len(got) != 0 {
			t.Errorf("workers=%d: probe(9) = %v, want empty", workers, got)
		}
	}
}

// TestGuardedDivision pins the short-circuit semantics end to end: a guard
// on the divisor must shield division by zero in WHERE, CASE, and UPDATE,
// while unguarded division still errors.
func TestGuardedDivision(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE q (a float, b float)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO q VALUES (10.0, 2.0), (5.0, 0.0), (9.0, 3.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT a FROM q WHERE b <> 0.0 AND a / b > 2.0 ORDER BY a")
	if err != nil {
		t.Fatalf("guarded AND division must not error: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != 9.0 || res.Rows[1][0] != 10.0 {
		t.Errorf("guarded filter rows = %v", res.Rows)
	}
	res, err = db.Exec("SELECT CASE WHEN b = 0.0 THEN 0.0 ELSE a / b END AS r FROM q ORDER BY r")
	if err != nil {
		t.Fatalf("guarded CASE division must not error: %v", err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] != 0.0 {
		t.Errorf("guarded case rows = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT a / b FROM q"); err == nil {
		t.Error("unguarded division by zero must error")
	}
	if _, err := db.Exec("SELECT a FROM q WHERE a / b > 2.0"); err == nil {
		t.Error("unguarded division in WHERE must error")
	}
	// OR short circuit and DML WHERE.
	if _, err := db.Exec("UPDATE q SET a = a + 1.0 WHERE b = 0.0 OR a / b > 4.0"); err != nil {
		t.Fatalf("guarded OR division in UPDATE must not error: %v", err)
	}
	res, err = db.Exec("SELECT sum(a) AS s FROM q")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 26.0 { // rows 10 (updated: 11) + 5 (updated: 6) + 9
		t.Errorf("sum after guarded update = %v, want 26", res.Rows[0][0])
	}
}

// TestStarAggregates: sum(*)/avg(*)/min(*)/max(*) parse and must not panic;
// they return the same zero/NULL-backed values the old aggState produced.
func TestStarAggregates(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec("SELECT count(*) AS c, sum(*) AS s, avg(*) AS a, min(*) AS lo, max(*) AS hi FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != int64(6) {
		t.Errorf("count(*) = %v", res.Rows[0][0])
	}
	// sum/avg fold nothing: 0. min/max are NULL, stored as zero floats.
	for i := 1; i < 5; i++ {
		if res.Rows[0][i] != 0.0 {
			t.Errorf("star aggregate %d = %v, want 0", i, res.Rows[0][i])
		}
	}
}

// TestFilterMatchesInterpreter cross-checks the full filter path (mask +
// selection) against a row-at-a-time evaluation for several predicates.
func TestFilterMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	rs := equivRowSet(r, 1024)
	ex := &executor{o: ExecOptions{}, env: nil}
	preds := []string{
		"i1 > 0 AND f1 < 10.0",
		"s1 LIKE 'a%' OR i1 BETWEEN 2 AND 6",
		"NOT b1 AND i1 % 2 = 0",
		"f1 = 0.0", // matches both +0.0 and -0.0
	}
	for _, src := range preds {
		e := parseTestExpr(t, src)
		vec, err := compileVec(e, rs.Schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.filterGather(rs, rs, vec)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		fn, err := compileExpr(e, rs.Schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i := 0; i < rs.N; i++ {
			v, err := fn(rs, i)
			if err != nil {
				t.Fatal(err)
			}
			if v.Truthy() {
				want = append(want, int32(i))
			}
		}
		if got.N != len(want) {
			t.Fatalf("%q: %d rows, interpreter says %d", src, got.N, len(want))
		}
	}
}

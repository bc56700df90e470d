package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// --- kernel semantics against a plain-Go reference ------------------------

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

// valuesEquivalent compares reference and kernel outputs semantically:
// NULL matches NULL, numerics compare numerically with NaN==NaN and
// -0.0==0.0 (a reference may state int 0 where the typed kernel surfaces
// float 0).
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

// equivRow is one row of equivRowSet as plain Go fields.
type equivRow struct {
	i1, i2 int64
	f1, f2 float64
	s1, s2 string
	b1     bool
}

func equivRowAt(rs *RowSet, i int) equivRow {
	c := rs.Cols
	return equivRow{c[0].Ints[i], c[1].Ints[i], c[2].Floats[i], c[3].Floats[i], c[4].Strs[i], c[5].Strs[i], c[6].Bools[i]}
}

// exprCase is one expression and its reference answer, written in plain Go
// over the row's fields — Go operators, strings and math, never the
// engine's arith, Compare or kernels. fails, when set, says on which rows
// SQL evaluation must raise an error (division by zero the expression does
// not guard); filter marks the predicates also checked through filterGather.
type exprCase struct {
	src    string
	want   func(r equivRow) Value
	fails  func(r equivRow) bool
	filter bool
}

// The references spell out the engine's scalar semantics:
//   - numbers compare as float64, and NaN is neither less nor greater than
//     anything, so `=`, `<=`, `>=`, BETWEEN and IN hold for NaN (feq, fle);
//   - int op int stays int64 except `/`, which runs in float64;
//   - a comparison with NULL is false, arithmetic with NULL is NULL;
//   - AND, OR and CASE evaluate in SQL short-circuit order, so a guarded
//     division never fails.
func feq(x, y float64) bool { return !(x < y) && !(x > y) }
func fle(x, y float64) bool { return !(x > y) }

var (
	iv = IntValue
	fv = FloatValue
	sv = StringValue
	bv = BoolValue
)

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// exprCases is the expression grid: every operator and function form over
// every column type, NaN and -0.0 included, plus guard-then-compute and
// unguarded-error rows.
var exprCases = []exprCase{
	// Arithmetic, including int/float mixing and safe division.
	{src: "i1 + i2", want: func(r equivRow) Value { return iv(r.i1 + r.i2) }},
	{src: "i1 - 3", want: func(r equivRow) Value { return iv(r.i1 - 3) }},
	{src: "i1 * f1", want: func(r equivRow) Value { return fv(float64(r.i1) * r.f1) }},
	{src: "f1 / f2", want: func(r equivRow) Value { return fv(r.f1 / r.f2) }},
	{src: "i1 % i2", want: func(r equivRow) Value { return iv(r.i1 % r.i2) }},
	{src: "f1 % f2", want: func(r equivRow) Value { return fv(math.Mod(r.f1, r.f2)) }},
	{src: "-i1", want: func(r equivRow) Value { return iv(-r.i1) }},
	{src: "-f1", want: func(r equivRow) Value { return fv(-r.f1) }},
	{src: "i1 + f2 * 2", want: func(r equivRow) Value { return fv(float64(r.i1) + r.f2*2) }},
	// Comparisons across types, NaN and -0.0 included.
	{src: "i1 = i2", want: func(r equivRow) Value { return bv(r.i1 == r.i2) }},
	{src: "i1 <> i2", want: func(r equivRow) Value { return bv(r.i1 != r.i2) }},
	{src: "f1 < f2", want: func(r equivRow) Value { return bv(r.f1 < r.f2) }},
	{src: "f1 >= 0.0", want: func(r equivRow) Value { return bv(fle(0, r.f1)) }},
	{src: "i1 <= f1", want: func(r equivRow) Value { return bv(fle(float64(r.i1), r.f1)) }},
	{src: "s1 = s2", want: func(r equivRow) Value { return bv(r.s1 == r.s2) }},
	{src: "s1 < s2", want: func(r equivRow) Value { return bv(r.s1 < r.s2) }},
	{src: "s1 >= 'ab'", want: func(r equivRow) Value { return bv(r.s1 >= "ab") }},
	{src: "f1 = 0.0", filter: true, // matches +0.0, -0.0 and NaN
		want: func(r equivRow) Value { return bv(feq(r.f1, 0)) }},
	{src: "i1 > 5", want: func(r equivRow) Value { return bv(r.i1 > 5) }},
	// Boolean logic and NOT.
	{src: "i1 > 0 AND f1 < 0.0", want: func(r equivRow) Value { return bv(r.i1 > 0 && r.f1 < 0) }},
	{src: "s1 = 'a' OR i1 = 1", want: func(r equivRow) Value { return bv(r.s1 == "a" || r.i1 == 1) }},
	{src: "NOT b1", want: func(r equivRow) Value { return bv(!r.b1) }},
	{src: "b1 AND i1 > 0", want: func(r equivRow) Value { return bv(r.b1 && r.i1 > 0) }},
	{src: "b1 OR f1 > 0.0", want: func(r equivRow) Value { return bv(r.b1 || r.f1 > 0) }},
	// BETWEEN / IN / LIKE / IS NULL.
	{src: "i1 BETWEEN 0 AND 5", want: func(r equivRow) Value { return bv(r.i1 >= 0 && r.i1 <= 5) }},
	{src: "f1 BETWEEN -1.0 AND 1.0", want: func(r equivRow) Value { return bv(fle(-1, r.f1) && fle(r.f1, 1)) }},
	{src: "i1 NOT BETWEEN i2 AND 10", want: func(r equivRow) Value { return bv(!(r.i1 >= r.i2 && r.i1 <= 10)) }},
	{src: "s1 IN ('a', 'ab', 'zz')", want: func(r equivRow) Value { return bv(r.s1 == "a" || r.s1 == "ab" || r.s1 == "zz") }},
	{src: "i1 IN (1, 2, 3)", want: func(r equivRow) Value { return bv(r.i1 >= 1 && r.i1 <= 3) }},
	{src: "f1 IN (0.0, 1.0)", want: func(r equivRow) Value { return bv(feq(r.f1, 0) || feq(r.f1, 1)) }},
	{src: "s1 NOT IN ('a')", want: func(r equivRow) Value { return bv(r.s1 != "a") }},
	{src: "s1 LIKE 'a%'", want: func(r equivRow) Value { return bv(strings.HasPrefix(r.s1, "a")) }},
	{src: "s1 LIKE '_b'", want: func(r equivRow) Value { return bv(len(r.s1) == 2 && r.s1[1] == 'b') }},
	{src: "s1 NOT LIKE '%c'", want: func(r equivRow) Value { return bv(!strings.HasSuffix(r.s1, "c")) }},
	{src: "s1 IS NULL", want: func(r equivRow) Value { return bv(false) }},
	{src: "i1 IS NOT NULL", want: func(r equivRow) Value { return bv(true) }},
	// CASE, both forms, with and without ELSE (NULL fallthrough).
	{src: "CASE WHEN i1 > 0 THEN 'pos' WHEN i1 < 0 THEN 'neg' ELSE 'zero' END",
		want: func(r equivRow) Value {
			switch {
			case r.i1 > 0:
				return sv("pos")
			case r.i1 < 0:
				return sv("neg")
			}
			return sv("zero")
		}},
	{src: "CASE WHEN f1 > 0.0 THEN f1 ELSE f2 END",
		want: func(r equivRow) Value {
			if r.f1 > 0 {
				return fv(r.f1)
			}
			return fv(r.f2)
		}},
	{src: "CASE WHEN i1 > 100 THEN 1 END", want: func(r equivRow) Value { return NullValue() }},
	// A CASE takes its type from all its non-NULL branches: an int branch
	// beside a float one reads as a float (caseTypes pins the types).
	{src: "CASE WHEN i1 = 2 THEN 1 ELSE 2.5 END",
		want: func(r equivRow) Value {
			if r.i1 == 2 {
				return fv(1)
			}
			return fv(2.5)
		}},
	{src: "CASE i2 WHEN 1 THEN f2 WHEN 2 THEN i1 ELSE NULL END",
		want: func(r equivRow) Value {
			switch r.i2 {
			case 1:
				return fv(r.f2)
			case 2:
				return fv(float64(r.i1))
			}
			return NullValue()
		}},
	{src: "CASE i2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END",
		want: func(r equivRow) Value {
			switch r.i2 {
			case 1:
				return sv("one")
			case 2:
				return sv("two")
			}
			return sv("many")
		}},
	// Functions.
	{src: "length(s1)", want: func(r equivRow) Value { return iv(int64(len(r.s1))) }},
	{src: "upper(s1)", want: func(r equivRow) Value { return sv(strings.ToUpper(r.s1)) }},
	{src: "lower(s2)", want: func(r equivRow) Value { return sv(strings.ToLower(r.s2)) }},
	{src: "abs(i1)", want: func(r equivRow) Value { return iv(absInt(r.i1)) }},
	{src: "abs(f1)", want: func(r equivRow) Value { return fv(math.Abs(r.f1)) }},
	{src: "round(f1)", want: func(r equivRow) Value { return fv(math.Round(r.f1)) }},
	{src: "substring(s1, 1, 2)", want: func(r equivRow) Value { return sv(r.s1[:min(2, len(r.s1))]) }},
	{src: "substring(s2, 2)", want: func(r equivRow) Value { return sv(r.s2[min(1, len(r.s2)):]) }},
	// Concatenation renders numbers in their shortest form.
	{src: "s1 || s2", want: func(r equivRow) Value { return sv(r.s1 + r.s2) }},
	{src: "s1 || '-' || i1", want: func(r equivRow) Value { return sv(r.s1 + "-" + strconv.FormatInt(r.i1, 10)) }},
	// NULL literals flowing through kernels.
	{src: "i1 + NULL", want: func(r equivRow) Value { return NullValue() }},
	{src: "NULL = i1", want: func(r equivRow) Value { return bv(false) }},
	{src: "CASE WHEN b1 THEN NULL ELSE i1 END",
		want: func(r equivRow) Value {
			if r.b1 {
				return NullValue()
			}
			return iv(r.i1)
		}},
	// Nested compositions.
	{src: "(i1 + i2) * 2 > f1 AND s1 <> ''",
		want: func(r equivRow) Value { return bv(float64((r.i1+r.i2)*2) > r.f1 && r.s1 != "") }},
	{src: "abs(i1 - i2) BETWEEN 0 AND 3 OR s1 LIKE 'z%'",
		want: func(r equivRow) Value { return bv(absInt(r.i1-r.i2) <= 3 || strings.HasPrefix(r.s1, "z")) }},
	{src: "CASE WHEN i1 % 2 = 0 THEN 'even' ELSE 'odd' END = 'even'",
		want: func(r equivRow) Value { return bv(r.i1%2 == 0) }},
	// Guard-then-compute: short circuits and CASE branches shield
	// data-dependent errors (i1 has zeros, f1 has zeros and NaN).
	{src: "i1 <> 0 AND 100 / i1 > 5",
		want: func(r equivRow) Value { return bv(r.i1 != 0 && 100/float64(r.i1) > 5) }},
	{src: "i1 = 0 OR 100 / i1 > 5",
		want: func(r equivRow) Value { return bv(r.i1 == 0 || 100/float64(r.i1) > 5) }},
	{src: "CASE WHEN i1 = 0 THEN 0.0 ELSE 100.0 / i1 END",
		want: func(r equivRow) Value {
			if r.i1 == 0 {
				return fv(0)
			}
			return fv(100 / float64(r.i1))
		}},
	{src: "CASE WHEN f1 = 0.0 THEN 0.0 ELSE f2 / f1 END",
		want: func(r equivRow) Value {
			if feq(r.f1, 0) {
				return fv(0)
			}
			return fv(r.f2 / r.f1)
		}},
	{src: "i1 <> 0 AND i2 % i1 = 0",
		want: func(r equivRow) Value { return bv(r.i1 != 0 && r.i2%r.i1 == 0) }},
	{src: "NOT (i1 = 0) AND 1 / i1 < 2",
		want: func(r equivRow) Value { return bv(r.i1 != 0 && 1/float64(r.i1) < 2) }},
	// Unguarded: a zero divisor on any row fails the expression.
	{src: "100 / i1", fails: func(r equivRow) bool { return r.i1 == 0 },
		want: func(r equivRow) Value { return fv(100 / float64(r.i1)) }},
	{src: "i2 % i1", fails: func(r equivRow) bool { return r.i1 == 0 },
		want: func(r equivRow) Value { return iv(r.i2 % r.i1) }},
	// Filter shapes (also checked through filterGather).
	{src: "i1 > 0 AND f1 < 10.0", filter: true,
		want: func(r equivRow) Value { return bv(r.i1 > 0 && r.f1 < 10) }},
	{src: "s1 LIKE 'a%' OR i1 BETWEEN 2 AND 6", filter: true,
		want: func(r equivRow) Value { return bv(strings.HasPrefix(r.s1, "a") || (r.i1 >= 2 && r.i1 <= 6)) }},
	{src: "NOT b1 AND i1 % 2 = 0", filter: true,
		want: func(r equivRow) Value { return bv(!r.b1 && r.i1%2 == 0) }},
}

// exprTrials returns the randomized rowsets both reference tests run over
// (5 trials of 257 rows each), with each row also as plain Go fields.
func exprTrials() ([]*RowSet, [][]equivRow) {
	r := rand.New(rand.NewSource(7))
	var sets []*RowSet
	var rows [][]equivRow
	for trial := 0; trial < 5; trial++ {
		rs := equivRowSet(r, 257)
		rr := make([]equivRow, rs.N)
		for i := range rr {
			rr[i] = equivRowAt(rs, i)
		}
		sets = append(sets, rs)
		rows = append(rows, rr)
	}
	return sets, rows
}

// TestKernelInterpreterEquivalence runs every expression of exprCases
// through the batch kernels (compileVec) over randomized columns and
// requires the answer of the case's plain-Go reference interpreter (its
// want function) on every row — including whether the expression errors.
func TestKernelInterpreterEquivalence(t *testing.T) {
	sets, rows := exprTrials()
	for trial, rs := range sets {
		for _, c := range exprCases {
			fn, err := compileVec(parseTestExpr(t, c.src), rs.Schema, nil)
			if err != nil {
				t.Fatalf("%q: compile: %v", c.src, err)
			}
			vec, err := fn(rs)
			if err == nil {
				// A deferred row error that survives all guards surfaces.
				err = vec.pendingErr(rs.N)
			}
			wantErr := false
			for _, row := range rows[trial] {
				if c.fails != nil && c.fails(row) {
					wantErr = true
				}
			}
			if (err != nil) != wantErr {
				t.Fatalf("%q trial %d: error = %v, reference fails = %v", c.src, trial, err, wantErr)
			}
			if wantErr {
				continue
			}
			for i, row := range rows[trial] {
				if want, got := c.want(row), vec.valueAt(i); !valuesEquivalent(want, got) {
					t.Fatalf("%q row %d %+v: kernel %+v, reference %+v", c.src, i, row, got, want)
				}
			}
		}
	}
	for src, want := range caseTypes {
		got := ""
		fn, err := compileVec(parseTestExpr(t, src), sets[0].Schema, nil)
		if err != nil {
			got = err.Error()
		} else if vec, err := fn(sets[0]); err != nil {
			got = err.Error()
		} else {
			got = vec.Type.String()
		}
		if got != want {
			t.Errorf("%q: %s, want %s", src, got, want)
		}
	}
}

// caseTypes maps a CASE to the type its kernel produces, or to the error
// it fails to compile with: numeric branches unify to float, a NULL branch
// takes no part, and any other mix of classes is refused.
var caseTypes = map[string]string{
	"CASE WHEN b1 THEN 1 ELSE 2.5 END":             "float",
	"CASE WHEN b1 THEN i1 WHEN i2 > 2 THEN f1 END": "float",
	"CASE WHEN b1 THEN 1 ELSE NULL END":            "int",
	"CASE WHEN b1 THEN NULL ELSE 's' END":          "text",
	"CASE WHEN b1 THEN NULL END":                   "float",
	"CASE WHEN b1 THEN 'a' ELSE 1 END":             "engine: CASE branches mix text and int",
	"CASE WHEN b1 THEN true ELSE 1.5 END":          "engine: CASE branches mix bool and float",
	"CASE i2 WHEN 1 THEN 2 WHEN 2 THEN 'x' END":    "engine: CASE branches mix int and text",
}

// TestFilterMatchesInterpreter runs the filter predicates of exprCases
// through filterGather on row ids and requires exactly the row ids the
// plain-Go reference interpreter selects.
func TestFilterMatchesInterpreter(t *testing.T) {
	ex := &executor{}
	sets, rows := exprTrials()
	for trial, rs := range sets {
		ids := make([]int64, rs.N)
		for i := range ids {
			ids[i] = int64(i)
		}
		idOnly := &RowSet{Schema: Schema{{Name: "id", Type: TypeInt}}, Cols: []Column{IntColumn(ids)}, N: rs.N}
		for _, c := range exprCases {
			if !c.filter {
				continue
			}
			fn, err := compileVec(parseTestExpr(t, c.src), rs.Schema, nil)
			if err != nil {
				t.Fatalf("%q: compile: %v", c.src, err)
			}
			var wantIDs []int64
			for i, row := range rows[trial] {
				if c.want(row).Truthy() {
					wantIDs = append(wantIDs, int64(i))
				}
			}
			got, err := ex.filterGather(rs, idOnly, fn)
			if err != nil {
				t.Fatalf("%q: filter: %v", c.src, err)
			}
			if !slices.Equal(got.Cols[0].Ints, wantIDs) {
				t.Fatalf("%q trial %d: filter selects %v, reference %v", c.src, trial, got.Cols[0].Ints, wantIDs)
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
	if res.N != 2 {
		t.Fatalf("0.0 and -0.0 must share a group: %v", boxed(res))
	}
	if boxed(res)[0][1] != int64(3) {
		t.Errorf("zero group count = %v, want 3", boxed(res)[0][1])
	}

	// count(DISTINCT k) agrees.
	res, err = db.Exec("SELECT count(DISTINCT k) AS n FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != int64(2) {
		t.Errorf("distinct float keys = %v, want 2", boxed(res)[0][0])
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
	if res.N != 2 {
		t.Fatalf("rows = %v", boxed(res))
	}
	// 'big' group has 2 rows, NULL group has 3.
	if boxed(res)[0][1] != int64(2) || boxed(res)[1][1] != int64(3) {
		t.Errorf("group counts = %v", boxed(res))
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
	if res.N != 2 || boxed(res)[0][1] != "one" || boxed(res)[1][1] != "three" {
		t.Errorf("cross-type join rows = %v", boxed(res))
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
	if res.N != 2 || boxed(res)[0][0] != 9.0 || boxed(res)[1][0] != 10.0 {
		t.Errorf("guarded filter rows = %v", boxed(res))
	}
	res, err = db.Exec("SELECT CASE WHEN b = 0.0 THEN 0.0 ELSE a / b END AS r FROM q ORDER BY r")
	if err != nil {
		t.Fatalf("guarded CASE division must not error: %v", err)
	}
	if res.N != 3 || boxed(res)[0][0] != 0.0 {
		t.Errorf("guarded case rows = %v", boxed(res))
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
	if boxed(res)[0][0] != 26.0 { // rows 10 (updated: 11) + 5 (updated: 6) + 9
		t.Errorf("sum after guarded update = %v, want 26", boxed(res)[0][0])
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
	if res.N != 1 {
		t.Fatalf("rows = %v", boxed(res))
	}
	if boxed(res)[0][0] != int64(6) {
		t.Errorf("count(*) = %v", boxed(res)[0][0])
	}
	// sum/avg fold nothing: 0. min/max are NULL, stored as zero floats.
	for i := 1; i < 5; i++ {
		if boxed(res)[0][i] != 0.0 {
			t.Errorf("star aggregate %d = %v, want 0", i, boxed(res)[0][i])
		}
	}
}

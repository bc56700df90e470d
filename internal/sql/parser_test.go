package sql

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	s, err := ParseOne(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 1.5 FROM t -- comment\nWHERE x = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "1.5", "FROM", "t", "WHERE", "x", "=", "it's", ""}
	for i, w := range want {
		if texts[i] != w {
			t.Errorf("token %d = %q, want %q", i, texts[i], w)
		}
	}
	if kinds[9] != TokString {
		t.Error("escaped string not lexed as string")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("unexpected character should error")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY b DESC LIMIT 10").(*SelectStmt)
	if len(s.Items) != 2 || s.Items[1].Alias != "bee" {
		t.Errorf("items: %+v", s.Items)
	}
	if s.From[0].Table != "t" {
		t.Errorf("from: %+v", s.From)
	}
	bin, ok := s.Where.(*Binary)
	if !ok || bin.Op != ">" {
		t.Errorf("where: %#v", s.Where)
	}
	if !s.OrderBy[0].Desc || s.Limit != 10 {
		t.Errorf("order/limit: %+v %d", s.OrderBy, s.Limit)
	}
}

func TestParseJoins(t *testing.T) {
	s := mustParse(t, "SELECT * FROM a, b, c WHERE a.id = b.id").(*SelectStmt)
	if len(s.From) != 3 || s.From[1].Join != JoinComma {
		t.Errorf("comma joins: %+v", s.From)
	}
	s = mustParse(t, "SELECT x FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.k = c.k").(*SelectStmt)
	if len(s.From) != 3 || s.From[1].Join != JoinInner || s.From[2].Join != JoinLeft {
		t.Errorf("explicit joins: %+v", s.From)
	}
	if s.From[1].On == nil || s.From[2].On == nil {
		t.Error("ON clauses missing")
	}
}

func TestParseSubqueries(t *testing.T) {
	q := `SELECT name FROM (SELECT name, total FROM orders GROUP BY name) AS o
	      WHERE total > (SELECT avg(total) FROM orders)
	        AND name IN (SELECT name FROM vip)
	        AND EXISTS (SELECT 1 FROM flags WHERE flags.name = o.name)`
	s := mustParse(t, q).(*SelectStmt)
	if s.From[0].Sub == nil || s.From[0].Alias != "o" {
		t.Error("FROM subquery not parsed")
	}
	subs := Subqueries(s.Where)
	if len(subs) != 3 {
		t.Errorf("found %d subqueries in WHERE, want 3", len(subs))
	}
}

func TestParsePredicates(t *testing.T) {
	s := mustParse(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10
		AND b NOT IN ('x', 'y') AND c LIKE '%foo%' AND d IS NOT NULL
		AND NOT (e = 1)`).(*SelectStmt)
	var between, inlist, like, isnull, not int
	WalkExprs(s.Where, func(e Expr) bool {
		switch x := e.(type) {
		case *Between:
			between++
		case *InList:
			inlist++
			if !x.Not {
				t.Error("NOT IN lost its negation")
			}
		case *Like:
			like++
		case *IsNull:
			isnull++
			if !x.Not {
				t.Error("IS NOT NULL lost its negation")
			}
		case *Unary:
			if x.Op == "NOT" {
				not++
			}
		}
		return true
	})
	if between != 1 || inlist != 1 || like != 1 || isnull != 1 || not != 1 {
		t.Errorf("predicate counts: between=%d in=%d like=%d isnull=%d not=%d",
			between, inlist, like, isnull, not)
	}
}

func TestParseCase(t *testing.T) {
	s := mustParse(t, `SELECT CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END FROM t`).(*SelectStmt)
	c, ok := s.Items[0].Expr.(*Case)
	if !ok || len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case: %#v", s.Items[0].Expr)
	}
	if _, err := ParseOne("SELECT CASE END FROM t"); err == nil {
		t.Error("CASE without WHEN should error")
	}
}

func TestParsePredict(t *testing.T) {
	s := mustParse(t, "SELECT PREDICT(churn_v2, age, income) AS score FROM customers WHERE PREDICT(churn_v2, age, income) > 0.8").(*SelectStmt)
	pr, ok := s.Items[0].Expr.(*Predict)
	if !ok || pr.Model != "churn_v2" || len(pr.Args) != 2 {
		t.Fatalf("predict: %#v", s.Items[0].Expr)
	}
	acc := Analyze(s)
	if len(acc.Models) != 1 || acc.Models[0] != "churn_v2" {
		t.Errorf("models: %v", acc.Models)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	s := mustParse(t, `SELECT region, count(*), sum(amount), avg(DISTINCT amount)
		FROM orders GROUP BY region HAVING sum(amount) > 100`).(*SelectStmt)
	fc := s.Items[1].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "count" {
		t.Errorf("count(*): %#v", fc)
	}
	if !s.Items[3].Expr.(*FuncCall).Distinct {
		t.Error("DISTINCT aggregate lost")
	}
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group by / having missing")
	}
}

func TestParseDateInterval(t *testing.T) {
	s := mustParse(t, "SELECT * FROM orders WHERE o_date >= DATE '1994-01-01' AND o_date < DATE '1994-01-01' + INTERVAL '1' year").(*SelectStmt)
	found := 0
	WalkExprs(s.Where, func(e Expr) bool {
		if iv, ok := e.(*Interval); ok {
			if iv.Value != "1" || iv.Unit != "year" {
				t.Errorf("interval: %#v", iv)
			}
			found++
		}
		return true
	})
	if found != 1 {
		t.Errorf("found %d intervals", found)
	}
}

func TestParseInsertUpdateDeleteCreate(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'z' WHERE a < 5").(*UpdateStmt)
	if len(up.Sets) != 2 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE a = 3").(*DeleteStmt)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
	ct := mustParse(t, "CREATE TABLE t (a int, b float, c text, d bool)").(*CreateTableStmt)
	if len(ct.Columns) != 4 || ct.Columns[2].Type != "text" {
		t.Errorf("create: %+v", ct)
	}
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse("CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT a FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                        // handled: no statements is fine -> use ParseOne
		"SELECT",                  // missing items
		"SELECT a FROM",           // missing table
		"SELECT a FROM t WHERE",   // missing predicate
		"INSERT INTO t",           // missing VALUES
		"CREATE TABLE t (a blob)", // bad type
		"SELECT a FROM t LIMIT x", // bad limit
		"FOO BAR",                 // unknown statement
		"SELECT (SELECT a FROM t", // unclosed
		"SELECT a b c FROM t",     // junk after alias
	}
	for _, q := range bad {
		if _, err := ParseOne(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a + b * 2 > 10 AND c = 1 OR d = 2").(*SelectStmt)
	// Must parse as ((a + (b*2)) > 10 AND c = 1) OR d = 2
	or, ok := s.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top is %#v, want OR", s.Where)
	}
	and, ok := or.L.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("left is %#v, want AND", or.L)
	}
	cmp := and.L.(*Binary)
	if cmp.Op != ">" {
		t.Fatalf("cmp is %q", cmp.Op)
	}
	add := cmp.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("add is %q", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != "*" {
		t.Fatalf("mul is %q", mul.Op)
	}
}

func TestAnalyze(t *testing.T) {
	s := mustParse(t, `SELECT c.name, sum(o.total) FROM customers c JOIN orders o ON c.id = o.cust_id
		WHERE c.region IN (SELECT region FROM top_regions) GROUP BY c.name`)
	acc := Analyze(s)
	wantReads := []string{"customers", "orders", "top_regions"}
	if !reflect.DeepEqual(acc.ReadTables, wantReads) {
		t.Errorf("reads = %v, want %v", acc.ReadTables, wantReads)
	}
	if len(acc.WriteTables) != 0 {
		t.Errorf("writes = %v", acc.WriteTables)
	}
	if cols := acc.Columns["c"]; len(cols) != 3 { // name, id, region
		t.Errorf("c columns = %v", cols)
	}

	up := mustParse(t, "UPDATE stock SET qty = qty - 1 WHERE item = 5")
	acc = Analyze(up)
	if len(acc.WriteTables) != 1 || acc.WriteTables[0] != "stock" {
		t.Errorf("update writes = %v", acc.WriteTables)
	}
	if len(acc.ReadTables) != 1 {
		t.Errorf("update reads = %v", acc.ReadTables)
	}
}

// Round-trip property: format(parse(q)) reparses to the same AST and the
// same formatted text (fixpoint).
// roundTripQueries are statements whose formatted text parses back to the
// same statement.
var roundTripQueries = []string{
	"SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY b DESC LIMIT 10",
	"SELECT DISTINCT region FROM orders",
	"SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2",
	"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
	"SELECT * FROM a JOIN b ON a.id = b.id WHERE a.v BETWEEN 1 AND 2",
	"SELECT PREDICT(m, x, y) AS s FROM t WHERE PREDICT(m, x, y) >= 0.5",
	"INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)",
	"UPDATE t SET a = a + 1 WHERE b LIKE '%z%'",
	"DELETE FROM t WHERE a IS NOT NULL",
	"CREATE TABLE t (a int, b text)",
	"SELECT x FROM t WHERE d >= DATE '1995-03-15' AND d < DATE '1995-03-15' + INTERVAL '90' day",
	"SELECT a FROM t WHERE b IN (1, 2, 3) AND NOT EXISTS (SELECT 1 FROM u WHERE u.a = t.a)",
	"SELECT -a, a % 2 FROM t WHERE NOT (a = 1) OR a <> 2",
	"SELECT substring(name, 1, 3) FROM t",
}

func TestFormatRoundTrip(t *testing.T) {
	for _, q := range roundTripQueries {
		s1, err := ParseOne(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		f1 := FormatStatement(s1)
		s2, err := ParseOne(f1)
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", q, f1, err)
		}
		f2 := FormatStatement(s2)
		if f1 != f2 {
			t.Errorf("format not a fixpoint:\n%s\n%s", f1, f2)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("ASTs differ after round trip for %q", q)
		}
	}
}

func TestSubstringFromFor(t *testing.T) {
	s := mustParse(t, "SELECT SUBSTRING(c_phone FROM 1 FOR 2) FROM customer").(*SelectStmt)
	fc, ok := s.Items[0].Expr.(*FuncCall)
	if !ok || fc.Name != "substring" || len(fc.Args) != 3 {
		t.Fatalf("substring: %#v", s.Items[0].Expr)
	}
}

func TestCaseInsensitivity(t *testing.T) {
	s := mustParse(t, "select A, B from T where A = 1").(*SelectStmt)
	if s.From[0].Table != "t" {
		t.Error("table names should be lower-cased")
	}
	if s.Items[0].Expr.(*ColRef).Name != "a" {
		t.Error("column names should be lower-cased")
	}
}

func TestFormatExprStandalone(t *testing.T) {
	e := &Binary{Op: "+", L: &ColRef{Name: "a"}, R: &Lit{Kind: LitFloat, F: 1.5}}
	if got := FormatExpr(e); got != "(a + 1.5)" {
		t.Errorf("FormatExpr = %q", got)
	}
	if !strings.Contains(FormatExpr(&Lit{Kind: LitFloat, F: 2}), "2.0") {
		t.Error("whole floats should render with a decimal point")
	}
}

func TestParseInsertSelect(t *testing.T) {
	s := mustParse(t, "INSERT INTO scores (id, s) SELECT id, PREDICT(m, age) FROM customers WHERE age > 40").(*InsertStmt)
	if s.Query == nil || len(s.Columns) != 2 || len(s.Rows) != 0 {
		t.Fatalf("insert-select: %+v", s)
	}
	acc := Analyze(s)
	if len(acc.WriteTables) != 1 || acc.WriteTables[0] != "scores" {
		t.Errorf("writes = %v", acc.WriteTables)
	}
	if len(acc.ReadTables) != 1 || acc.ReadTables[0] != "customers" {
		t.Errorf("reads = %v", acc.ReadTables)
	}
	// Round trip.
	f1 := FormatStatement(s)
	s2, err := ParseOne(f1)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if FormatStatement(s2) != f1 {
		t.Error("format not a fixpoint for INSERT ... SELECT")
	}
}

// randExpr builds a random expression tree from a seed, used to
// property-test the printer/parser round trip on shapes no hand-written
// case covers.
func randExpr(r *randSrc, depth int) Expr {
	if depth <= 0 {
		switch r.n(4) {
		case 0:
			return &ColRef{Name: string(rune('a' + r.n(5)))}
		case 1:
			return &ColRef{Table: "t" + string(rune('0'+r.n(3))), Name: string(rune('a' + r.n(5)))}
		case 2:
			return &Lit{Kind: LitInt, I: int64(r.n(100))}
		default:
			return &Lit{Kind: LitString, S: "s" + string(rune('0'+r.n(10)))}
		}
	}
	switch r.n(8) {
	case 0:
		return &Binary{Op: []string{"+", "-", "*", "AND", "OR", "=", "<", ">="}[r.n(8)],
			L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	case 1:
		return &Unary{Op: "NOT", X: randExpr(r, depth-1)}
	case 2:
		return &Unary{Op: "-", X: randExpr(r, depth-1)}
	case 3:
		return &Between{X: randExpr(r, depth-1), Lo: randExpr(r, 0), Hi: randExpr(r, 0), Not: r.n(2) == 0}
	case 4:
		return &InList{X: randExpr(r, depth-1), List: []Expr{randExpr(r, 0), randExpr(r, 0)}, Not: r.n(2) == 0}
	case 5:
		return &Like{X: randExpr(r, depth-1), Pattern: &Lit{Kind: LitString, S: "%x%"}, Not: r.n(2) == 0}
	case 6:
		return &Case{Whens: []When{{Cond: randExpr(r, depth-1), Then: randExpr(r, 0)}}, Else: randExpr(r, 0)}
	default:
		return &FuncCall{Name: "substring", Args: []Expr{randExpr(r, depth-1), &Lit{Kind: LitInt, I: 1}, &Lit{Kind: LitInt, I: 2}}}
	}
}

type randSrc struct{ state uint64 }

func (r *randSrc) n(m int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(m))
}

func TestRandomExprRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := &randSrc{state: seed}
		e := randExpr(r, 1+r.n(3))
		text := "SELECT " + FormatExpr(e) + " FROM t"
		s1, err := ParseOne(text)
		if err != nil {
			t.Fatalf("seed %d: generated SQL does not parse: %v\n%s", seed, err, text)
		}
		f1 := FormatStatement(s1)
		s2, err := ParseOne(f1)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, f1)
		}
		if f2 := FormatStatement(s2); f1 != f2 {
			t.Fatalf("seed %d: format not a fixpoint:\n%s\n%s", seed, f1, f2)
		}
	}
}

// deepExprs are statements whose expression tree is height levels deep,
// in the two shapes that reach the passes after the parser: nesting the
// parser recurses through, and a left-deep chain it builds in a loop.
func deepExprs(height int) map[string]string {
	n := height - 1 // operators over one literal
	return map[string]string{
		"parentheses": "SELECT " + strings.Repeat("(1 + ", n) + "1" + strings.Repeat(")", n),
		"chain":       "SELECT 1" + strings.Repeat(" + 1", n),
		"negations":   "SELECT " + strings.Repeat("- ", n) + "1",
	}
}

// fromChain is a SELECT whose FROM nests n subqueries.
func fromChain(n int) string {
	return "SELECT * FROM " + strings.Repeat("(SELECT * FROM ", n) + "t" + strings.Repeat(") s", n)
}

// TestExprDepthIsBounded: an expression deeper than maxExprDepth is a
// parse error naming the limit, never a tree that overflows the stack of
// the first pass that recurses over it (FormatStatement stands in for
// them). A tree at the limit parses and round-trips. The stack is capped
// so that an unbounded tree crashes the test rather than taking a
// gigabyte of stack first.
func TestExprDepthIsBounded(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	for shape, q := range deepExprs(100_000) {
		stmts, err := Parse(q)
		if err == nil {
			FormatStatement(stmts[0])
			t.Fatalf("%s: a 100000-level expression parsed", shape)
		}
		if want := fmt.Sprintf("expression nests deeper than %d levels", maxExprDepth); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want an error naming the limit", shape, err)
		}
	}
	for shape, q := range deepExprs(maxExprDepth) {
		text := FormatStatement(mustParse(t, q))
		if again := FormatStatement(mustParse(t, text)); again != text {
			t.Fatalf("%s at the limit does not round-trip", shape)
		}
	}
	for shape, q := range deepExprs(maxExprDepth + 1) {
		if _, err := Parse(q); err == nil {
			t.Fatalf("%s one level past the limit parsed", shape)
		}
	}
	for shape, q := range map[string]string{
		"parentheses":     "SELECT " + strings.Repeat("(", maxExprNest) + "1" + strings.Repeat(")", maxExprNest),
		"FROM subqueries": fromChain(100_000),
	} {
		if _, err := Parse(q); err == nil || !strings.Contains(err.Error(), "nests deeper than") {
			t.Fatalf("%s nested past the parser's recursion bound: %v, want an error naming the limit", shape, err)
		}
	}
	mustParse(t, fromChain(100))
}

package engine

// Zone maps: per-morsel min/max of every numeric column, so a scan reads
// only the morsels its pushed-down filter can match. Tables clustered on a
// key (append-ordered ids) turn a point or range filter on that key into a
// read of one or two morsels; on an unclustered column every zone spans
// the whole domain and nothing is skipped.
//
// Zones cover a table's current version only: a full morsel of an int or
// float column has one, the partial last morsel and text/bool columns have
// none, and time-travel scans read every morsel. A zone may be wider than
// its data, never narrower — skipping is only sound while every stored
// value lies inside its morsel's zone.

import (
	"math"

	"repro/internal/sql"
)

// zone is one full morsel's range in one numeric column, in float64 — what
// cmpNum compares in (int64 → float64 is monotone, so an int column's
// converted min and max bound its converted values). min and max skip
// NaNs, which nan records; a morsel of only NaNs has min +Inf, max -Inf.
type zone struct {
	min, max float64
	nan      bool
}

// extendZones returns the zones of every full morsel of cols. old holds
// the zones of a prefix of the same rows (the table before an append): its
// entries are kept and only the morsels past them are computed, so an
// append costs O(rows appended). A nil old computes every zone afresh. An
// entry may be appended in place past old's length: a reader only reads
// the entries of its own snapshot.
func extendZones(cols []Column, old [][]zone) [][]zone {
	out := make([][]zone, len(cols))
	for i := range cols {
		c := &cols[i]
		if c.Type != TypeInt && c.Type != TypeFloat {
			continue
		}
		var z []zone
		if old != nil {
			z = old[i]
		}
		for m := len(z); m < c.Len()/morselRows; m++ {
			z = append(z, morselZone(c, m))
		}
		out[i] = z
	}
	return out
}

// morselZone computes the zone of full morsel m of a numeric column.
func morselZone(c *Column, m int) zone {
	lo, hi := m*morselRows, (m+1)*morselRows
	if c.Type == TypeInt {
		mn, mx := c.Ints[lo], c.Ints[lo]
		for _, v := range c.Ints[lo:hi] {
			mn = min(mn, v)
			mx = max(mx, v)
		}
		return zone{min: float64(mn), max: float64(mx)}
	}
	z := zone{min: math.Inf(1), max: math.Inf(-1)}
	for _, v := range c.Floats[lo:hi] {
		if v < z.min {
			z.min = v
		}
		if v > z.max {
			z.max = v
		}
		if v != v {
			z.nan = true
		}
	}
	return z
}

// zoneTest is one pushed-down conjunct a zone can rule out: column col
// compared by op (= < <= > >=) with the constant c, or, with op "BETWEEN",
// col BETWEEN c AND hi.
type zoneTest struct {
	col   int
	op    string
	c, hi float64
}

// canMatch reports whether some value inside z may satisfy the test under
// cmpNum's semantics, where NaN on either side passes =, <=, >= and
// BETWEEN and fails < and >. A NaN constant therefore rules nothing out
// but < and >, which it rules everything out of.
func (zt zoneTest) canMatch(z zone) bool {
	switch zt.op {
	case "=":
		return z.nan || !(zt.c < z.min || zt.c > z.max)
	case "<":
		return z.min < zt.c
	case "<=":
		return z.nan || !(z.min > zt.c)
	case ">":
		return z.max > zt.c
	case ">=":
		return z.nan || !(z.max < zt.c)
	case "BETWEEN":
		return z.nan || !(z.max < zt.c || z.min > zt.hi || zt.c > zt.hi)
	}
	return true
}

// zoneTests returns the conjuncts of a scan's filters that zones can rule
// out. It returns none when some conjunct could raise a row error: a
// skipped morsel is never evaluated, so skipping would also skip the
// error the statement has to return.
func zoneTests(filters []sql.Expr, schema Schema) []zoneTest {
	var tests []zoneTest
	for _, f := range filters {
		if !errorFree(f, schema) {
			return nil
		}
		tests = appendZoneTests(tests, f, schema)
	}
	return tests
}

// appendZoneTests appends the tests e holds: e itself when it is
// `numcol op constant` (either way round) or `numcol BETWEEN constant AND
// constant`, and those of both sides of an AND.
func appendZoneTests(tests []zoneTest, e sql.Expr, schema Schema) []zoneTest {
	switch x := e.(type) {
	case *sql.Binary:
		switch x.Op {
		case "AND":
			return appendZoneTests(appendZoneTests(tests, x.L, schema), x.R, schema)
		case "=", "<", "<=", ">", ">=":
			col, k, op := x.L, x.R, x.Op
			if _, ok := numConst(col); ok {
				col, k, op = x.R, x.L, mirrored[op]
			}
			idx, okCol := numColumn(col, schema)
			c, okConst := numConst(k)
			if okCol && okConst {
				tests = append(tests, zoneTest{col: idx, op: op, c: c})
			}
		}
	case *sql.Between:
		idx, okCol := numColumn(x.X, schema)
		lo, okLo := numConst(x.Lo)
		hi, okHi := numConst(x.Hi)
		if !x.Not && okCol && okLo && okHi {
			tests = append(tests, zoneTest{col: idx, op: "BETWEEN", c: lo, hi: hi})
		}
	}
	return tests
}

// mirrored is the operator with its operands swapped: c op col is col
// mirrored[op] c under cmpNum (c <= x is !(c > x), which is x >= c).
var mirrored = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// numColumn resolves e to a numeric column of schema.
func numColumn(e sql.Expr, schema Schema) (int, bool) {
	cr, ok := e.(*sql.ColRef)
	if !ok {
		return 0, false
	}
	idx, err := schema.Resolve(cr.Table, cr.Name)
	if err != nil || !isNumeric(schema[idx].Type) {
		return 0, false
	}
	return idx, true
}

// numConst evaluates a numeric constant the way the kernel does: a numeric
// literal, or unary minus applied to one (int negation wraps, as the
// kernel's does), compared as float64.
func numConst(e sql.Expr) (float64, bool) {
	neg := false
	if u, ok := e.(*sql.Unary); ok && u.Op == "-" {
		neg, e = true, u.X
	}
	lit, ok := e.(*sql.Lit)
	if !ok {
		return 0, false
	}
	switch lit.Kind {
	case sql.LitInt:
		if neg {
			return float64(-lit.I), true
		}
		return float64(lit.I), true
	case sql.LitFloat:
		if neg {
			return -lit.F, true
		}
		return lit.F, true
	}
	return 0, false
}

// errorFree reports whether e can raise no row error: comparisons,
// BETWEEN, AND and OR over columns and non-NULL constants whose classes
// match (both numeric or both text). Anything else — arithmetic, function
// calls, CASE, LIKE, a bool operand, mismatched classes — may.
func errorFree(e sql.Expr, schema Schema) bool {
	switch x := e.(type) {
	case *sql.Binary:
		switch x.Op {
		case "AND", "OR":
			return errorFree(x.L, schema) && errorFree(x.R, schema)
		case "=", "<>", "<", "<=", ">", ">=":
			c := operandClass(x.L, schema)
			return c != 0 && c == operandClass(x.R, schema)
		}
	case *sql.Between:
		c := operandClass(x.X, schema)
		return c != 0 && c == operandClass(x.Lo, schema) && c == operandClass(x.Hi, schema)
	}
	return false
}

// operandClass is 'n' for a numeric column or constant, 's' for a text
// column or literal, and 0 for any other operand.
func operandClass(e sql.Expr, schema Schema) byte {
	if _, ok := numConst(e); ok {
		return 'n'
	}
	switch x := e.(type) {
	case *sql.ColRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return 0
		}
		switch schema[idx].Type {
		case TypeInt, TypeFloat:
			return 'n'
		case TypeString:
			return 's'
		}
	case *sql.Lit:
		if x.Kind == sql.LitString {
			return 's'
		}
	}
	return 0
}

// morselRun is a half-open range [lo, hi) of morsel indices a scan reads.
type morselRun struct{ lo, hi int }

// keptRuns lists, in order, the runs of an n-row scan's morsels that no
// test rules out; a morsel without a zone (the partial last one) is always
// kept. With no test it is the one run [0, morselCount(n)). When
// every morsel is ruled out the first is kept anyway, so the operators
// above the scan still see a batch, as they do when an unpruned filter
// keeps no row: an error they raise on any batch (PREDICT's argument
// types) is still raised.
func keptRuns(tests []zoneTest, zones [][]zone, n int) []morselRun {
	total := morselCount(n)
	if len(tests) == 0 || total == 0 {
		return []morselRun{{0, total}}
	}
	var runs []morselRun
	for m := 0; m < total; m++ {
		if !mayMatch(tests, zones, m) {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].hi == m {
			runs[k].hi++
		} else {
			runs = append(runs, morselRun{m, m + 1})
		}
	}
	if len(runs) == 0 {
		runs = append(runs, morselRun{0, 1})
	}
	return runs
}

// mayMatch reports whether morsel m may hold a row every test accepts.
func mayMatch(tests []zoneTest, zones [][]zone, m int) bool {
	for _, zt := range tests {
		if z := zones[zt.col]; m < len(z) && !zt.canMatch(z[m]) {
			return false
		}
	}
	return true
}

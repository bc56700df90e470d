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
// value lies inside its morsel's zone, and so is folding them into the
// ranges model compression specializes to (snapshotStats), which also
// reads the distinct values kept per text column.

import (
	"maps"
	"math"

	"repro/internal/onnx"
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

// zoneMap is what a table keeps beside its current columns: their row
// count and, per column, the zones of an int or float column and the
// distinct values of a text column — nil past maxTrackedCategories. A
// published category set is never written: versions share it.
type zoneMap struct {
	rows int
	num  [][]zone
	cats []map[string]bool
}

// maxTrackedCategories caps the distinct-value set kept per text column.
const maxTrackedCategories = 256

// extendZones returns the zone map of cols. old is the map of a prefix of
// the same rows (the table before an append): its zones and category sets
// are kept and only the rows past old.rows are read, so an append costs
// O(rows appended). The zero zoneMap computes everything afresh. A zone
// may be appended in place past old's length: a reader only reads the
// entries of its own snapshot.
func extendZones(cols []Column, old zoneMap) zoneMap {
	out := zoneMap{num: make([][]zone, len(cols)), cats: make([]map[string]bool, len(cols))}
	if len(cols) > 0 {
		out.rows = cols[0].Len()
	}
	for i := range cols {
		c := &cols[i]
		switch c.Type {
		case TypeInt, TypeFloat:
			var z []zone
			if old.num != nil {
				z = old.num[i]
			}
			for m := len(z); m < c.Len()/morselRows; m++ {
				z = append(z, spanZone(c, m*morselRows, (m+1)*morselRows))
			}
			out.num[i] = z
		case TypeString:
			set := map[string]bool{}
			if old.cats != nil {
				set = old.cats[i]
			}
			out.cats[i] = addCategories(set, c.Strs[old.rows:])
		}
	}
	return out
}

// addCategories returns set with vals added, or nil once that holds more
// than maxTrackedCategories values (a nil set stays nil). set itself is
// never written: the first new value copies it.
func addCategories(set map[string]bool, vals []string) map[string]bool {
	copied := false
	for _, v := range vals {
		if set == nil || set[v] {
			continue
		}
		if len(set) == maxTrackedCategories {
			return nil
		}
		if !copied {
			set, copied = maps.Clone(set), true
		}
		set[v] = true
	}
	return set
}

// spanZone computes the zone of rows [lo, hi) of a numeric column; no rows
// make the empty zone, +Inf to -Inf.
func spanZone(c *Column, lo, hi int) zone {
	z := zone{min: math.Inf(1), max: math.Inf(-1)}
	if c.Type == TypeInt {
		for _, v := range c.Ints[lo:hi] {
			z.min = min(z.min, float64(v))
			z.max = max(z.max, float64(v))
		}
		return z
	}
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

// snapshotStats folds a current-version snapshot's zone map into the
// statistics stats-driven compression specializes a model to: a numeric
// column's range is the union of its zones and of the rows past them (the
// partial last morsel), and none when any of them holds a NaN — the scorer
// sends NaN right at every split, which no range can express; a text
// column's categories are its tracked set. An empty column has no range.
func snapshotStats(schema Schema, cols []Column, zm zoneMap) onnx.Stats {
	stats := onnx.Stats{}
	for i, m := range schema {
		c := &cols[i]
		switch m.Type {
		case TypeInt, TypeFloat:
			z := spanZone(c, len(zm.num[i])*morselRows, c.Len())
			for _, p := range zm.num[i] {
				z = zone{min(z.min, p.min), max(z.max, p.max), z.nan || p.nan}
			}
			if c.Len() > 0 && !z.nan {
				stats[m.Name] = onnx.ColumnStats{HasRange: true, Min: z.min, Max: z.max}
			}
		case TypeString:
			if set := zm.cats[i]; set != nil {
				stats[m.Name] = onnx.ColumnStats{Categories: set}
			}
		}
	}
	return stats
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

package engine

// Operator equivalence pinning. Every operator runs one implementation at
// ex.workers(n) workers, so two checks cover it: each result equals an
// independent reference computed in this file from the table data, and it
// is the same at Parallelism 1 and at many workers. Against the reference,
// non-DISTINCT float sums compare under a tiny relative tolerance (merging
// re-associates their additions) and everything else must match exactly;
// the worker-count checks apply that tolerance to every float cell.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// parallelTestDB builds a skewed fact table (wide enough to clear the
// parallel threshold several times over) plus a dimension table. The skew —
// 60% of rows in one group, a hot join key, NULLs sprinkled into the
// aggregate column — is the morsel queue's reason to exist.
func parallelTestDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	seed := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	ids := make([]int64, rows)
	grps := make([]int64, rows)
	vals := make([]float64, rows)
	cats := make([]string, rows)
	flags := make([]bool, rows)
	catNames := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		if next()%10 < 6 {
			grps[i] = 7 // hot group and hot join key
		} else {
			grps[i] = int64(next() % 500)
		}
		vals[i] = float64(next()%1_000_000)/997.0 - 300
		cats[i] = catNames[next()%4]
		flags[i] = next()%3 == 0
	}
	if _, err := db.CreateTableFromColumns("facts",
		[]string{"id", "grp", "val", "cat", "flag"},
		[]Column{IntColumn(ids), IntColumn(grps), FloatColumn(vals), StringColumn(cats), BoolColumn(flags)}); err != nil {
		t.Fatal(err)
	}
	const dimRows = 600
	ks := make([]int64, dimRows)
	names := make([]string, dimRows)
	for i := 0; i < dimRows; i++ {
		ks[i] = int64(i % 500) // duplicate keys: probes fan out
		names[i] = fmt.Sprintf("d%03d", i)
	}
	if _, err := db.CreateTableFromColumns("dim",
		[]string{"k", "name"},
		[]Column{IntColumn(ks), StringColumn(names)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// execAt executes a SELECT at the given worker cap.
func execAt(db *DB, query string, workers int) (*RowSet, error) {
	stmt, err := sql.ParseOne(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT")
	}
	return db.execSelect(context.Background(), sel, ExecOptions{Level: opt.LevelParallel, Parallelism: workers})
}

// runAt executes a SELECT at the given worker cap, failing the test on error.
func runAt(t testing.TB, db *DB, query string, workers int) *RowSet {
	t.Helper()
	rs, err := execAt(db, query, workers)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", query, workers, err)
	}
	return rs
}

// sameRowSet compares two rowsets cell by cell: exact for ints, strings and
// bools, relative 1e-9 for floats (merging re-associates float additions).
// It returns the first difference, or nil.
func sameRowSet(want, got *RowSet) error {
	if want.N != got.N {
		return fmt.Errorf("%d rows, want %d", got.N, want.N)
	}
	if len(want.Cols) != len(got.Cols) {
		return fmt.Errorf("%d columns, want %d", len(got.Cols), len(want.Cols))
	}
	for c := range want.Cols {
		if want.Cols[c].Type != got.Cols[c].Type {
			return fmt.Errorf("column %d type %v, want %v", c, got.Cols[c].Type, want.Cols[c].Type)
		}
	}
	for r := 0; r < want.N; r++ {
		for c := range want.Cols {
			wv := want.Cols[c].Value(r)
			gv := got.Cols[c].Value(r)
			if wv.Null != gv.Null {
				return fmt.Errorf("row %d col %d null mismatch: %v, want %v", r, c, gv, wv)
			}
			if wv.Null {
				continue
			}
			if wv.Kind == TypeFloat {
				if d := math.Abs(wv.F - gv.F); d > 1e-9*math.Max(1, math.Abs(wv.F)) {
					return fmt.Errorf("row %d col %d float mismatch: %v, want %v", r, c, gv.F, wv.F)
				}
				continue
			}
			if wv != gv {
				return fmt.Errorf("row %d col %d mismatch: %v, want %v", r, c, gv, wv)
			}
		}
	}
	return nil
}

// requireSameRowSet fails the test when sameRowSet finds a difference.
func requireSameRowSet(t *testing.T, query string, want, got *RowSet) {
	t.Helper()
	if err := sameRowSet(want, got); err != nil {
		t.Fatalf("%s: %v", query, err)
	}
}

// equivalenceCase is one query of the operator suite and its independent
// reference answer (see TestOperatorsMatchReference).
type equivalenceCase struct {
	query string
	// approx lists the output columns holding non-DISTINCT float sums or
	// averages: the morsel merge re-associates their additions, so they
	// compare under a 1e-9 relative tolerance. Every other cell is exact.
	approx []int
	want   func(d *refData) [][]Value
}

// equivalenceQueries cover every operator, including the accumulator-merge
// corners (AVG, MIN/MAX, COUNT/SUM DISTINCT, all-NULL groups), LEFT JOIN
// unmatched padding, residual join predicates, multi-key sorts with heavy
// ties, NULL and NaN sort keys, and skewed filters.
var equivalenceQueries = []equivalenceCase{
	{query: `SELECT id, grp FROM facts WHERE val > 400.0 AND cat <> 'beta'`,
		want: func(d *refData) (out [][]Value) {
			for _, f := range d.facts {
				if f.val > 400 && f.cat != "beta" {
					out = append(out, []Value{IntValue(f.id), IntValue(f.grp)})
				}
			}
			return out
		}},
	{query: `SELECT id FROM facts WHERE grp = 7 AND flag`,
		want: func(d *refData) (out [][]Value) {
			for _, f := range d.facts {
				if f.grp == 7 && f.flag {
					out = append(out, []Value{IntValue(f.id)})
				}
			}
			return out
		}},
	{query: `SELECT grp, count(*) AS n, sum(val) AS s, avg(val) AS a, min(val) AS lo, max(val) AS hi
		FROM facts GROUP BY grp`,
		approx: []int{2, 3},
		want: func(d *refData) [][]Value {
			return refGroupBy(d.facts, byGrp,
				refAgg{fn: "count"}, refAgg{fn: "sum", arg: factVal}, refAgg{fn: "avg", arg: factVal},
				refAgg{fn: "min", arg: factVal}, refAgg{fn: "max", arg: factVal})
		}},
	{query: `SELECT cat, count(val) AS nv, max(val) AS mx FROM facts GROUP BY cat`,
		want: func(d *refData) [][]Value {
			return refGroupBy(d.facts, func(f refFact) []Value { return []Value{StringValue(f.cat)} },
				refAgg{fn: "count", arg: factVal}, refAgg{fn: "max", arg: factVal})
		}},
	{query: `SELECT grp, count(CASE WHEN flag THEN val END) AS n, sum(CASE WHEN flag THEN val END) AS s,
		min(CASE WHEN flag THEN val END) AS lo FROM facts GROUP BY grp`,
		approx: []int{2},
		want: func(d *refData) [][]Value {
			flagged := func(f refFact) Value {
				if f.flag {
					return FloatValue(f.val)
				}
				return NullValue()
			}
			return refGroupBy(d.facts, byGrp,
				refAgg{fn: "count", arg: flagged}, refAgg{fn: "sum", arg: flagged}, refAgg{fn: "min", arg: flagged})
		}},
	{query: `SELECT grp, count(DISTINCT cat) AS dc, sum(DISTINCT val) AS ds, min(DISTINCT val) AS dm
		FROM facts GROUP BY grp`,
		want: func(d *refData) [][]Value {
			cat := func(f refFact) Value { return StringValue(f.cat) }
			return refGroupBy(d.facts, byGrp, refAgg{fn: "count", distinct: true, arg: cat},
				refAgg{fn: "sum", distinct: true, arg: factVal}, refAgg{fn: "min", distinct: true, arg: factVal})
		}},
	{query: `SELECT count(*) AS n, sum(val) AS s, avg(val) AS a FROM facts`,
		approx: []int{1, 2},
		want: func(d *refData) [][]Value {
			return refGroupBy(d.facts, func(refFact) []Value { return nil },
				refAgg{fn: "count"}, refAgg{fn: "sum", arg: factVal}, refAgg{fn: "avg", arg: factVal})
		}},
	{query: `SELECT DISTINCT cat, grp FROM facts`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				rows = append(rows, []Value{StringValue(f.cat), IntValue(f.grp)})
			}
			return refDistinct(rows)
		}},
	{query: `SELECT DISTINCT flag FROM facts`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				rows = append(rows, []Value{BoolValue(f.flag)})
			}
			return refDistinct(rows)
		}},
	{query: `SELECT f.id, d.name FROM facts f JOIN dim d ON f.grp = d.k WHERE f.val > 650.0`,
		want: func(d *refData) [][]Value {
			return refJoin(d, false,
				func(f refFact, m refDim) bool { return f.val > 650 && f.grp == m.k },
				func(f refFact, m refDim) []Value { return []Value{IntValue(f.id), StringValue(m.name)} })
		}},
	// f.id < 20000 filters the preserved side's scan; d.name > 'd250' is
	// over the padded side, so it filters the joined rows and drops every
	// padded one (its name reads '').
	{query: `SELECT f.id, d.name FROM facts f LEFT JOIN dim d ON f.grp = d.k WHERE f.id < 20000 AND d.name > 'd250'`,
		want: func(d *refData) (out [][]Value) {
			var left []refFact
			for _, f := range d.facts {
				if f.id < 20000 {
					left = append(left, f)
				}
			}
			for _, row := range refJoin(&refData{facts: left, dims: d.dims}, true,
				func(f refFact, m refDim) bool { return f.grp == m.k },
				func(f refFact, m refDim) []Value { return []Value{IntValue(f.id), StringValue(m.name)} }) {
				if row[1].S > "d250" {
					out = append(out, row)
				}
			}
			return out
		}},
	// The ON residual fails for some key-matched pairs: the hot key keeps
	// one of its two dim rows, keys 100-250 keep none and are padded.
	{query: `SELECT f.id, d.k, d.name FROM facts f LEFT JOIN dim d ON f.grp = d.k AND (d.name > 'd250' OR f.flag)`,
		want: func(d *refData) [][]Value {
			return refJoin(d, true,
				func(f refFact, m refDim) bool { return f.grp == m.k && (m.name > "d250" || f.flag) },
				func(f refFact, m refDim) []Value {
					return []Value{IntValue(f.id), IntValue(m.k), StringValue(m.name)}
				})
		}},
	{query: `SELECT f.id, d.name FROM facts f JOIN dim d ON f.grp = d.k AND d.name < 'd300' AND f.cat <> 'beta'`,
		want: func(d *refData) [][]Value {
			return refJoin(d, false,
				func(f refFact, m refDim) bool { return f.grp == m.k && m.name < "d300" && f.cat != "beta" },
				func(f refFact, m refDim) []Value { return []Value{IntValue(f.id), StringValue(m.name)} })
		}},
	{query: `SELECT count(*) AS n FROM facts f JOIN dim d ON f.grp = d.k AND f.cat = 'alpha'`,
		want: func(d *refData) [][]Value {
			pairs := refJoin(d, false,
				func(f refFact, m refDim) bool { return f.grp == m.k && f.cat == "alpha" },
				func(refFact, refDim) []Value { return nil })
			return [][]Value{{IntValue(int64(len(pairs)))}}
		}},
	{query: `SELECT id, grp, cat, flag FROM facts ORDER BY cat, flag DESC, grp`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				rows = append(rows, []Value{IntValue(f.id), IntValue(f.grp), StringValue(f.cat), BoolValue(f.flag)})
			}
			return refSort(rows, refKey{col: 2}, refKey{col: 3, desc: true}, refKey{col: 1})
		}},
	{query: `SELECT grp, val, id FROM facts ORDER BY val DESC, id`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				rows = append(rows, []Value{IntValue(f.grp), FloatValue(f.val), IntValue(f.id)})
			}
			return refSort(rows, refKey{col: 1, desc: true}, refKey{col: 2})
		}},
	{query: `SELECT cat, count(*) AS n FROM facts GROUP BY cat ORDER BY n DESC, cat`,
		want: func(d *refData) [][]Value {
			rows := refGroupBy(d.facts, func(f refFact) []Value { return []Value{StringValue(f.cat)} },
				refAgg{fn: "count"})
			return refSort(rows, refKey{col: 1, desc: true}, refKey{col: 0})
		}},
	// A key the select list drops sorts below the projection, so its NULLs
	// (flag false) reach the comparator: they come first.
	{query: `SELECT id, val FROM facts WHERE grp < 60 ORDER BY CASE WHEN flag THEN val END, id`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				if f.grp < 60 {
					key := NullValue()
					if f.flag {
						key = FloatValue(f.val)
					}
					rows = append(rows, []Value{IntValue(f.id), FloatValue(f.val), key})
				}
			}
			return dropLastColumn(refSort(rows, refKey{col: 2}, refKey{col: 0}))
		}},
	// Inf − Inf is NaN for every nonzero alpha val: NaN sorts after every
	// number, so first under DESC.
	{query: `SELECT id FROM facts WHERE grp < 60
		ORDER BY CASE WHEN cat = 'alpha' THEN val * 1e308 * 1e308 - val * 1e308 * 1e308 ELSE val END DESC, id`,
		want: func(d *refData) [][]Value {
			var rows [][]Value
			for _, f := range d.facts {
				if f.grp < 60 {
					key := f.val
					if f.cat == "alpha" && f.val != 0 {
						key = math.NaN()
					}
					rows = append(rows, []Value{IntValue(f.id), FloatValue(key)})
				}
			}
			return dropLastColumn(refSort(rows, refKey{col: 1, desc: true}, refKey{col: 0}))
		}},
}

// TestParallelSerialEquivalence pins worker-count invariance: every operator
// returns the same rows in the same order at Parallelism 1 and 8.
func TestParallelSerialEquivalence(t *testing.T) {
	db := parallelTestDB(t, 50_000)
	for _, c := range equivalenceQueries {
		requireSameRowSet(t, c.query, runAt(t, db, c.query, 1), runAt(t, db, c.query, 8))
	}
}

// TestParallelEquivalenceManyWorkerCounts sweeps worker counts across one
// aggregate and one sort so morsel-count edge cases (workers > morsels,
// odd chunk counts in the merge tree) are covered.
func TestParallelEquivalenceManyWorkerCounts(t *testing.T) {
	db := parallelTestDB(t, parallelThreshold+123)
	queries := []string{
		`SELECT grp, count(*) AS n, sum(val) AS s FROM facts GROUP BY grp`,
		`SELECT cat, id FROM facts ORDER BY cat, id DESC`,
	}
	for _, q := range queries {
		serial := runAt(t, db, q, 1)
		for _, w := range []int{2, 3, 5, 16, 64} {
			requireSameRowSet(t, fmt.Sprintf("%s @%d", q, w), serial, runAt(t, db, q, w))
		}
	}
}

// TestParallelConcurrentQueries runs parallel queries from many goroutines
// at once — under -race this pins the morsel queue, the scratch pools, and
// the thread-local aggregation states against each other — and requires
// every result to equal the Parallelism 1 answer.
func TestParallelConcurrentQueries(t *testing.T) {
	db := parallelTestDB(t, 30_000)
	queries := []string{
		`SELECT grp, count(*) AS n, sum(val) AS s FROM facts GROUP BY grp`,
		`SELECT count(*) AS n FROM facts f JOIN dim d ON f.grp = d.k`,
		`SELECT DISTINCT cat, grp FROM facts`,
		`SELECT val, id FROM facts WHERE val > 500.0 ORDER BY val, id`,
	}
	want := make([]*RowSet, len(queries))
	for i, q := range queries {
		want[i] = runAt(t, db, q, 1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			got, err := execAt(db, q, 4)
			if err == nil {
				err = sameRowSet(want[g%len(queries)], got)
			}
			if err != nil {
				errs <- fmt.Sprintf("%s: %v", q, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// ---- an independent reference ----------------------------------------------
//
// Once every operator has a single implementation, comparing worker counts
// compares that code with itself. The reference below computes each
// equivalence query from the table data with boxed Values, Go maps, nested
// loops and sort.SliceStable — no engine kernel, hash table or comparator —
// so a query's outcome depends on the operator it exercises.

// refFact and refDim are the rows of parallelTestDB's tables as Go values.
type refFact struct {
	id, grp int64
	val     float64
	cat     string
	flag    bool
}

type refDim struct {
	k    int64
	name string
}

type refData struct {
	facts []refFact
	dims  []refDim
}

// readRefData reads parallelTestDB's tables back from storage.
func readRefData(t *testing.T, db *DB) *refData {
	t.Helper()
	snapshot := func(name string) []Column {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cols, _, _, _ := tbl.snapshot()
		return cols
	}
	d := &refData{}
	f := snapshot("facts")
	for i := range f[0].Ints {
		d.facts = append(d.facts, refFact{id: f[0].Ints[i], grp: f[1].Ints[i],
			val: f[2].Floats[i], cat: f[3].Strs[i], flag: f[4].Bools[i]})
	}
	m := snapshot("dim")
	for i := range m[0].Ints {
		d.dims = append(d.dims, refDim{k: m[0].Ints[i], name: m[1].Strs[i]})
	}
	return d
}

func byGrp(f refFact) []Value       { return []Value{IntValue(f.grp)} }
func factVal(f refFact) Value       { return FloatValue(f.val) }
func refKeyString(v []Value) string { return fmt.Sprint(v) }

// refAgg is one aggregate of the reference GROUP BY over the non-NULL values
// arg yields; a nil arg is count(*).
type refAgg struct {
	fn       string // count, sum, avg, min, max
	distinct bool
	arg      func(refFact) Value
}

// refGroupBy groups facts by key — a Go map from the key's printed form to a
// group number, plus the keys in first-occurrence order, which is the output
// order — and returns one row per group: the key values, then each aggregate.
func refGroupBy(facts []refFact, key func(refFact) []Value, aggs ...refAgg) [][]Value {
	index := map[string]int{}
	var keys [][]Value
	var members [][]refFact
	for _, f := range facts {
		k := key(f)
		g, ok := index[refKeyString(k)]
		if !ok {
			g = len(keys)
			index[refKeyString(k)] = g
			keys = append(keys, k)
			members = append(members, nil)
		}
		members[g] = append(members[g], f)
	}
	out := make([][]Value, len(keys))
	for g := range keys {
		out[g] = append([]Value(nil), keys[g]...)
		for _, a := range aggs {
			out[g] = append(out[g], a.over(members[g]))
		}
	}
	return out
}

// over computes the aggregate of one group. sum and avg over no values are
// 0, min and max NULL. Non-DISTINCT sums fold in row order; DISTINCT values
// fold in the order the engine states for its merge — ascending by the
// float's bit pattern read as a signed integer — so they compare exactly.
func (a refAgg) over(rows []refFact) Value {
	if a.arg == nil {
		return IntValue(int64(len(rows)))
	}
	var vals []Value
	seen := map[Value]bool{}
	for _, f := range rows {
		v := a.arg(f)
		if v.Null || seen[v] {
			continue
		}
		if a.distinct {
			seen[v] = true
		}
		vals = append(vals, v)
	}
	switch a.fn {
	case "count":
		return IntValue(int64(len(vals)))
	case "sum", "avg":
		if a.distinct {
			sort.Slice(vals, func(i, j int) bool {
				return int64(math.Float64bits(vals[i].F)) < int64(math.Float64bits(vals[j].F))
			})
		}
		sum := 0.0
		for _, v := range vals {
			sum += v.F
		}
		if a.fn == "avg" && len(vals) > 0 {
			sum /= float64(len(vals))
		}
		return FloatValue(sum)
	}
	if len(vals) == 0 {
		return NullValue()
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if c := refCompare(v, best); (a.fn == "min" && c < 0) || (a.fn == "max" && c > 0) {
			best = v
		}
	}
	return best
}

// refDistinct keeps the first occurrence of every row.
func refDistinct(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	var out [][]Value
	for _, r := range rows {
		if k := refKeyString(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// refJoin is a nested-loop join of d.facts (left) with d.dims (right): every
// pair on matches, in left-then-right row order. A LEFT join then appends
// each left row no pair matched, in row order, with the right columns at
// their zero values — how the engine stores NULL. on is the whole ON
// condition, keys and residual alike.
func refJoin(d *refData, leftJoin bool, on func(refFact, refDim) bool, emit func(refFact, refDim) []Value) [][]Value {
	var out, unmatched [][]Value
	for _, f := range d.facts {
		matched := false
		for _, m := range d.dims {
			if on(f, m) {
				matched = true
				out = append(out, emit(f, m))
			}
		}
		if leftJoin && !matched {
			unmatched = append(unmatched, emit(f, refDim{}))
		}
	}
	return append(out, unmatched...)
}

// refKey is one ORDER BY key: a column of the rows being sorted.
type refKey struct {
	col  int
	desc bool
}

// refSort sorts rows stably by keys under refCompare; DESC reverses a key's
// whole order.
func refSort(rows [][]Value, keys ...refKey) [][]Value {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := refCompare(rows[i][k.col], rows[j][k.col])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return rows
}

// refCompare is ORDER BY's order on two values of one column: NULL first;
// numbers by value with NaN after every number (and equal to NaN); strings
// bytewise; false before true.
func refCompare(a, b Value) int {
	if a.Null || b.Null {
		return refRank(!a.Null) - refRank(!b.Null)
	}
	switch a.Kind {
	case TypeString:
		return strings.Compare(a.S, b.S)
	case TypeBool:
		return refRank(a.B) - refRank(b.B)
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	if x != x || y != y {
		return refRank(x != x) - refRank(y != y)
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func refRank(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dropLastColumn strips the sort key a query orders by but does not select.
func dropLastColumn(rows [][]Value) [][]Value {
	for i, r := range rows {
		rows[i] = r[:len(r)-1]
	}
	return rows
}

// requireMatchesReference compares an engine result with the reference
// rows: exactly — float bits included — except the approx columns, which
// compare under a 1e-9 relative tolerance. The engine stores a NULL as its
// column type's zero value, so a reference NULL compares as that.
func requireMatchesReference(t *testing.T, label string, want [][]Value, got *RowSet, approx []int) {
	t.Helper()
	if got.N != len(want) {
		t.Fatalf("%s: %d rows, reference has %d", label, got.N, len(want))
	}
	for r, row := range want {
		if len(row) != len(got.Cols) {
			t.Fatalf("%s: %d columns, reference has %d", label, len(got.Cols), len(row))
		}
		for c, w := range row {
			g := got.Cols[c].Value(r)
			if w.Null {
				w = Value{Kind: got.Cols[c].Type}
			}
			same := g == w
			if w.Kind == TypeFloat && g.Kind == TypeFloat {
				same = math.Float64bits(g.F) == math.Float64bits(w.F) || (g.F != g.F && w.F != w.F)
				if slices.Contains(approx, c) {
					same = math.Abs(g.F-w.F) <= 1e-9*math.Max(1, math.Abs(w.F))
				}
			}
			if !same {
				t.Fatalf("%s: row %d column %d = %v, reference %v", label, r, c, g, w)
			}
		}
	}
}

// TestOperatorsMatchReference checks filter, GROUP BY with every aggregate
// and its DISTINCT form, DISTINCT, inner, LEFT and residual equi-joins, and
// stable ORDER BY (ties, DESC, NULL and NaN keys) against the reference at
// Parallelism 1, 2 and 8.
func TestOperatorsMatchReference(t *testing.T) {
	db := parallelTestDB(t, 50_000)
	d := readRefData(t, db)
	for _, c := range equivalenceQueries {
		want := c.want(d)
		for _, w := range []int{1, 2, 8} {
			requireMatchesReference(t, fmt.Sprintf("%s @%d", c.query, w), want, runAt(t, db, c.query, w), c.approx)
		}
	}
}

// TestDistinctAggregatesOneAnswer: DISTINCT aggregates fold each group's
// merged value set in sorted key order, so they are bit-identical at every
// worker count — including sum and avg over floats, whose rounding depends on
// the fold order.
func TestDistinctAggregatesOneAnswer(t *testing.T) {
	db := parallelTestDB(t, 50_000)
	const q = `SELECT grp, sum(DISTINCT val) AS s, avg(DISTINCT val) AS a, min(DISTINCT val) AS m
		FROM facts GROUP BY grp`
	want := runAt(t, db, q, 1)
	for _, w := range []int{2, 3, 8} {
		requireIdenticalRowSets(t, fmt.Sprintf("%s @%d", q, w), want, runAt(t, db, q, w))
	}
}

// TestReportParallelismDegree pins the EXPLAIN surface: a report stamped
// with ExecOptions.MaxWorkers (as flock-sql's \explain stamps its own
// fresh plan) carries the resolved morsel worker cap.
func TestReportParallelismDegree(t *testing.T) {
	db := parallelTestDB(t, parallelThreshold)
	stmt, err := sql.ParseOne(`SELECT count(*) AS n FROM facts`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.SelectStmt)
	explain := func(o ExecOptions) *opt.Report {
		plan, err := db.PlanSelect(sel, o.Level)
		if err != nil {
			t.Fatal(err)
		}
		plan.Report.Parallelism = o.MaxWorkers()
		return &plan.Report
	}
	rep := explain(ExecOptions{Level: opt.LevelParallel, Parallelism: 6})
	if rep.Parallelism != 6 {
		t.Fatalf("report parallelism = %d, want 6", rep.Parallelism)
	}
	if !strings.Contains(rep.String(), "workers=6") {
		t.Fatalf("report string %q missing workers=6", rep.String())
	}
	if rep = explain(ExecOptions{Level: opt.LevelVectorized}); rep.Parallelism != 1 {
		t.Fatalf("sub-parallel level reports %d workers, want 1", rep.Parallelism)
	}
}

// TestParallelAggregateEmptyGroups pins the degenerate shapes: empty input,
// global aggregates, and a group count near the worker count.
func TestParallelAggregateEmptyGroups(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTableFromColumns("tiny",
		[]string{"g", "v"},
		[]Column{IntColumn(nil), FloatColumn(nil)}); err != nil {
		t.Fatal(err)
	}
	res, err := execText(context.Background(), db, `SELECT count(*) AS n, sum(v) AS s FROM tiny`,
		ExecOptions{Level: opt.LevelParallel, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != 0 {
		t.Fatalf("count over empty table = %d", got)
	}
}

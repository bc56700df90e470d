package engine

// Zone pruning is pinned by comparing and by counting, never by clock. A
// scan of the current version must return what the same plan returns with
// its scan's Version set to the current version — time travel never
// prunes, so the reference needs no switch — and ExecCounters.RowsScanned
// says how much of the table a scan read.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

// zoneOrders are the key layouts of the differential: a clustered key
// either way round, an unclustered one, and one value everywhere.
var zoneOrders = []string{"asc", "desc", "random", "constant"}

// zoneTableCols builds n rows of (k int, f float, x int, s text) whose keys
// k and f follow order (x is 3 in the first morsel and 4 after it), overlaid with the values zone arithmetic can get
// wrong: MinInt64 and MaxInt64, 2^53+1 (no float64 holds it), NaN, ±Inf,
// -0.0 and a duplicate across the first morsel boundary. The constant
// layout's first morsel of f holds only NaN.
func zoneTableCols(order string, n int, seed uint64) []Column {
	r := ml.NewRand(seed)
	k := make([]int64, n)
	f := make([]float64, n)
	x := make([]int64, n)
	s := make([]string, n)
	for i := range k {
		switch order {
		case "asc":
			k[i], f[i] = int64(3*i-5000), float64(i)/2-1000
		case "desc":
			k[i], f[i] = int64(3*(n-i)-5000), float64(n-i)/2-1000
		case "random":
			k[i], f[i] = int64(r.Intn(3*n)-5000), r.Float64()*float64(n)/2-1000
		case "constant":
			k[i], f[i] = 7, 7.5
		}
		x[i] = 3 // 1 / (x - 3) errors in the first morsel only
		if i >= morselRows {
			x[i] = 4
		}
		s[i] = fmt.Sprintf("s%d", i%5)
	}
	k[1], k[n-2], k[4100] = math.MinInt64, math.MaxInt64, 1<<53+1
	k[morselRows] = k[morselRows-1]
	f[5], f[10], f[4097], f[2*morselRows-3] = math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)
	f[4099] = float64(1<<53 + 1)
	f[morselRows] = f[morselRows-1]
	if order == "constant" {
		for i := 0; i < morselRows; i++ {
			f[i] = math.NaN()
		}
	}
	return []Column{IntColumn(k), FloatColumn(f), IntColumn(x), StringColumn(s)}
}

// zoneTables creates one table per order and row count around a multiple
// of the morsel size, and returns their names.
func zoneTables(t *testing.T, db *DB) []string {
	t.Helper()
	var names []string
	for oi, order := range zoneOrders {
		for _, n := range []int{2*morselRows - 1, 2 * morselRows, 2*morselRows + 1} {
			name := fmt.Sprintf("z_%s_%d", order, n)
			if _, err := db.CreateTableFromColumns(name, []string{"k", "f", "x", "s"},
				zoneTableCols(order, n, uint64(oi+1))); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	return names
}

// sqlInt and sqlFloat spell a constant as SQL (a float always with a '.'
// so it parses as a float literal).
func sqlInt(v int64) string { return strconv.FormatInt(v, 10) }

func sqlFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if math.Signbit(v) && v == 0 {
		return "-0.0"
	}
	for _, c := range s {
		if c == '.' {
			return s
		}
	}
	return s + ".0"
}

// zoneQueries is the differential's predicate matrix over one table: every
// comparison with the constant on either side and BETWEEN (lo > hi too),
// for constants that include the table's own values at morsel edges, int
// against float constants and the reverse, plus conjuncts that cannot
// prune, conjuncts that may raise a row error, and LIMITs. step > 1 keeps
// every step-th query.
func zoneQueries(t *testing.T, db *DB, table string, step int) []string {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	cols, _, _, n := tab.snapshot()
	rows := []int{0, 2, morselRows - 1, morselRows, n / 2, n - 1}
	kc := []string{"0", "7", "2.5", "-0.0", "9007199254740993", "9007199254740992.0", "-9223372036854775807", "9223372036854775807"}
	fc := []string{"0", "-0.0", "7.5", "3", "-1000", "9007199254740993", "1e300", "-1e300"}
	for _, r := range rows {
		if v := cols[0].Ints[r]; v != math.MinInt64 {
			kc = append(kc, sqlInt(v))
		}
		if v := cols[1].Floats[r]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			fc = append(fc, sqlFloat(v))
		}
	}
	sel := "SELECT k, f FROM " + table + " WHERE "
	var qs []string
	for _, cc := range []struct {
		col    string
		consts []string
	}{{"k", kc}, {"f", fc}} {
		for i, c := range cc.consts {
			for _, op := range []string{"=", "<", "<=", ">", ">="} {
				qs = append(qs, sel+cc.col+" "+op+" "+c, sel+c+" "+op+" "+cc.col)
			}
			next := cc.consts[(i+1)%len(cc.consts)]
			qs = append(qs, sel+cc.col+" BETWEEN "+c+" AND "+next, sel+cc.col+" BETWEEN "+next+" AND "+c)
		}
		c := cc.consts[len(cc.consts)-3]
		qs = append(qs,
			sel+cc.col+" >= "+c+" AND s <> 'zz'",
			sel+cc.col+" = "+c+" OR x < 0",
			sel+cc.col+" >= "+c+" AND x - 3 = 0",
			sel+"1 / (x - 3) > 0 AND "+cc.col+" = "+c,
			sel+cc.col+" = "+c+" AND 1 / (x - 3) > 0",
			sel+cc.col+" = -5 AND s > 1",
			sel+cc.col+" NOT BETWEEN "+c+" AND "+c,
			sel+cc.col+" >= "+c+" LIMIT 3000",
		)
	}
	var kept []string
	for i := 0; i < len(qs); i += step {
		kept = append(kept, qs[i])
	}
	return kept
}

// zoneDiff runs query as planned and with every scan pinned to its table's
// current version, fails unless both return the same rows (floats by bit
// pattern) or the same error, and returns the rows each read. A run that
// read every row took the reference's path, so the reference is skipped.
func zoneDiff(t *testing.T, db *DB, query string) (pruned, full int64) {
	t.Helper()
	plan := mustPlan(t, db, query, opt.LevelFull)
	ref := mustPlan(t, db, query, opt.LevelFull)
	var rows int64
	walkScans(ref.Root, func(sc *opt.Scan) {
		tab, err := db.Table(sc.Table)
		if err != nil {
			t.Fatal(err)
		}
		sc.Version = tab.Version()
		rows += int64(tab.NumRows())
	})
	var pc, rc ExecCounters
	ctx := context.Background()
	got, gerr := db.ExecPlanContext(ctx, plan, ExecOptions{Level: opt.LevelFull, Counters: &pc})
	if gerr == nil && pc.RowsScanned.Load() == rows {
		return rows, rows
	}
	want, werr := db.ExecPlanContext(ctx, ref, ExecOptions{Level: opt.LevelFull, Counters: &rc})
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: error %v, want %v", query, gerr, werr)
	}
	if werr == nil {
		requireIdenticalRowSets(t, query, want, got)
	}
	return pc.RowsScanned.Load(), rc.RowsScanned.Load()
}

// pullEach drains query through a cursor of the given worker cap, one
// window per Next, with a cancelled pull before every live one (it must
// consume nothing), fails unless the rows are the reference's, and
// returns the rows the scan read.
func pullEach(t *testing.T, db *DB, query string, workers int) int64 {
	t.Helper()
	ref := mustPlan(t, db, query, opt.LevelFull)
	walkScans(ref.Root, func(sc *opt.Scan) {
		tab, _ := db.Table(sc.Table)
		sc.Version = tab.Version()
	})
	want, err := db.ExecPlanContext(context.Background(), ref, ExecOptions{Level: opt.LevelFull})
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var c ExecCounters
	cur, err := db.OpenPlanCursor(context.Background(), mustPlan(t, db, query, opt.LevelFull),
		ExecOptions{Level: opt.LevelFull, Parallelism: workers, Counters: &c})
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	defer cur.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var batches []*Batch
	total := 0
	for {
		if _, err := cur.Next(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled pull returned %v", query, err)
		}
		b, err := cur.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		batches = append(batches, b)
		total += b.N
	}
	got := &RowSet{Schema: cur.Schema(), N: total, Cols: make([]Column, len(cur.Schema()))}
	for i, m := range cur.Schema() {
		got.Cols[i] = concatBatches(m.Type, batches, i, total)
	}
	requireIdenticalRowSets(t, fmt.Sprintf("%s (windows of %d)", query, workers), want, got)
	return c.RowsScanned.Load()
}

// TestZonePruneCursorWindows pulls a scan whose kept morsels form several
// runs (a sawtooth key: morsels 0, 2 and 4 hold 0..4095, morsels 1 and 3
// hold 100000 and up) one window at a time: at every window size the rows
// are the reference's and only the kept morsels and the tail are read.
func TestZonePruneCursorWindows(t *testing.T) {
	const n = 5*morselRows + 100
	k := make([]int64, n)
	for i := range k {
		k[i] = int64(i % morselRows)
		if i/morselRows%2 == 1 {
			k[i] += 100000
		}
	}
	db := NewDB()
	if _, err := db.CreateTableFromColumns("saw", []string{"k"}, []Column{IntColumn(k)}); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		if got := pullEach(t, db, "SELECT k FROM saw WHERE k < 5000", workers); got != 3*morselRows+100 {
			t.Errorf("windows of %d: scanned %d rows, want %d", workers, got, 3*morselRows+100)
		}
	}
}

// requireFreshZones checks every table's zone map against one computed
// afresh from its current columns, and the statistics folded from it
// against a rescan.
func requireFreshZones(t *testing.T, db *DB, tables []string) {
	t.Helper()
	for _, name := range tables {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cols, zones, schema, _ := tab.snapshot()
		want := extendZones(cols, zoneMap{})
		for c := range want.num {
			if len(zones.num[c]) != len(want.num[c]) {
				t.Fatalf("%s column %d: %d zones, want %d", name, c, len(zones.num[c]), len(want.num[c]))
			}
			for m := range want.num[c] {
				if zones.num[c][m] != want.num[c][m] {
					t.Fatalf("%s column %d morsel %d: zone %+v, want %+v", name, c, m, zones.num[c][m], want.num[c][m])
				}
			}
		}
		if zones.rows != want.rows || !reflect.DeepEqual(zones.cats, want.cats) {
			t.Fatalf("%s: %d rows and categories %v, want %d and %v", name, zones.rows, zones.cats, want.rows, want.cats)
		}
		if got, want := snapshotStats(schema, cols, zones), rescanStats(schema, cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: folded stats %v, rescan %v", name, got, want)
		}
	}
}

// checkZoneTables runs the differential over every table and fails if no
// query read fewer rows than its reference (the comparison would be
// vacuous).
func checkZoneTables(t *testing.T, db *DB, tables []string, step int) {
	t.Helper()
	requireFreshZones(t, db, tables)
	var pruned, full int64
	for _, name := range tables {
		for _, q := range zoneQueries(t, db, name, step) {
			p, f := zoneDiff(t, db, q)
			pruned += p
			full += f
		}
	}
	if pruned >= full {
		t.Fatalf("pruned scans read %d rows, unpruned %d: nothing was pruned", pruned, full)
	}
	pullEach(t, db, "SELECT k, f FROM "+tables[0]+" WHERE k >= -5000 AND k <= 9000", 1)
}

// syncReplica applies every leader frame past the replica's applied LSN.
func syncReplica(t *testing.T, leader, replica *DB) {
	t.Helper()
	_, payloads := collectSince(t, leader, replica.AppliedLSN(), 1<<30)
	for _, p := range payloads {
		if _, err := replica.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZonePruneMatchesUnprunedScan is the differential for zone pruning,
// over bulk-loaded tables and again after each way zones are maintained:
// single-row appends that complete a morsel, INSERT … SELECT, an UPDATE of
// the keys, a DELETE, a reopen from snapshot + WAL, and on a replica that
// applied the leader's frames.
func TestZonePruneMatchesUnprunedScan(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	replica, _, err := OpenDirDB(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.CloseDurability()
	replica.SetReplicaMode("test-leader")

	all := zoneTables(t, db)
	checkZoneTables(t, db, all, 1)

	// The maintenance stages write the 4096·k−1-row table of each layout
	// (its first single-row append completes a morsel); the reopened
	// database and the replica are checked on every table.
	var tables []string
	for i := 0; i < len(all); i += 3 {
		tables = append(tables, all[i])
	}
	each := func(format string) {
		t.Helper()
		for _, name := range tables {
			mustExec(t, db, fmt.Sprintf(format, name))
		}
	}
	// Single-row appends: the first completes the last morsel, with a NaN
	// in it.
	each("INSERT INTO %s VALUES (-123456, 1.0 %% 0.0, 3, 'new')")
	each("INSERT INTO %s VALUES (9223372036854775807, -1e300, 3, 'new')")
	checkZoneTables(t, db, tables, 3)
	each("INSERT INTO %s SELECT k + 1, f * 2.0, x, s FROM %[1]s LIMIT 5000")
	checkZoneTables(t, db, tables, 3)
	syncReplica(t, db, replica)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint, so the reopen replays them from the WAL.
	each("UPDATE %s SET k = k * 2, f = f - 1.0 WHERE k > 100 AND k < 20000")
	checkZoneTables(t, db, tables, 3)
	each("DELETE FROM %s WHERE k BETWEEN 1000 AND 3000")
	checkZoneTables(t, db, tables, 3)
	each("INSERT INTO %s VALUES (42, 42.5, 3, 'tail')")
	each("INSERT INTO %s SELECT k - 1, f, x, s FROM %[1]s LIMIT 4500")
	checkZoneTables(t, db, tables, 3)
	syncReplica(t, db, replica)

	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	reopened, info, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.CloseDurability()
	if !info.SnapshotLoaded {
		t.Fatal("reopen did not load the checkpoint snapshot")
	}
	checkZoneTables(t, reopened, all, 6)
	checkZoneTables(t, replica, all, 6)
}

// TestZonePruneRowsScanned counts what a point lookup on a clustered
// 200k-row table reads: at most two morsels plus the partial last one,
// where an unpruned scan reads all 200k rows.
func TestZonePruneRowsScanned(t *testing.T) {
	const n = 200_000
	ids := make([]int64, n)
	vals := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
		vals[i] = float64(i) / 3
	}
	db := NewDB()
	if _, err := db.CreateTableFromColumns("clustered", []string{"id", "v"},
		[]Column{IntColumn(ids), FloatColumn(vals)}); err != nil {
		t.Fatal(err)
	}
	limit := int64(2*morselRows + n%morselRows)
	for _, q := range []struct {
		sql  string
		rows int
	}{
		{"SELECT id, v FROM clustered WHERE id = 1", 1},
		{"SELECT id, v FROM clustered WHERE id = 4096", 1},
		{"SELECT id, v FROM clustered WHERE 4097 = id", 1},
		{"SELECT id, v FROM clustered WHERE id = 100000", 1},
		{"SELECT id, v FROM clustered WHERE id = 200000", 1},
		{"SELECT id, v FROM clustered WHERE id BETWEEN 150001 AND 152500", 2500},
		{"SELECT count(*) FROM clustered WHERE id >= 70000 AND id < 72500", 1},
	} {
		var c ExecCounters
		res, err := execText(context.Background(), db, q.sql, ExecOptions{Level: opt.LevelFull, Counters: &c})
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if res.N != q.rows {
			t.Fatalf("%s: %d rows, want %d", q.sql, res.N, q.rows)
		}
		if got := c.RowsScanned.Load(); got > limit {
			t.Errorf("%s: scanned %d rows, want at most %d (two morsels plus the tail)", q.sql, got, limit)
		}
	}
}

// TestZonePruneKeepsErrors: a filter that may raise a row error is never
// pruned, so a statement that errors over the whole table still errors
// when its zones would rule out the morsels that raise it. The tables have
// no partial last morsel, so nothing else is read.
func TestZonePruneKeepsErrors(t *testing.T) {
	db := NewDB()
	const n = 2 * morselRows
	buildScoringSetup(t, db, n)
	x := make([]int64, n)
	ids := make([]int64, n)
	s := make([]string, n)
	for i := range x {
		ids[i], x[i], s[i] = int64(i), 3, "a"
		if i >= morselRows {
			x[i] = 4
		}
	}
	if _, err := db.CreateTableFromColumns("t", []string{"id", "x", "s"},
		[]Column{IntColumn(ids), IntColumn(x), StringColumn(s)}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql, err string
	}{
		{"SELECT id FROM t WHERE 1 / (x - x) > 0 AND id = -5", "division by zero"},
		// Only the first morsel divides by zero, and id = 5000 is in the
		// second.
		{"SELECT id FROM t WHERE 1 / (x - 3) > 0 AND id = 5000", "division by zero"},
		{"SELECT id FROM t WHERE id = -5 AND s > 1", "cannot compare"},
		{"SELECT id FROM t WHERE id = -5 AND abs(s) > 0", "abs of text"},
		// AND evaluates its right side only where the left holds: no row
		// does, so there is no error to keep.
		{"SELECT id FROM t WHERE id = -5 AND 1 / (x - x) > 0", ""},
		// Every morsel is ruled out; PREDICT still sees a batch and
		// rejects its text argument.
		{"SELECT PREDICT(churn, region, income, region) FROM customers WHERE id = -5", "model wants numeric"},
	} {
		zoneDiff(t, db, q.sql)
		_, err := db.Exec(q.sql)
		if q.err == "" && err != nil || q.err != "" && (err == nil || !strings.Contains(err.Error(), q.err)) {
			t.Errorf("%s: error %v, want %q", q.sql, err, q.err)
		}
	}
}

// TestZonesUnderConcurrentWrites runs pruned range scans while a writer
// appends batches across morsel boundaries and rewrites the key with
// UPDATEs. Every snapshot holds ids 0..n-1 in order with one v, so each
// reader's answer must be a gap-free run of ids, all with the same v,
// reaching at least as far as the table did when the read began.
func TestZonesUnderConcurrentWrites(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE w (id int, v int)")
	var rows atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		v := int64(0)
		for round := 0; round < 40; round++ {
			batch := make([][]Value, []int{1, 700, 3000, 4096}[round%4])
			n := rows.Load()
			for i := range batch {
				batch[i] = []Value{IntValue(n + int64(i)), IntValue(v)}
			}
			if err := db.AppendRows("w", batch); err != nil {
				t.Error(err)
				return
			}
			rows.Add(int64(len(batch)))
			if round%5 == 4 {
				if _, err := db.Exec("UPDATE w SET v = v + 1, id = id + 0"); err != nil {
					t.Error(err)
					return
				}
				v++
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rnd := ml.NewRand(seed)
			for !done.Load() {
				before := rows.Load()
				if before == 0 {
					continue
				}
				a := int64(rnd.Intn(int(before)))
				b := a + int64(rnd.Intn(3*morselRows))
				res, err := db.Exec(fmt.Sprintf("SELECT id, v FROM w WHERE id BETWEEN %d AND %d", a, b))
				if err != nil {
					t.Error(err)
					return
				}
				ids, vs := res.Cols[0].Ints, res.Cols[1].Ints
				if int64(len(ids)) < min(b, before-1)-a+1 {
					t.Errorf("ids %d..%d: %d rows, want at least %d", a, b, len(ids), min(b, before-1)-a+1)
					return
				}
				for i := range ids {
					if ids[i] != a+int64(i) || vs[i] != vs[0] {
						t.Errorf("ids %d..%d: row %d is (%d, %d) after v %d", a, b, i, ids[i], vs[i], vs[0])
						return
					}
				}
			}
		}(uint64(r + 1))
	}
	wg.Wait()
}

// FuzzZonePrune: for a random numeric column of three full morsels and a
// partial one, and a random `column op constant` or BETWEEN conjunct,
// every morsel the zones leave out holds no row the compiled predicate
// accepts.
func FuzzZonePrune(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false, int64(5000), 2.5, false)
	f.Add(uint64(2), uint8(1), uint8(1), true, int64(-3), -0.0, true)
	f.Add(uint64(3), uint8(9), uint8(2), false, int64(9007199254740993), 9007199254740992.0, true)
	f.Add(uint64(4), uint8(13), uint8(3), true, int64(math.MaxInt64), math.Inf(1), false)
	f.Add(uint64(5), uint8(7), uint8(4), false, int64(math.MinInt64), math.NaN(), true)
	f.Add(uint64(6), uint8(11), uint8(5), false, int64(40), -40.0, false)
	f.Add(uint64(7), uint8(15), uint8(13), true, int64(0), 0.0, true)
	f.Fuzz(func(t *testing.T, seed uint64, layout, op uint8, swap bool, ic int64, fc float64, floatConst bool) {
		r := ml.NewRand(seed)
		n := 3*morselRows + int(seed%97)
		isFloat := layout&1 == 1
		col := Column{Type: TypeInt, Ints: make([]int64, n)}
		if isFloat {
			col = Column{Type: TypeFloat, Floats: make([]float64, n)}
		}
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), fc, float64(ic)}
		for i := 0; i < n; i++ {
			var v int64
			switch layout >> 1 & 3 {
			case 0:
				v = int64(i) - 6000
			case 1:
				v = int64(n-i) - 6000
			case 2:
				v = int64(r.Intn(12000)) - 6000
			default:
				v = ic
			}
			if isFloat {
				col.Floats[i] = float64(v) / 4
				if layout&8 != 0 && r.Intn(500) == 0 {
					col.Floats[i] = specials[r.Intn(len(specials))]
				}
			} else {
				col.Ints[i] = v
				if layout&8 != 0 && r.Intn(500) == 0 {
					col.Ints[i] = []int64{math.MinInt64, math.MaxInt64, ic, 1<<53 + 1}[r.Intn(4)]
				}
			}
		}
		lit := func(neg bool) sql.Expr {
			e := sql.Expr(&sql.Lit{Kind: sql.LitInt, I: ic})
			if floatConst {
				e = &sql.Lit{Kind: sql.LitFloat, F: fc}
			}
			if neg {
				e = &sql.Unary{Op: "-", X: e}
			}
			return e
		}
		ref := &sql.ColRef{Name: "c"}
		var pred sql.Expr
		if ops := []string{"=", "<", "<=", ">", ">="}; int(op%6) < len(ops) {
			b := &sql.Binary{Op: ops[op%6], L: ref, R: lit(op&8 != 0)}
			if swap {
				b.L, b.R = b.R, b.L
			}
			pred = b
		} else {
			other := sql.Expr(&sql.Lit{Kind: sql.LitFloat, F: fc})
			if !floatConst {
				other = &sql.Lit{Kind: sql.LitInt, I: ic / 2}
			}
			lo, hi := lit(op&8 != 0), other
			if swap {
				lo, hi = hi, lo
			}
			pred = &sql.Between{X: ref, Lo: lo, Hi: hi}
		}

		schema := Schema{{Name: "c", Type: col.Type}}
		cols := []Column{col}
		runs := keptRuns(zoneTests([]sql.Expr{pred}, schema), extendZones(cols, zoneMap{}).num, n)
		fn, err := compileVec(pred, schema, &compileEnv{ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		v, err := fn(&RowSet{Schema: schema, Cols: cols, N: n})
		if err != nil {
			t.Fatal(err)
		}
		accepts := v.truthyMask()
		kept := make([]bool, morselCount(n))
		for _, run := range runs {
			for m := run.lo; m < run.hi; m++ {
				kept[m] = true
			}
		}
		for m, k := range kept {
			if k {
				continue
			}
			lo, hi := morselBounds(m, n)
			for i := lo; i < hi; i++ {
				if accepts[i] {
					t.Fatalf("%s: morsel %d left out, but row %d (%v) matches", sql.FormatExpr(pred), m, i, col.Value(i))
				}
			}
		}
	})
}

// rescanStats is what a full rescan of a version's columns says about them,
// the reference for snapshotStats: an int or float column's [min, max], none
// when it is empty or holds a NaN, and a text column's distinct values, none
// past maxTrackedCategories.
func rescanStats(schema Schema, cols []Column) onnx.Stats {
	stats := onnx.Stats{}
	for i, m := range schema {
		c := &cols[i]
		switch m.Type {
		case TypeInt:
			if len(c.Ints) > 0 {
				stats[m.Name] = onnx.ColumnStats{HasRange: true,
					Min: float64(slices.Min(c.Ints)), Max: float64(slices.Max(c.Ints))}
			}
		case TypeFloat:
			if len(c.Floats) > 0 && !slices.ContainsFunc(c.Floats, math.IsNaN) {
				stats[m.Name] = onnx.ColumnStats{HasRange: true, Min: slices.Min(c.Floats), Max: slices.Max(c.Floats)}
			}
		case TypeString:
			set := map[string]bool{}
			for _, v := range c.Strs {
				set[v] = true
			}
			if len(set) <= maxTrackedCategories {
				stats[m.Name] = onnx.ColumnStats{Categories: set}
			}
		}
	}
	return stats
}

// foldCheck is one table version's folded statistics and the rescan of
// its columns they must equal.
type foldCheck struct {
	name        string
	got, want   onnx.Stats
	schema      Schema
	cols        []Column
	describedAs string
}

// requireFoldedStats checks each table's folded statistics against a rescan
// of its current version, and returns what it checked so a later call of
// recheckFolds can prove a write did not change an older version's
// statistics (category sets are shared between versions, never written).
func requireFoldedStats(t *testing.T, db *DB, stage string, tables ...string) []foldCheck {
	t.Helper()
	var checks []foldCheck
	for _, name := range tables {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cols, zones, schema, _ := tab.snapshot()
		c := foldCheck{name: name, got: snapshotStats(schema, cols, zones), want: rescanStats(schema, cols),
			schema: schema, cols: cols, describedAs: stage}
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s, table %s: folded stats %v, rescan %v", stage, name, c.got, c.want)
		}
		checks = append(checks, c)
	}
	return checks
}

// recheckFolds fails if a checked version's statistics changed since.
func recheckFolds(t *testing.T, checks []foldCheck) {
	t.Helper()
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, rescanStats(c.schema, c.cols)) {
			t.Fatalf("table %s: a later write changed the statistics folded %s to %v", c.name, c.describedAs, c.got)
		}
	}
}

// foldTableCols builds n random rows of (k int, f float, s text, w text): s
// draws from cats values, w is distinct per row (past the category cap
// from row 257 on), and f holds a NaN at row nanAt when that is in range.
func foldTableCols(r *rand.Rand, n, cats, nanAt int) []Column {
	k, f := make([]int64, n), make([]float64, n)
	s, w := make([]string, n), make([]string, n)
	for i := range k {
		k[i] = r.Int64N(1<<40) - 1<<39
		f[i] = r.NormFloat64() * 1e3
		s[i] = fmt.Sprintf("c%d", r.IntN(cats))
		w[i] = fmt.Sprintf("w%d", i)
	}
	if nanAt < n {
		f[nanAt] = math.NaN()
	}
	return []Column{IntColumn(k), FloatColumn(f), StringColumn(s), StringColumn(w)}
}

// TestFoldedStatsEqualRescan is the property behind compressing against a
// snapshot: for random tables, the statistics folded from a version's zone
// map (snapshotStats) equal a full rescan of its rows exactly, after every
// way the map is maintained — bulk load, single-row and batch appends (one
// completing a morsel), an UPDATE widening a range, a DELETE removing the
// last row of a category, WAL replay and LoadSnapshot — and no write
// changes an older version's statistics.
func TestFoldedStatsEqualRescan(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(37, 1))
	tables := []struct {
		n, cats, nanAt int
	}{
		{0, 1, 0},                   // empty
		{2*morselRows + 100, 5, 17}, // NaN in a full morsel
		{2*morselRows + 100, 5, 2*morselRows + 40}, // NaN in the tail
		{morselRows - 1, 300, -1},                  // > 256 categories, tail only
		{3 * morselRows, 256, -1},                  // exactly the cap, no tail
		{2*morselRows - 1, 3, -1},                  // one append completes a morsel
	}
	var names []string
	for i, tc := range tables {
		name := fmt.Sprintf("f%d", i)
		nanAt := tc.nanAt
		if nanAt < 0 {
			nanAt = tc.n
		}
		if _, err := db.CreateTableFromColumns(name, []string{"k", "f", "s", "w"},
			foldTableCols(r, tc.n, tc.cats, nanAt)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("rnd%d", i)
		n := r.IntN(3*morselRows + 50)
		if _, err := db.CreateTableFromColumns(name, []string{"k", "f", "s", "w"},
			foldTableCols(r, n, 1+r.IntN(300), r.IntN(3*n+1))); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for _, name := range names {
		tab, _ := db.Table(name)
		tab.SetRetention(0) // history is not what is checked; it only slows the snapshots
	}
	checks := requireFoldedStats(t, db, "after bulk load", names...)

	each := func(stage, format string) {
		t.Helper()
		for _, name := range names {
			mustExec(t, db, fmt.Sprintf(format, name))
		}
		recheckFolds(t, checks)
		checks = requireFoldedStats(t, db, stage, names...)
	}
	each("after a one-row append", "INSERT INTO %s VALUES (-1099511627777, 5e5, 'new', 'new')")
	each("after a NaN appended", "INSERT INTO %s VALUES (3, 1.0 %% 0.0, 'c1', 'x')")
	each("after a batch append", "INSERT INTO %s SELECT k + 1, f * 3.0, s, w FROM %[1]s LIMIT 5000")
	for _, name := range names {
		rows := make([][]Value, r.IntN(300))
		for i := range rows {
			rows[i] = []Value{IntValue(r.Int64N(100)), FloatValue(r.Float64()), StringValue(fmt.Sprintf("c%d", r.IntN(400))),
				StringValue("y")}
		}
		if err := db.AppendRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	recheckFolds(t, checks)
	checks = requireFoldedStats(t, db, "after random appends", names...)
	each("after an UPDATE widening a range", "UPDATE %s SET k = k * 4, f = f * 10.0 WHERE s = 'c1'")
	each("after a DELETE of a category's last row", "DELETE FROM %s WHERE s = 'new'")
	each("after a DELETE of NaN", "DELETE FROM %s WHERE NOT (f = f)")

	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenDirDB(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.CloseDurability()
	requireFoldedStats(t, reopened, "after WAL replay", names...)
	var snap bytes.Buffer
	if err := reopened.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := NewDB()
	if err := loaded.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	requireFoldedStats(t, loaded, "after LoadSnapshot", names...)
}

package engine

// Cursor-path pinning: LIMIT pushdown short-circuits scans on the serial
// and morsel paths, cursor drains match materialized execution exactly at
// 1 and 8 workers, partial consumption (close mid-stream, cancellation
// between Next calls) releases cleanly, no cursor leaks, and a streamable
// drain holds O(batch) — not O(result) — memory.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/opt"
	"repro/internal/sql"
)

// openCursorOn parses a SELECT and opens a cursor at the given options.
func openCursorOn(t testing.TB, db *DB, query string, o ExecOptions) Cursor {
	t.Helper()
	stmt, err := sql.ParseOne(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		t.Fatalf("%s: not a SELECT", query)
	}
	plan, err := db.PlanSelect(sel, o.Level)
	if err != nil {
		t.Fatalf("%s: plan: %v", query, err)
	}
	cur, err := db.OpenPlanCursor(context.Background(), plan, o)
	if err != nil {
		t.Fatalf("%s: open cursor: %v", query, err)
	}
	return cur
}

// drainBatches pulls a cursor dry, returning the concatenated result and
// the number of non-empty batches seen (without using Collect, so the
// windowed path is exercised even without a LIMIT).
func drainBatches(t *testing.T, cur Cursor) (*RowSet, int) {
	t.Helper()
	var batches []*Batch
	total := 0
	for {
		b, err := cur.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b.N == 0 {
			t.Fatalf("Next returned an empty batch")
		}
		batches = append(batches, b)
		total += b.N
	}
	schema := cur.Schema()
	out := &RowSet{Schema: schema, N: total, Cols: make([]Column, len(schema))}
	for i := range schema {
		out.Cols[i] = concatBatches(schema[i].Type, batches, i, total)
	}
	return out, len(batches)
}

// TestCursorLimitShortCircuitsScan pins LIMIT pushdown with a counting
// scan: a capped streamable pipeline must stop reading the base table as
// soon as enough rows are produced, on both the serial (1 worker) and
// morsel (8 workers) paths, for cursor drains and materialized execSelect
// alike.
func TestCursorLimitShortCircuitsScan(t *testing.T) {
	const rows = 200_000
	db := parallelTestDB(t, rows)
	query := `SELECT id FROM facts WHERE val > -1000.0 LIMIT 64`

	for _, tc := range []struct {
		name string
		o    ExecOptions
	}{
		{"serial", ExecOptions{Level: opt.LevelVectorized}},
		{"morsel", ExecOptions{Level: opt.LevelParallel, Parallelism: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.Counters = &ExecCounters{}
			stmt, _ := sql.ParseOne(query)
			rs, err := db.execSelect(context.Background(), stmt.(*sql.SelectStmt), o)
			if err != nil {
				t.Fatal(err)
			}
			if rs.N != 64 {
				t.Fatalf("got %d rows, want 64", rs.N)
			}
			scanned := o.Counters.RowsScanned.Load()
			if scanned == 0 || scanned >= rows/2 {
				t.Fatalf("scanned %d of %d rows for LIMIT 64; want an early-terminated scan", scanned, rows)
			}
		})
	}

	// Without a LIMIT the same pipeline must still scan everything.
	o := ExecOptions{Level: opt.LevelParallel, Parallelism: 8, Counters: &ExecCounters{}}
	stmt, _ := sql.ParseOne(`SELECT id FROM facts WHERE val > -1000.0`)
	if _, err := db.execSelect(context.Background(), stmt.(*sql.SelectStmt), o); err != nil {
		t.Fatal(err)
	}
	if scanned := o.Counters.RowsScanned.Load(); scanned != rows {
		t.Fatalf("uncapped scan read %d rows, want %d", scanned, rows)
	}
}

// TestBreakerInputLimitShortCircuitsScan: a breaker's input is collected
// through a cursor, so a LIMIT inside a FROM sub-query stops its scan early
// there too, at any worker count.
func TestBreakerInputLimitShortCircuitsScan(t *testing.T) {
	const rows = 200_000
	db := parallelTestDB(t, rows)
	query := `SELECT count(*) AS n FROM (SELECT id FROM facts WHERE val > -1000.0 LIMIT 64) q`
	for _, o := range []ExecOptions{
		{Level: opt.LevelVectorized},
		{Level: opt.LevelParallel, Parallelism: 8},
	} {
		o.Counters = &ExecCounters{}
		stmt, _ := sql.ParseOne(query)
		rs, err := db.execSelect(context.Background(), stmt.(*sql.SelectStmt), o)
		if err != nil {
			t.Fatal(err)
		}
		if n := rs.Cols[0].Ints[0]; n != 64 {
			t.Fatalf("workers=%d: count = %d, want 64", o.MaxWorkers(), n)
		}
		if scanned := o.Counters.RowsScanned.Load(); scanned == 0 || scanned >= rows/2 {
			t.Fatalf("workers=%d: scanned %d of %d rows under LIMIT 64; want an early-terminated scan",
				o.MaxWorkers(), scanned, rows)
		}
	}
}

// TestCursorDrainMatchesExec pins cursor-vs-materialized equivalence over
// streamable and blocking plan shapes at 1 and 8 workers: a windowed drain
// must concatenate to exactly what ExecPlanContext materializes.
func TestCursorDrainMatchesExec(t *testing.T) {
	db := parallelTestDB(t, 60_000)
	queries := []string{
		`SELECT id, val FROM facts WHERE val > 100.0 AND cat <> 'beta'`,
		`SELECT id + grp AS k, val * 2.0 AS v2 FROM facts WHERE flag`,
		`SELECT id FROM facts WHERE val > 0.0 LIMIT 1000`,
		`SELECT cat, count(*) AS n, sum(val) AS s FROM facts GROUP BY cat`,
		`SELECT DISTINCT cat, grp FROM facts`,
		`SELECT id, val FROM facts ORDER BY val DESC, id LIMIT 500`,
		`SELECT f.id, d.name FROM facts f JOIN dim d ON f.grp = d.k WHERE f.val > 400.0`,
		`SELECT 1 + 2 AS three`,
	}
	for _, q := range queries {
		for _, workers := range []int{1, 8} {
			o := ExecOptions{Level: opt.LevelParallel, Parallelism: workers}
			want := runAt(t, db, q, workers)
			cur := openCursorOn(t, db, q, o)
			got, _ := drainBatches(t, cur)
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: close: %v", q, err)
			}
			requireSameRowSet(t, fmt.Sprintf("%s (cursor, workers=%d)", q, workers), want, got)
		}
	}
}

// TestCursorPartialConsumption covers the paths a materialize-then-copy API
// structurally hides: closing a cursor mid-stream, cancellation between
// Next calls, and pulls after close.
func TestCursorPartialConsumption(t *testing.T) {
	db := parallelTestDB(t, 120_000)
	o := ExecOptions{Level: opt.LevelVectorized}

	t.Run("close mid-stream", func(t *testing.T) {
		cur := openCursorOn(t, db, `SELECT id FROM facts WHERE val > -1000.0`, o)
		if _, err := cur.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
		if _, err := cur.Next(context.Background()); err != errCursorClosed {
			t.Fatalf("Next after Close: got %v, want errCursorClosed", err)
		}
	})

	t.Run("cancel between Next calls is retryable", func(t *testing.T) {
		cur := openCursorOn(t, db, `SELECT id FROM facts WHERE val > -1000.0`, o)
		defer cur.Close()
		ctx, cancel := context.WithCancel(context.Background())
		first, err := cur.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total := first.N
		cancel()
		if _, err := cur.Next(ctx); err != context.Canceled {
			t.Fatalf("Next after cancel: got %v, want context.Canceled", err)
		}
		// Context errors are NOT sticky: a fresh context resumes the drain
		// exactly where it left off — the canceled pull consumed nothing
		// (server fetch retryability depends on this).
		for {
			b, err := cur.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next after retry: %v", err)
			}
			total += b.N
		}
		if total != 120_000 {
			t.Fatalf("drained %d rows across the canceled pull, want 120000 (rows lost or repeated)", total)
		}
	})

	t.Run("limit state rolls back across canceled pulls", func(t *testing.T) {
		cur := openCursorOn(t, db, `SELECT id FROM facts WHERE val > -1000.0 LIMIT 9000`, o)
		defer cur.Close()
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := cur.Next(canceled); err != context.Canceled {
			t.Fatalf("canceled pull: got %v", err)
		}
		total := 0
		for {
			b, err := cur.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			total += b.N
		}
		if total != 9000 {
			t.Fatalf("LIMIT drained %d rows after a canceled pull, want exactly 9000", total)
		}
	})
}

// TestCursorLeakCount pins the open-cursor accounting: every open is
// balanced by exactly one close, across drained, abandoned, and Collect'd
// cursors.
func TestCursorLeakCount(t *testing.T) {
	db := parallelTestDB(t, 20_000)
	base := CursorsOpen()
	o := ExecOptions{Level: opt.LevelParallel, Parallelism: 4}

	cur := openCursorOn(t, db, `SELECT id FROM facts`, o)
	if got := CursorsOpen(); got != base+1 {
		t.Fatalf("after open: %d cursors, want %d", got, base+1)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if got := CursorsOpen(); got != base {
		t.Fatalf("after close: %d cursors, want %d", got, base)
	}

	// Collect closes the cursor it drains, and ExecPlanContext rides on Collect.
	stmt, _ := sql.ParseOne(`SELECT grp, count(*) AS n FROM facts GROUP BY grp`)
	if _, err := db.execSelect(context.Background(), stmt.(*sql.SelectStmt), o); err != nil {
		t.Fatal(err)
	}
	if got := CursorsOpen(); got != base {
		t.Fatalf("after execSelect: %d cursors, want %d", got, base)
	}
}

// TestCursorEmptyAndEdgeShapes covers empty tables, LIMIT 0, and blocking
// roots drained through the cursor protocol.
func TestCursorEmptyAndEdgeShapes(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTableFromColumns("empty",
		[]string{"a", "b"}, []Column{IntColumn(nil), StringColumn(nil)}); err != nil {
		t.Fatal(err)
	}
	o := ExecOptions{Level: opt.LevelVectorized}

	cur := openCursorOn(t, db, `SELECT a, b FROM empty`, o)
	if _, err := cur.Next(context.Background()); err != io.EOF {
		t.Fatalf("empty table: got %v, want io.EOF", err)
	}
	if len(cur.Schema()) != 2 {
		t.Fatalf("empty table schema: %v", cur.Schema())
	}
	cur.Close()

	db2 := parallelTestDB(t, 20_000)
	cur = openCursorOn(t, db2, `SELECT id FROM facts LIMIT 0`, o)
	if _, err := cur.Next(context.Background()); err != io.EOF {
		t.Fatalf("LIMIT 0: got %v, want io.EOF", err)
	}
	cur.Close()

	// Blocking root: the sort materializes at open, then drains in batches.
	cur = openCursorOn(t, db2, `SELECT id, val FROM facts ORDER BY val`, o)
	rs, batches := drainBatches(t, cur)
	cur.Close()
	if rs.N != 20_000 {
		t.Fatalf("sorted drain: %d rows", rs.N)
	}
	if batches < 2 {
		t.Fatalf("sorted drain arrived in %d batch(es); want a windowed drain", batches)
	}
	for r := 1; r < rs.N; r++ {
		if rs.Cols[1].Floats[r] < rs.Cols[1].Floats[r-1] {
			t.Fatalf("sorted drain out of order at row %d", r)
		}
	}
}

// TestCursorBoundedMemory pins the redesign's point: draining a streamable
// 1M-row SELECT through a cursor must hold O(batch) live heap, not the
// O(result) a materialized execution allocates.
func TestCursorBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row allocation assertion")
	}
	const rows = 1_000_000
	db := NewDB()
	ids := make([]int64, rows)
	vals := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		vals[i] = float64(i%10_000) / 3.0
	}
	if _, err := db.CreateTableFromColumns("big",
		[]string{"id", "val"}, []Column{IntColumn(ids), FloatColumn(vals)}); err != nil {
		t.Fatal(err)
	}

	// Computed projections force every batch to allocate fresh columns
	// (pass-through columns would alias table storage and prove nothing).
	const query = `SELECT id + 1 AS id2, val * 2.0 AS v2 FROM big WHERE val >= 0.0`
	o := ExecOptions{Level: opt.LevelVectorized}

	// Materialized floor: the full result is ~16 MB of column data.
	materialized := func() int {
		rs, err := db.execSelect(context.Background(), mustSelect(t, query), o)
		if err != nil {
			t.Fatal(err)
		}
		return 8*len(rs.Cols[0].Ints) + 8*len(rs.Cols[1].Floats)
	}()

	cur := openCursorOn(t, db, query, o)
	defer cur.Close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var maxLive uint64
	n, batch := 0, 0
	for {
		b, err := cur.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += b.N
		batch++
		if batch%32 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			// The heap can shrink below the baseline (a collection frees
			// garbage older than the cursor); that is zero live bytes, not
			// an unsigned wrap-around.
			if live := ms.HeapAlloc - min(ms.HeapAlloc, baseline); live > maxLive {
				maxLive = live
			}
		}
	}
	if n != rows {
		t.Fatalf("drained %d rows, want %d", n, rows)
	}
	if maxLive > uint64(materialized)/2 {
		t.Fatalf("streaming drain held %d B live heap; materialized result is %d B — not O(batch)",
			maxLive, materialized)
	}
	t.Logf("streaming live heap max %d B over a %d B materialized result", maxLive, materialized)
}

func mustSelect(t testing.TB, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sql.SelectStmt)
}

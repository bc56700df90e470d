package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

func TestExecContextPreCanceled(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := execText(ctx, db, "SELECT count(*) FROM customers WHERE age > 30", ExecOptions{Level: db.DefaultLevel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDMLContextPreCanceled(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := execText(ctx, db, "UPDATE customers SET age = age + 1", ExecOptions{Level: db.DefaultLevel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("UPDATE: want context.Canceled, got %v", err)
	}
	if _, err := execText(ctx, db, "DELETE FROM customers WHERE age > 100", ExecOptions{Level: db.DefaultLevel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DELETE: want context.Canceled, got %v", err)
	}
	// The canceled statements must not have mutated anything.
	res, err := db.Exec("SELECT count(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != 1000 {
		t.Fatalf("canceled DML changed the table: %d rows", got)
	}
}

// TestFilterRangeCancelsAtBatchBoundary proves the acceptance criterion
// directly: a cancellation arriving mid-scan stops the filter loop at the
// NEXT morsel boundary — exactly one more kernel call never happens.
func TestFilterRangeCancelsAtBatchBoundary(t *testing.T) {
	n := morselRows * 4
	rs := &RowSet{
		Schema: Schema{{Name: "x", Type: TypeInt}},
		Cols:   []Column{IntColumn(make([]int64, n))},
		N:      n,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ex := &executor{ctx: ctx, o: ExecOptions{Level: opt.LevelVectorized}}

	calls := 0
	fn := func(part *RowSet) (*Vec, error) {
		calls++
		if calls == 2 {
			cancel() // cancellation lands while batch 2 is "executing"
		}
		v := newVec(TypeBool, part.N)
		for i := range v.Bools {
			v.Bools[i] = true
		}
		return v, nil
	}
	sels, err := ex.filterMorsels(fn, rs, 1)
	for _, s := range sels {
		if s != nil {
			putSel(s)
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("filter ran %d batches; cancellation must stop it right after batch 2", calls)
	}
}

// TestConcurrentDMLNoLostWrites interleaves INSERTs with UPDATE/DELETE
// read-modify-write statements on one table: statement-level write
// exclusion must guarantee no committed insert is dropped by a concurrent
// rebuild, and no canceled statement leaves partial rows behind.
func TestConcurrentDMLNoLostWrites(t *testing.T) {
	db := NewDB()
	// A wide initial table makes the UPDATE's snapshot -> rebuild -> replace
	// window long enough that unserialized inserts would land inside it.
	const seed = 20000
	ids := make([]int64, seed)
	vs := make([]int64, seed)
	for i := range ids {
		ids[i] = int64(-i - 1)
	}
	if _, err := db.CreateTableFromColumns("t",
		[]string{"id", "v"},
		[]Column{IntColumn(ids), IntColumn(vs)}); err != nil {
		t.Fatal(err)
	}
	const inserters = 4
	const perInserter = 25
	const updaters = 2
	var wg sync.WaitGroup
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perInserter; i++ {
				q := fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", w*1000+i+1)
				if _, err := db.Exec(q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Exec("UPDATE t SET v = v + 1 WHERE id >= 0"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := db.Exec("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(seed + inserters*perInserter)
	if got := boxed(res)[0][0].(int64); got != want {
		t.Fatalf("lost writes under concurrent DML: %d rows, want %d", got, want)
	}
}

// TestInsertTypeErrorIsAtomic: a multi-row INSERT whose later row fails a
// type check must commit nothing — no partial rows, no ragged columns, no
// version bump.
func TestInsertTypeErrorIsAtomic(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a int, b text)"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("t")
	v0 := tab.Version()
	_, err := db.Exec("INSERT INTO t VALUES (1, 'ok'), (2, 3)")
	if err == nil {
		t.Fatal("expected a type error storing int into text column")
	}
	res, err := db.Exec("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != 0 {
		t.Fatalf("failed INSERT committed %d partial rows", got)
	}
	if tab.Version() != v0 {
		t.Fatalf("failed INSERT bumped version %d -> %d", v0, tab.Version())
	}
}

// TestInsertSelectCancelLeavesNoPartialWrite: a canceled INSERT ... SELECT
// must write nothing at all — never a torn prefix of the result.
func TestInsertSelectCancelLeavesNoPartialWrite(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 100)
	if _, err := db.Exec("CREATE TABLE scores (id int, s float)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := execText(ctx, db,
		"INSERT INTO scores SELECT id, PREDICT(churn, age, income, region) FROM customers",
		ExecOptions{Level: opt.LevelFull})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res, err := db.Exec("SELECT count(*) FROM scores")
	if err != nil {
		t.Fatal(err)
	}
	if got := boxed(res)[0][0].(int64); got != 0 {
		t.Fatalf("canceled INSERT...SELECT left %d partial rows", got)
	}
}

// blockingScorer parks every scoring call until its context is canceled —
// a model service that hangs. Deployed through SetUDFScorerFactory it
// proves a wedged scorer cannot wedge a session once ctx is canceled.
type blockingScorer struct {
	started chan struct{}
	once    sync.Once
}

func (b *blockingScorer) Score(batch *onnx.Batch) ([]float64, error) {
	return b.ScoreContext(context.Background(), batch)
}

func (b *blockingScorer) ScoreContext(ctx context.Context, batch *onnx.Batch) ([]float64, error) {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestCancelUnblocksHungScorer(t *testing.T) {
	db := NewDB()
	buildScoringSetup(t, db, 500)
	bs := &blockingScorer{started: make(chan struct{})}
	db.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) { return bs, nil })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := execText(ctx, db,
			"SELECT PREDICT(churn, age, income, region) FROM customers",
			ExecOptions{Level: opt.LevelUDF})
		done <- err
	}()

	select {
	case <-bs.started:
	case <-time.After(10 * time.Second):
		t.Fatal("scorer never invoked")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return; hung scorer wedged the session")
	}
}

// TestCancelDuringScan smoke-checks the end-to-end path: a query over a
// large table canceled mid-flight returns a context error promptly rather
// than running to completion.
func TestCancelDuringScan(t *testing.T) {
	db := NewDB()
	const n = 1 << 20
	ids := make([]int64, n)
	notes := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		notes[i] = "the quick brown fox jumps over the lazy dog and keeps on running far away"
	}
	if _, err := db.CreateTableFromColumns("big",
		[]string{"id", "notes"},
		[]Column{IntColumn(ids), StringColumn(notes)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := execText(ctx, db,
			"SELECT count(*) FROM big WHERE notes LIKE '%keeps on running%' AND notes LIKE '%nowhere%'",
			ExecOptions{Level: opt.LevelVectorized})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// The query may legitimately finish before the cancel lands on a
		// fast machine; all that matters is a prompt, clean return.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled scan did not return within 10s")
	}
}

// countdownCtx is a deterministic cancellation source: it reports Done
// (closed channel) only after its Done() method has been polled more than
// threshold times. Execution over a fixed input polls in a fixed order, so
// the trip point can be placed precisely — here, inside the sort
// comparator.
type countdownCtx struct {
	threshold int
	polls     int
	closed    chan struct{}
	open      chan struct{}
}

func newCountdownCtx(threshold int) *countdownCtx {
	c := &countdownCtx{threshold: threshold, closed: make(chan struct{}), open: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls > c.threshold {
		return c.closed
	}
	return c.open
}

func (c *countdownCtx) Err() error {
	if c.polls > c.threshold {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Value(any) any               { return nil }

// TestSortCancelsInsideComparator pins the ORDER BY cancellation
// checkpoint: the sort.SliceStable comparator loop must poll the context,
// so a cancellation landing between key materialization and gather aborts
// the statement instead of running the full O(n log n) sort.
func TestSortCancelsInsideComparator(t *testing.T) {
	db := NewDB()
	const n = cancelBatchRows * 4
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % n) // scrambled, forces real sorting
	}
	if _, err := db.CreateTableFromColumns("big",
		[]string{"id"}, []Column{IntColumn(vals)}); err != nil {
		t.Fatal(err)
	}

	run := func(ctx context.Context) error {
		ex := &executor{ctx: ctx, db: db, o: ExecOptions{Level: opt.LevelVectorized},
			env: &compileEnv{ctx: ctx}}
		_, err := ex.execSort(&opt.Sort{
			Input: &opt.Scan{Table: "big", Version: -1},
			Keys:  []opt.SortKey{{Expr: &sql.ColRef{Name: "id"}}},
		})
		return err
	}

	// Pass 1: count every context poll of a full, uncanceled run. The polls
	// beyond the handful made by the scan and key materialization all come
	// from the comparator.
	counter := newCountdownCtx(1 << 30)
	if err := run(counter); err != nil {
		t.Fatal(err)
	}
	total := counter.polls
	const preSortPolls = 20 // generous bound on scan + materialization polls
	if total <= preSortPolls {
		t.Fatalf("only %d context polls for a %d-row sort: comparator is not polling", total, n)
	}

	// Pass 2: trip the context a few polls before the end — provably inside
	// the comparator loop — and require a context.Canceled abort.
	if err := run(newCountdownCtx(total - 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from mid-sort cancellation, got %v", err)
	}
}

// TestTopKCancelsAtBatchBoundary pins the bounded ORDER BY … LIMIT k path:
// its selection loop polls the context once per cancelBatchRows rows, and a
// cancellation landing there aborts the statement at that boundary — no
// further poll, no further batch.
func TestTopKCancelsAtBatchBoundary(t *testing.T) {
	db := NewDB()
	for name, batches := range map[string]int{"big4": 4, "big8": 8} {
		n := cancelBatchRows * batches
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64((i * 2654435761) % n)
		}
		if _, err := db.CreateTableFromColumns(name, []string{"id"}, []Column{IntColumn(vals)}); err != nil {
			t.Fatal(err)
		}
	}
	run := func(ctx context.Context, table string) error {
		ex := &executor{ctx: ctx, db: db, o: ExecOptions{Level: opt.LevelVectorized},
			env: &compileEnv{ctx: ctx}}
		_, err := ex.execSort(&opt.Sort{
			Input: &opt.Scan{Table: table, Version: -1},
			Keys:  []opt.SortKey{{Expr: &sql.ColRef{Name: "id"}, Desc: true}},
			TopK:  100,
		})
		return err
	}
	polls := func(table string) int {
		c := newCountdownCtx(1 << 30)
		if err := run(c, table); err != nil {
			t.Fatal(err)
		}
		return c.polls
	}
	// Twice the input is four more batches, so at least four more polls: the
	// selection loop is what polls (the scan and the key column do not scale
	// with rows), and it polls far less than a sort's comparator would.
	p4, p8 := polls("big4"), polls("big8")
	if p8-p4 < 4 || p8 > 100 {
		t.Fatalf("top-k polled %d times over 4 batches and %d over 8: want one poll per batch", p4, p8)
	}
	// The last polls of a run are the selection loop's (100 candidates sort
	// without reaching a checkpoint). Trip the context on one of them.
	c := newCountdownCtx(p8 - 3)
	if err := run(c, "big8"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from mid-selection cancellation, got %v", err)
	}
	if c.polls != p8-2 {
		t.Errorf("polled %d times after tripping at poll %d: the loop ran past the batch boundary", c.polls, p8-2)
	}
}

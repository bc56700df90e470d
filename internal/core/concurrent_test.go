package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/opt"
)

// TestConcurrentExec hammers one Flock from parallel sessions with mixed
// reads, writes and PREDICT scoring. Run under -race it audits the whole
// Exec path (engine, governance, provenance, audit log, registry) for data
// races; functionally it asserts the audit chain stays intact and no
// statement fails.
func TestConcurrentExec(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE events (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO events VALUES (0, 44.0, 'us'), (1, 31.0, 'eu')"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{
		Script: "concurrent_test", Tables: []string{"events"},
		Hyperparams: map[string]string{"n_trees": "15"},
		Metrics:     map[string]string{"auc": "0.9"},
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", w)
			f.Access.AssignRole(user, "admin")
			for i := 0; i < iters; i++ {
				var err error
				switch i % 5 {
				case 0:
					_, err = f.Exec(user, fmt.Sprintf("INSERT INTO events VALUES (%d, %d.0, 'us')", w*1000+i, 20+i))
				case 1:
					_, err = f.Exec(user, "SELECT count(*), avg(age) FROM events")
				case 2:
					_, err = f.Exec(user, "SELECT region, count(*) FROM events GROUP BY region ORDER BY region")
				case 3:
					_, err = f.Exec(user, "SELECT id, PREDICT(churn, age, region) AS s FROM events WHERE age > 25")
				case 4:
					_, err = f.ExecContext(context.Background(), user,
						fmt.Sprintf("UPDATE events SET age = age + 1 WHERE id = %d", w*1000))
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	// Concurrent training-provenance writes exercise the catalog attr path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			f.Prov.RecordTraining("churn", 1, "retrain.py", []string{"events"},
				map[string]string{"iter": fmt.Sprint(i)}, map[string]string{"auc": "0.91"})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if idx := f.Audit.Verify(); idx != -1 {
		t.Fatalf("audit chain corrupted at entry %d after concurrent load", idx)
	}
	// Every statement must have been captured eagerly (one query entity per
	// statement; exact counts vary with interleaving, so sanity-check scale).
	nodes, edges := f.Catalog.Size()
	if nodes == 0 || edges == 0 {
		t.Fatalf("provenance catalog empty after load: %d nodes %d edges", nodes, edges)
	}
}

// TestConcurrentPrepared runs one shared prepared statement from many
// goroutines while a writer invalidates its plan, proving revalidation is
// race-free and never serves stale results.
func TestConcurrentPrepared(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	p, err := f.Prepare("SELECT sum(v) FROM kv", opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := f.ExecPrepared(context.Background(), "root", p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := f.Exec("root", fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i+2, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles the prepared plan must see the final state.
	res, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Exec("root", "SELECT sum(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(boxed(res)[0][0]) != fmt.Sprint(boxed(want)[0][0]) {
		t.Fatalf("prepared result %v != fresh result %v (stale plan served)", boxed(res)[0][0], boxed(want)[0][0])
	}
}

func TestPreparedStalenessOnModelDeploy(t *testing.T) {
	f := newFlock(t)
	if _, err := f.Exec("root", "CREATE TABLE people (id int, age float, region text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exec("root", "INSERT INTO people VALUES (1, 50.0, 'us')"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	p, err := f.Prepare("SELECT PREDICT(churn, age, region) FROM people", opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	before, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	gen := f.Models.Generation()
	// A new model version must invalidate the cached plan (its graph is
	// baked into the Predict operator).
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
	if f.Models.Generation() == gen {
		t.Fatal("registry generation did not advance on deploy")
	}
	after, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	_ = before
	_ = after // same training data, so scores may match; the point is no error and a replan
	// The audit log must show the prepared executions under "select".
	found := false
	for _, e := range f.Audit.Entries() {
		if e.Action == "select" && strings.Contains(e.Detail, "PREDICT") {
			found = true
		}
	}
	if !found {
		t.Fatal("prepared PREDICT execution missing from audit log")
	}
}

// TestConcurrentPreparedSharesAnnotatedPlan executes one prepared plan that
// carries both planner annotations (a pruned scan and a bounded sort) from 16
// goroutines at once. The plan is shared, not copied, so under -race this
// proves the executor only ever reads Scan.Cols and Sort.TopK; functionally
// every execution must return the same rows.
func TestConcurrentPreparedSharesAnnotatedPlan(t *testing.T) {
	f := newFlock(t)
	const n = 20000 // wide enough for the parallel operators
	ids := make([]int64, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64((i * 7919) % 1000)
		tags[i] = fmt.Sprintf("t%d", i%13)
	}
	if _, err := f.DB.CreateTableFromColumns("big", []string{"id", "val", "tag"},
		[]engine.Column{engine.IntColumn(ids), engine.FloatColumn(vals), engine.StringColumn(tags)}); err != nil {
		t.Fatal(err)
	}
	p, err := f.Prepare("SELECT id FROM big WHERE tag <> 't3' ORDER BY val DESC LIMIT 50", opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	if want.N != 50 {
		t.Fatalf("%d rows, want 50", want.N)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := f.ExecPrepared(context.Background(), "root", p)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(boxed(got)) != fmt.Sprint(boxed(want)) {
					t.Errorf("concurrent execution returned different rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}

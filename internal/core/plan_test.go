package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
)

func mustExecF(t *testing.T, f *Flock, q string) {
	t.Helper()
	if _, err := f.Exec("root", q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// youngPeople creates people (id int, age float, region text) with n rows
// of ages 20 to 25 in regions us and eu, and deploys the churn model, which
// splits on older ages and on apac: compression against the table resolves
// those splits.
func youngPeople(t *testing.T, f *Flock, n int) {
	t.Helper()
	mustExecF(t, f, "CREATE TABLE people (id int, age float, region text)")
	r := ml.NewRand(3)
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = []engine.Value{engine.IntValue(int64(i)), engine.FloatValue(20 + 5*r.Float64()),
			engine.StringValue([]string{"us", "eu"}[r.Intn(2)])}
	}
	if err := f.DB.AppendRows("people", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployPipeline("root", "churn", trainPipe(t), TrainingInfo{}); err != nil {
		t.Fatal(err)
	}
}

// requireScorerAnswers checks every row (id, age, region, s) of res against
// the deployed graph g scored by onnx.NewLocalScorer, bit for bit, and
// returns how many rows it checked.
func requireScorerAnswers(t *testing.T, g *onnx.Graph, res *engine.Result) int {
	t.Helper()
	cols := map[string]onnx.Column{"age": {Nums: res.Cols[1].Floats}, "region": {Strs: res.Cols[2].Strs}}
	b := onnx.Batch{N: res.N}
	for _, in := range g.Inputs {
		b.Cols = append(b.Cols, cols[in.Name])
	}
	scorer, err := onnx.NewLocalScorer(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scorer.Score(&b)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Cols[3].Floats {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Errorf("id %d (age %v, %s) scored %v, native scorer %v",
				res.Cols[0].Ints[i], res.Cols[1].Floats[i], res.Cols[2].Strs[i], got, want[i])
		}
	}
	return res.N
}

const peopleScores = "SELECT id, age, region, PREDICT(churn, age, region) AS s FROM people"

// TestPreparedPlanSurvivesWrites: a write leaves a prepared PREDICT's plan
// valid — the same *opt.Plan runs after an INSERT of rows outside the
// table's ranges, and scores them as the native scorer does, because
// compression is specialized to the snapshot each run scans.
func TestPreparedPlanSurvivesWrites(t *testing.T) {
	f := newFlock(t)
	youngPeople(t, f, 50)
	g, err := f.Models.GraphFor("churn")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Prepare(peopleScores, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	planned := p.plan
	mustExecF(t, f, "INSERT INTO people VALUES (50, 70.0, 'apac'), (51, 64.5, 'us')")
	res, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	if n := requireScorerAnswers(t, g, res); n != 52 {
		t.Fatalf("%d rows, want 52", n)
	}
	if p.plan != planned {
		t.Error("an INSERT replanned the prepared statement")
	}
}

// TestPreparedPlanFollowsRecreatedTable: a table dropped and created again
// with another schema, then written until its version equals the old
// table's, is a different table to a prepared plan — the catalog
// generation moved, so the next run replans and answers from the new
// schema.
func TestPreparedPlanFollowsRecreatedTable(t *testing.T) {
	f := newFlock(t)
	mustExecF(t, f, "CREATE TABLE t (a int, b text)")
	mustExecF(t, f, "INSERT INTO t VALUES (1, 'x')")
	mustExecF(t, f, "INSERT INTO t VALUES (2, 'y')")
	p, err := f.Prepare("SELECT * FROM t", opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecPrepared(context.Background(), "root", p); err != nil {
		t.Fatal(err)
	}
	planned := p.plan
	old, err := f.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DB.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExecF(t, f, "CREATE TABLE t (c float, d float, e int)")
	recreated, err := f.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; recreated.Version() < old.Version(); i++ {
		mustExecF(t, f, fmt.Sprintf("INSERT INTO t VALUES (%d.5, 2.0, %d)", i, i))
	}
	if recreated.Version() != old.Version() {
		t.Fatalf("recreated table at version %d, old one at %d", recreated.Version(), old.Version())
	}
	res, err := f.ExecPrepared(context.Background(), "root", p)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schema.Names(); fmt.Sprint(got) != "[c d e]" || res.N != recreated.NumRows() {
		t.Fatalf("answered %v with %d rows, want the new table's [c d e] and %d rows", got, res.N, recreated.NumRows())
	}
	if p.plan == planned {
		t.Error("the plan of the dropped table was run on the new one")
	}
}

// TestPredictScoresLikeTheScorerUnderAppends runs LevelFull PREDICT reads
// through core, prepared and ad hoc, while a writer appends rows outside
// every range the table held when the reads were planned. Each read's
// compression is specialized to the snapshot it scans, so every returned
// row scores bit for bit as the native scorer scores it.
func TestPredictScoresLikeTheScorerUnderAppends(t *testing.T) {
	f := newFlock(t)
	youngPeople(t, f, 200)
	g, err := f.Models.GraphFor("churn")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Prepare(peopleScores, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 60; i++ {
			region := []string{"apac", "us", "eu"}[i%3]
			if _, err := f.Exec("root", fmt.Sprintf("INSERT INTO people VALUES (%d, %d.5, '%s')", 200+i, 40+i, region)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var checked atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each reader reads once before it checks done, so a writer that
			// finishes first still leaves reads to check.
			for i := 0; i == 0 || !done.Load(); i++ {
				var res *engine.Result
				var err error
				if (w+i)%2 == 0 {
					res, err = f.ExecPrepared(context.Background(), "root", p)
				} else {
					res, err = f.Exec("root", peopleScores)
				}
				if err != nil {
					t.Error(err)
					return
				}
				checked.Add(int64(requireScorerAnswers(t, g, res)))
			}
		}(w)
	}
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no read ran")
	}
}

package engine

// Stats-driven model compression runs when a cursor opens, against the
// snapshot its scan reads (newPredictOp): a plan holds no statistics. These
// tests pin that the compressed model scores every row of that snapshot
// exactly as the uncompressed model does, that the plan survives writes
// unchanged, and what the counters report.

import (
	"context"
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
)

// churnGraph is the gradient-boosted churn model pruneTestDB deploys:
// inputs age, income, tenure and region.
func churnGraph(t testing.TB) *onnx.Graph {
	t.Helper()
	g, err := pruneTestDB(t, 3000).models.GraphFor("churn")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// youngTable creates table (id, age, income, tenure, region) with n young,
// low-income rows: their ranges sit below most of the churn model's splits,
// so compression against them resolves those splits as "every stored value
// goes left". age is constant when constAge is set, which resolves every
// split on age and drops the input.
func youngTable(t testing.TB, db *DB, table string, n int, constAge bool) {
	t.Helper()
	r := ml.NewRand(11)
	ids := make([]int64, n)
	ages, income, tenure := make([]float64, n), make([]float64, n), make([]float64, n)
	regions := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		ages[i] = 20 + r.Float64()*5
		if constAge {
			ages[i] = 22
		}
		income[i] = 20000 + r.Float64()*5000
		tenure[i] = 3
		regions[i] = []string{"us", "eu"}[r.Intn(2)]
	}
	if _, err := db.CreateTableFromColumns(table, []string{"id", "age", "income", "tenure", "region"},
		[]Column{IntColumn(ids), FloatColumn(ages), FloatColumn(income), FloatColumn(tenure),
			StringColumn(regions)}); err != nil {
		t.Fatal(err)
	}
}

// nativeScores scores every row of table's current version with the
// uncompressed graph g through onnx.NewLocalScorer: the answer a LevelFull
// PREDICT must match bit for bit. A graph input reads the column of its
// name, or the one argOf names for it; numeric ones must be float columns.
func nativeScores(t testing.TB, db *DB, table string, g *onnx.Graph, argOf map[string]string) []float64 {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	cols, _, schema, n := tab.snapshot()
	b := onnx.Batch{N: n}
	for _, in := range g.Inputs {
		col := in.Name
		if a, ok := argOf[col]; ok {
			col = a
		}
		idx, err := schema.Resolve("", col)
		if err != nil {
			t.Fatal(err)
		}
		b.Cols = append(b.Cols, onnx.Column{Nums: cols[idx].Floats, Strs: cols[idx].Strs})
	}
	scorer, err := onnx.NewLocalScorer(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scorer.Score(&b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireNativeScores checks a result whose first column is the row's id
// (its index in table) and whose column s is its score.
func requireNativeScores(t testing.TB, rs *RowSet, want []float64, s int) {
	t.Helper()
	if rs.N != len(want) {
		t.Fatalf("%d rows, want %d", rs.N, len(want))
	}
	for i, got := range rs.Cols[s].Floats {
		id := rs.Cols[0].Ints[i]
		if math.Float64bits(got) != math.Float64bits(want[id]) {
			t.Errorf("row %d scored %v at LevelFull, native scorer %v", id, got, want[id])
		}
	}
}

// openPredict opens a cursor over plan at LevelFull and returns its
// PREDICT operator; the caller closes the cursor.
func openPredict(t testing.TB, db *DB, plan *opt.Plan, c *ExecCounters) (Cursor, *predictOp) {
	t.Helper()
	cur, err := db.OpenPlanCursor(context.Background(), plan, ExecOptions{Level: opt.LevelFull, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range cur.(*streamCursor).ops {
		if p, ok := op.(*predictOp); ok {
			return cur, p
		}
	}
	cur.Close()
	t.Fatal("no PREDICT operator in the cursor")
	return nil, nil
}

// TestCompressionSeesRowsWrittenAfterPlanning is the re-anchor probe: a
// LevelFull plan built over young, low-income rows, an out-of-range row
// inserted, then the old plan executed. Compression specialized at plan
// time would score the new row with splits resolved for ranges that
// exclude it; compressed at open, every row scores as the native scorer.
func TestCompressionSeesRowsWrittenAfterPlanning(t *testing.T) {
	g := churnGraph(t)
	db := NewDB()
	db.SetModelProvider(fakeModels{"churn": g})
	youngTable(t, db, "scored", 64, false)
	plan := mustPlan(t, db, `SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM scored ORDER BY id`, opt.LevelFull)
	mustExec(t, db, "INSERT INTO scored VALUES (64, 70.0, 150000.0, 3.0, 'us')")
	rs, err := db.ExecPlanContext(context.Background(), plan, ExecOptions{Level: opt.LevelFull})
	if err != nil {
		t.Fatal(err)
	}
	requireNativeScores(t, rs, nativeScores(t, db, "scored", g, nil), 1)
}

// TestCompressionReadsArgumentColumns: a graph input is specialized to the
// statistics of the column its argument names, not of a column that shares
// the input's name. Here the age input reads a wide-ranging column years,
// while a column named age holds one young value that would resolve every
// split on age.
func TestCompressionReadsArgumentColumns(t *testing.T) {
	g := churnGraph(t)
	db := NewDB()
	db.SetModelProvider(fakeModels{"churn": g})
	youngTable(t, db, "scored", 200, true)
	mustExec(t, db, "CREATE TABLE renamed (id int, years float, income float, tenure float, region text, age float)")
	mustExec(t, db, "INSERT INTO renamed SELECT id, 20.0 + id * 0.3, income, tenure, region, age FROM scored")
	res, err := execLevel(db, `SELECT id, PREDICT(churn, years, income, tenure, region) AS s FROM renamed`, opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	requireNativeScores(t, &res.RowSet, nativeScores(t, db, "renamed", g, map[string]string{"age": "years"}), 1)
}

// TestOpenCompressionUsesStats: the graph a cursor compresses at open
// validates, its inputs match the arguments the operator binds, an input
// the snapshot's statistics resolve (a constant age) is dropped without
// touching the plan, and every row still scores as the native scorer.
func TestOpenCompressionUsesStats(t *testing.T) {
	g := churnGraph(t)
	db := NewDB()
	db.SetModelProvider(fakeModels{"churn": g})
	youngTable(t, db, "scored", 100, true)
	plan := mustPlan(t, db, `SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM scored`, opt.LevelFull)
	pn := planPredict(t, plan)
	if !pn.Compress {
		t.Fatal("a LevelFull PREDICT over a current-version scan is not marked for compression")
	}
	planned := pn.Graph.Fingerprint()

	cur, op := openPredict(t, db, plan, nil)
	defer cur.Close()
	if err := op.g.Validate(); err != nil {
		t.Fatalf("compressed graph invalid: %v", err)
	}
	if len(op.args) != len(op.g.Inputs) {
		t.Errorf("args (%d) out of sync with graph inputs (%d)", len(op.args), len(op.g.Inputs))
	}
	for _, in := range op.g.Inputs {
		if in.Name == "age" {
			t.Errorf("a constant age was not dropped: inputs %v", op.g.InputNames())
		}
	}
	if len(pn.Args) != len(pn.Graph.Inputs) || pn.Graph.Fingerprint() != planned || pn.Graph.Clone().Fingerprint() != planned {
		t.Error("compressing at open changed the plan")
	}
	rs, err := Collect(context.Background(), cur)
	if err != nil {
		t.Fatal(err)
	}
	requireNativeScores(t, rs, nativeScores(t, db, "scored", g, nil), 1)
}

// TestCompressionCounters: the counters report what compression did for
// the PREDICT operators that ran — fewer tree nodes after than before over
// a narrow-range table, and each category of the planned model the table
// does not hold — and stay zero below LevelFull, which never compresses.
func TestCompressionCounters(t *testing.T) {
	g := churnGraph(t)
	db := NewDB()
	db.SetModelProvider(fakeModels{"churn": g})
	youngTable(t, db, "scored", 64, false)
	const q = `SELECT count(*) FROM scored WHERE PREDICT(churn, age, income, tenure, region) > 0.5`
	plan := mustPlan(t, db, q, opt.LevelFull)
	var c ExecCounters
	if _, err := db.ExecPlanContext(context.Background(), plan, ExecOptions{Level: opt.LevelFull, Counters: &c}); err != nil {
		t.Fatal(err)
	}
	before, after := c.TreeNodesBefore.Load(), c.TreeNodesAfter.Load()
	if before == 0 || after >= before {
		t.Errorf("tree nodes %d -> %d, want fewer after than before", before, after)
	}
	var absent int64
	for _, f := range planPredict(t, plan).Graph.Feats {
		for _, cat := range f.Categories {
			if cat != "us" && cat != "eu" {
				absent++
			}
		}
	}
	if got := c.CategoriesDropped.Load(); got != absent {
		t.Errorf("%d categories dropped, want %d", got, absent)
	}
	var p ExecCounters
	if _, err := execText(context.Background(), db, q, ExecOptions{Level: opt.LevelParallel, Counters: &p}); err != nil {
		t.Fatal(err)
	}
	if p.TreeNodesBefore.Load() != 0 || p.TreeNodesAfter.Load() != 0 || p.CategoriesDropped.Load() != 0 {
		t.Error("LevelParallel reported compression")
	}
}

// planPredict returns the first Predict node on the plan's left spine.
func planPredict(t testing.TB, plan *opt.Plan) *opt.Predict {
	t.Helper()
	for n := plan.Root; n != nil; {
		if p, ok := n.(*opt.Predict); ok {
			return p
		}
		in := opt.Inputs(n)
		if len(in) == 0 {
			break
		}
		n = in[0]
	}
	t.Fatal("no Predict in the plan")
	return nil
}

package workload

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
)

// graphPlane is an inference plane that records the fingerprint of every
// graph a PREDICT operator hands it, and scores nothing.
type graphPlane struct {
	mu  sync.Mutex
	fps map[uint64]bool
}

func (p *graphPlane) Score(_ context.Context, _ string, g *onnx.Graph, _ *onnx.Batch, _ []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fps[g.Fingerprint()] = true
	return nil
}

type oneModel struct{ g *onnx.Graph }

func (m oneModel) GraphFor(string) (*onnx.Graph, error) { return m.g, nil }

// TestOpenCompressionKeepsFingerprints: on the served demo tables — the
// 200k-row customers and its 60k-row customers_hot copy, with the served
// model — the graph a PREDICT compresses at cursor open is the graph
// compressing the table's statistics at plan time made: the deployed graph
// cloned, its threshold pushed up when the query has one, then
// CompressWithStats. Equal fingerprints keep score-cache keys, and so
// cached scores, as they were when compression ran in the planner. On
// those two tables the statistics only drop categories the trees never
// test, so a young, low-income slice checks a model they specialize.
func TestOpenCompressionKeepsFingerprints(t *testing.T) {
	db := engine.NewDB()
	if err := LoadScoringTable(db, ScoringConfig{Rows: 200000, Seed: 7, Regions: 6, WithText: true}); err != nil {
		t.Fatal(err)
	}
	pipe, err := TrainScoringPipeline(4000, 42, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		t.Fatal(err)
	}
	db.SetModelProvider(oneModel{g})
	for _, q := range []string{
		"CREATE TABLE customers_hot (id int, age float, income float, tenure float, region text, notes text)",
		"INSERT INTO customers_hot SELECT id, age, income, tenure, region, notes FROM customers WHERE id >= 100001 AND id < 160001",
		"CREATE TABLE customers_young (id int, age float, income float, tenure float, region text, notes text)",
		"INSERT INTO customers_young SELECT * FROM customers WHERE age < 25.0 AND income < 40000.0",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	plane := &graphPlane{}
	db.SetPredictPlane(plane)
	specialized := 0
	for _, tc := range []struct {
		table, query string
		threshold    float64 // pushed up into the model when > 0
	}{
		{"customers_hot", "SELECT PREDICT(churn, age, income, tenure, region, notes) FROM customers_hot WHERE id = 100500", 0},
		{"customers", "SELECT count(*) FROM customers WHERE id BETWEEN 24001 AND 36000 AND PREDICT(churn, age, income, tenure, region, notes) > 0.45", 0.45},
		{"customers_young", "SELECT PREDICT(churn, age, income, tenure, region, notes) FROM customers_young", 0},
	} {
		tab, err := db.Table(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Clone()
		if tc.threshold > 0 {
			onnx.PushUpThreshold(want, tc.threshold)
		}
		pruned := want.Clone()
		onnx.PruneUnusedFeatures(pruned)
		onnx.CompressWithStats(want, tab.Stats())
		if want.Fingerprint() != pruned.Fingerprint() {
			specialized++
		}
		stmt, err := sql.ParseOne(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		plane.fps = map[uint64]bool{}
		if _, err := db.ExecStmtContext(context.Background(), stmt, engine.ExecOptions{Level: opt.LevelFull}); err != nil {
			t.Fatal(err)
		}
		if len(plane.fps) != 1 || !plane.fps[want.Fingerprint()] {
			t.Errorf("%s: scored with graphs %v, want the plan-time compression %d", tc.table, plane.fps, want.Fingerprint())
		}
	}
	if specialized == 0 {
		t.Fatal("the statistics specialize no model; the check is vacuous")
	}
}

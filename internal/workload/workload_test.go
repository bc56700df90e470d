package workload

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/sql"
)

// boxed is res's rows with every cell boxed, for comparing answers.
func boxed(res *engine.Result) [][]any {
	rows := make([][]any, res.N)
	for i := range rows {
		rows[i] = make([]any, len(res.Cols))
		for c, v := range res.Row(i) {
			rows[i][c] = v.Any()
		}
	}
	return rows
}

func TestTPCHAllTemplatesParse(t *testing.T) {
	p := NewTPCHParams(1)
	for q := 1; q <= 22; q++ {
		text := TPCHQuery(q, p)
		stmt, err := sql.ParseOne(text)
		if err != nil {
			t.Fatalf("Q%d does not parse: %v\n%s", q, err, text)
		}
		acc := sql.Analyze(stmt)
		if len(acc.ReadTables) == 0 {
			t.Errorf("Q%d: no read tables extracted", q)
		}
	}
}

func TestTPCHWorkloadSize(t *testing.T) {
	qs := TPCHWorkload(2208, 42)
	if len(qs) != 2208 {
		t.Fatalf("len = %d", len(qs))
	}
	// All 22 templates cycle: queries i and i+22 share a template shape.
	if qs[0][:20] != qs[22][:20] {
		t.Errorf("template cycling broken")
	}
	// Parameters vary between instantiations of the same template.
	if qs[1] == qs[23] {
		t.Error("parameters should differ across rounds")
	}
	for i, q := range qs {
		if _, err := sql.ParseOne(q); err != nil {
			t.Fatalf("query %d unparseable: %v", i, err)
		}
	}
}

func TestTPCHSchemaExecutes(t *testing.T) {
	db := engine.NewDB()
	for _, ddl := range TPCHSchema {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	if len(db.TableNames()) != 8 {
		t.Errorf("tables = %v", db.TableNames())
	}
}

func TestTPCCWorkload(t *testing.T) {
	qs := TPCCWorkload(2200, 7)
	if len(qs) != 2200 {
		t.Fatalf("len = %d", len(qs))
	}
	var sel, ins, upd, del int
	for i, q := range qs {
		stmt, err := sql.ParseOne(q)
		if err != nil {
			t.Fatalf("statement %d unparseable: %v\n%s", i, err, q)
		}
		switch stmt.(type) {
		case *sql.SelectStmt:
			sel++
		case *sql.InsertStmt:
			ins++
		case *sql.UpdateStmt:
			upd++
		case *sql.DeleteStmt:
			del++
		}
	}
	// TPC-C is write-heavy relative to TPC-H: writes must be a large
	// fraction of the mix.
	writes := ins + upd + del
	if writes*100/len(qs) < 30 {
		t.Errorf("write fraction = %d%%, too low for TPC-C", writes*100/len(qs))
	}
	if sel == 0 || ins == 0 || upd == 0 || del == 0 {
		t.Errorf("mix missing statement kinds: sel=%d ins=%d upd=%d del=%d", sel, ins, upd, del)
	}
}

func TestTPCCSchemaExecutesAndRuns(t *testing.T) {
	db := engine.NewDB()
	for _, ddl := range tpccSchema {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	// Seed minimal rows so a transaction's statements actually run.
	seed := []string{
		"INSERT INTO warehouse VALUES (1, 'w1', 0.05, 0.0)",
		"INSERT INTO district VALUES (1, 1, 'd1', 0.02, 0.0, 10001)",
		"INSERT INTO customer_t VALUES (1, 1, 1, 'SMITH', 100.0, 0.0, 0, 0)",
		"INSERT INTO item VALUES (1, 'widget', 9.99, 'data')",
		"INSERT INTO stock VALUES (1, 1, 50, 0.0, 0)",
	}
	for _, q := range seed {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	// Run a deterministic Payment transaction shape end to end.
	for _, q := range []string{
		"UPDATE warehouse SET w_ytd = w_ytd + 10.00 WHERE w_id = 1",
		"SELECT w_name FROM warehouse WHERE w_id = 1",
		"UPDATE district SET d_ytd = d_ytd + 10.00 WHERE d_id = 1 AND d_w_id = 1",
		"UPDATE customer_t SET c_balance = c_balance - 10.00 WHERE c_id = 1",
		"INSERT INTO history (h_c_id, h_d_id, h_w_id, h_date, h_amount) VALUES (1, 1, 1, '2019-06-01', 10.00)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := db.Exec("SELECT c_balance FROM customer_t WHERE c_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if boxed(res)[0][0] != 90.0 {
		t.Errorf("balance = %v", boxed(res)[0][0])
	}
}

func TestScoringTableAndPipeline(t *testing.T) {
	db := engine.NewDB()
	cfg := ScoringConfig{Rows: 3000, Seed: 5, Regions: 6, WithText: true}
	if err := LoadScoringTable(db, cfg); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table("customers")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	stats := tab.Stats()
	if len(stats["region"].Categories) != 6 {
		t.Errorf("stored regions = %d, want 6", len(stats["region"].Categories))
	}

	pipe, err := TrainScoringPipeline(4000, 6, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	// Model learns something: accuracy well above chance on a fresh draw.
	f, labels := ScoringFrame(ScoringConfig{Rows: 2000, Seed: 99, Regions: 6, WithText: true})
	pred, err := pipe.PredictBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(pred, labels); acc < 0.75 {
		t.Errorf("accuracy = %v, want >= 0.75", acc)
	}
	// The training population spans more regions than the table stores
	// (compression fodder).
	trained := map[string]bool{}
	_, _, _, _, regions, _, _ := ScoringColumns(ScoringConfig{Rows: 4000, Seed: 6, Regions: len(regionNames)})
	for _, r := range regions {
		trained[r] = true
	}
	if len(trained) <= 6 {
		t.Errorf("training regions = %d, want > 6", len(trained))
	}
}

func TestTPCHQueryPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for query 23")
		}
	}()
	TPCHQuery(23, NewTPCHParams(1))
}

func TestScoringDeterminism(t *testing.T) {
	a, _, _, _, ra, _, la := ScoringColumns(ScoringConfig{Rows: 100, Seed: 11, Regions: 4})
	b, _, _, _, rb, _, lb := ScoringColumns(ScoringConfig{Rows: 100, Seed: 11, Regions: 4})
	for i := range a {
		if a[i] != b[i] || ra[i] != rb[i] || la[i] != lb[i] {
			t.Fatal("generation is not deterministic")
		}
	}
	if !strings.HasPrefix(regionNames[0], "us") {
		t.Error("region naming changed unexpectedly")
	}
}

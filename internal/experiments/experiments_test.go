package experiments

import (
	"testing"

	"repro/internal/opt"
)

func TestFig4EnvConfigurationsAgree(t *testing.T) {
	env, err := NewFig4Env(2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	n1, err := env.RunSklearn()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := env.RunORT()
	if err != nil {
		t.Fatal(err)
	}
	n3, err := env.RunInDB(opt.LevelParallel)
	if err != nil {
		t.Fatal(err)
	}
	n4, err := env.RunInDB(opt.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	n5, err := env.RunInDB(opt.LevelUDF)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != n3 || n1 != n4 || n1 != n5 {
		t.Fatalf("configurations disagree: %d %d %d %d %d", n1, n2, n3, n4, n5)
	}
	if n1 == 0 {
		t.Fatal("degenerate workload: no qualifying rows")
	}
	if n1 == int64(env.Rows) {
		t.Fatal("degenerate workload: every row qualifies")
	}
}

func TestRunFigure4Small(t *testing.T) {
	rows, err := RunFigure4([]int{500, 1500}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sklearn <= 0 || r.ORT <= 0 || r.SONNX <= 0 || r.SONNXExt <= 0 {
			t.Errorf("non-positive timing: %+v", r)
		}
		if r.Count <= 0 {
			t.Errorf("no qualifying rows at %d", r.Rows)
		}
	}
	// Larger datasets take longer per configuration.
	if rows[1].SONNXExt < rows[0].SONNXExt {
		t.Log("note: timing inversion at tiny sizes is possible; not fatal")
	}
}

func TestRunFigure4SpeedupOrdering(t *testing.T) {
	panel, err := RunFigure4Speedup(5000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(panel) != 3 {
		t.Fatalf("panel = %+v", panel)
	}
	if panel[0].Speedup != 1.0 {
		t.Errorf("baseline speedup = %v", panel[0].Speedup)
	}
	// The optimized configuration must beat the UDF baseline clearly.
	if panel[2].Speedup < 2 {
		t.Errorf("optimized speedup = %.2fx, want >= 2x over UDF calls", panel[2].Speedup)
	}
	// And the cross-optimizer must beat plain inlining.
	if panel[2].Elapsed >= panel[1].Elapsed {
		t.Errorf("cross-opt (%v) should beat inlining (%v)", panel[2].Elapsed, panel[1].Elapsed)
	}
}

func TestRunProvenanceCaptureShape(t *testing.T) {
	rows, err := RunProvenanceCapture(220, 220)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Skipped != 0 {
			t.Errorf("%s: %d unparseable queries", r.Dataset, r.Skipped)
		}
		if r.Nodes+r.Edges == 0 {
			t.Errorf("%s: empty graph", r.Dataset)
		}
		if r.Compressed >= r.Nodes+r.Edges {
			t.Errorf("%s: compression did not shrink (%d -> %d)", r.Dataset, r.Nodes+r.Edges, r.Compressed)
		}
	}
	// Write-induced versioning: TPC-C graph is larger per query.
	perH := float64(rows[0].Nodes+rows[0].Edges) / float64(rows[0].Queries)
	perC := float64(rows[1].Nodes+rows[1].Edges) / float64(rows[1].Queries)
	if perC <= perH {
		t.Errorf("TPC-C per-query graph (%.1f) should exceed TPC-H (%.1f)", perC, perH)
	}
}

func TestEagerVsLazyBothComplete(t *testing.T) {
	queries := []string{
		"SELECT a FROM t WHERE b = 1",
		"INSERT INTO t (a) VALUES (2)",
		"UPDATE t SET a = 3 WHERE b = 4",
	}
	eager, lazy := eagerVsLazy(queries)
	if eager <= 0 || lazy <= 0 {
		t.Errorf("timings: eager=%v lazy=%v", eager, lazy)
	}
}

func TestRunPyProvCoverageMatchesPaper(t *testing.T) {
	rows := RunPyProvCoverage()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Dataset != "Kaggle" || rows[0].ModelsPct < 94 || rows[0].ModelsPct > 96 {
		t.Errorf("Kaggle models = %+v", rows[0])
	}
	if rows[0].DatasetsPct < 60 || rows[0].DatasetsPct > 63 {
		t.Errorf("Kaggle datasets = %+v", rows[0])
	}
	if rows[1].ModelsPct != 100 || rows[1].DatasetsPct != 100 {
		t.Errorf("Microsoft = %+v", rows[1])
	}
}

func TestRunFigure2Annotations(t *testing.T) {
	res := RunFigure2()
	if res.Top10Delta < 2 || res.Top10Delta > 10 {
		t.Errorf("top-10 delta = %v, want ~5", res.Top10Delta)
	}
	ratio := float64(res.Packages2019) / float64(res.Packages2017)
	if ratio < 2.2 || ratio > 3.8 {
		t.Errorf("package growth = %.2f, want ~3x", ratio)
	}
	// Curves are monotone and end at 1.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Coverage2017 < res.Rows[i-1].Coverage2017 ||
			res.Rows[i].Coverage2019 < res.Rows[i-1].Coverage2019 {
			t.Fatal("coverage not monotone")
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Coverage2019 < 0.999 {
		t.Errorf("2019 tail coverage = %v", last.Coverage2019)
	}
}

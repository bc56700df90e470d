// Package experiments contains the harnesses that regenerate every table
// and figure in the paper's evaluation. Each harness returns structured
// rows; cmd/flock-experiments prints them in the paper's layout and the
// root bench_test.go wraps them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/workload"
)

// Fig4Env is the prepared environment for the Figure-4 comparison: the
// same trained pipeline deployed four ways.
type Fig4Env struct {
	Rows  int
	DB    *engine.DB
	Pipe  *ml.Pipeline
	Graph *onnx.Graph
	Frame *ml.Frame // standalone configurations read an exported frame

	remote onnx.Scorer
	server *onnx.ScoringServer
	query  string
}

// Close shuts down the scoring service backing the standalone paths.
func (e *Fig4Env) Close() {
	if e.server != nil {
		e.server.Close()
	}
}

// fig4Models adapts a single graph as the engine's model provider.
type fig4Models struct{ g *onnx.Graph }

func (m fig4Models) GraphFor(name string) (*onnx.Graph, error) {
	if name != "churn" {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return m.g, nil
}

// Fig4Threshold and Fig4AgeCut define the scoring query's predicates: the
// age predicate is the pushdown-able relational filter, the threshold the
// fused model predicate.
const (
	Fig4Threshold = 0.5
	Fig4IncomeCut = 150000.0
)

// NewFig4Env trains the pipeline (on a superset population), loads the
// scoring table, and prepares all four scoring paths.
func NewFig4Env(rows, trees int) (*Fig4Env, error) {
	pipe, err := workload.TrainScoringPipeline(4000, 42, trees, true)
	if err != nil {
		return nil, err
	}
	g, err := onnx.Export(pipe)
	if err != nil {
		return nil, err
	}
	db := engine.NewDB()
	cfg := workload.ScoringConfig{Rows: rows, Seed: 7, Regions: 6, WithText: true}
	if err := workload.LoadScoringTable(db, cfg); err != nil {
		return nil, err
	}
	db.SetModelProvider(fig4Models{g})
	frame, _ := workload.ScoringFrame(cfg)
	// A real loopback HTTP scoring service backs both standalone ORT
	// (1000-row requests) and UDF-mode PREDICT (one request per call).
	server, err := onnx.ServeGraph(g)
	if err != nil {
		return nil, err
	}
	db.SetUDFScorerFactory(func(g2 *onnx.Graph) (onnx.Scorer, error) {
		return onnx.NewHTTPScorer(g2, server.URL, 1), nil
	})
	query := fmt.Sprintf(
		`SELECT count(*) AS n FROM customers WHERE income > %g AND PREDICT(churn, age, income, tenure, region, notes) >= %g`,
		Fig4IncomeCut, Fig4Threshold)
	return &Fig4Env{
		Rows: rows, DB: db, Pipe: pipe, Graph: g, Frame: frame,
		remote: onnx.NewHTTPScorer(g, server.URL, 1000), server: server, query: query,
	}, nil
}

// countQualifying applies the query's semantics to a standalone score
// vector (the standalone paths filter after scoring everything).
func (e *Fig4Env) countQualifying(scores []float64) int64 {
	income := e.Frame.Col("income").Nums
	var n int64
	for i, s := range scores {
		if income[i] > Fig4IncomeCut && s >= Fig4Threshold {
			n++
		}
	}
	return n
}

// RunSklearn scores via the interpreted pipeline path (the "scikit-learn"
// baseline): boxed, dynamically-dispatched, row-at-a-time featurization and
// prediction over the exported frame, then a post-hoc filter.
func (e *Fig4Env) RunSklearn() (int64, error) {
	scores, err := e.Pipe.PredictInterpreted(e.Frame)
	if err != nil {
		return 0, err
	}
	return e.countQualifying(scores), nil
}

// RunORT scores via the standalone optimized runtime behind the
// remote-scoring pipe: the data leaves the "database", is serialized in
// chunks, scored by a single-threaded session, and shipped back.
func (e *Fig4Env) RunORT() (int64, error) {
	b, err := onnx.BatchFromFrame(e.Graph, e.Frame)
	if err != nil {
		return 0, err
	}
	scores, err := e.remote.Score(b)
	if err != nil {
		return 0, err
	}
	return e.countQualifying(scores), nil
}

// RunInDB scores via the engine's PREDICT operator at the given level
// (LevelParallel = "SONNX", LevelFull = "SONNX-ext", LevelUDF = external
// UDF calls, LevelVectorized = UDF inlining only). Each call parses and
// plans the query afresh, as a client's ad hoc statement would be.
func (e *Fig4Env) RunInDB(level opt.Level) (int64, error) {
	stmt, err := sql.ParseOne(e.query)
	if err != nil {
		return 0, err
	}
	res, err := e.DB.ExecStmtContext(context.Background(), stmt, engine.ExecOptions{Level: level})
	if err != nil {
		return 0, err
	}
	return res.Cols[0].Ints[0], nil
}

// Fig4Row is one line of the Figure-4 (left) series.
type Fig4Row struct {
	Rows     int
	Sklearn  time.Duration
	ORT      time.Duration
	SONNX    time.Duration
	SONNXExt time.Duration
	Count    int64 // qualifying rows (identical across configurations)
}

// timeIt runs fn `reps` times and returns the best duration (standard
// practice for wall-clock microbenchmarks) and the result.
func timeIt(reps int, fn func() (int64, error)) (time.Duration, int64, error) {
	best := time.Duration(1<<62 - 1)
	var out int64
	for i := 0; i < reps; i++ {
		start := time.Now()
		n, err := fn()
		if err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		out = n
	}
	return best, out, nil
}

// RunFigure4 produces the left-panel series for the given dataset sizes.
func RunFigure4(sizes []int, trees, reps int) ([]Fig4Row, error) {
	if reps <= 0 {
		reps = 3
	}
	var out []Fig4Row
	for _, rows := range sizes {
		env, err := NewFig4Env(rows, trees)
		if err != nil {
			return nil, err
		}
		row := Fig4Row{Rows: rows}
		defer env.Close()
		var n1, n2, n3, n4 int64
		if row.Sklearn, n1, err = timeIt(reps, env.RunSklearn); err != nil {
			return nil, err
		}
		if row.ORT, n2, err = timeIt(reps, env.RunORT); err != nil {
			return nil, err
		}
		if row.SONNX, n3, err = timeIt(reps, func() (int64, error) { return env.RunInDB(opt.LevelParallel) }); err != nil {
			return nil, err
		}
		if row.SONNXExt, n4, err = timeIt(reps, func() (int64, error) { return env.RunInDB(opt.LevelFull) }); err != nil {
			return nil, err
		}
		if n1 != n2 || n1 != n3 || n1 != n4 {
			return nil, fmt.Errorf("experiments: configurations disagree at %d rows: %d %d %d %d", rows, n1, n2, n3, n4)
		}
		row.Count = n1
		out = append(out, row)
	}
	return out, nil
}

// SpeedupRow is one bar of the Figure-4 right panel.
type SpeedupRow struct {
	Config  string
	Elapsed time.Duration
	Speedup float64 // vs the first row
}

// RunFigure4Speedup produces the right panel at one dataset size: external
// UDF calls (baseline) vs inlined vectorized execution vs the full
// cross-optimizer.
func RunFigure4Speedup(rows, trees, reps int) ([]SpeedupRow, error) {
	if reps <= 0 {
		reps = 3
	}
	env, err := NewFig4Env(rows, trees)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	configs := []struct {
		name  string
		level opt.Level
	}{
		{"UDF calls (baseline)", opt.LevelUDF},
		{"Inline SQL (vectorized+parallel)", opt.LevelParallel},
		{"Optimized (cross-opt)", opt.LevelFull},
	}
	var out []SpeedupRow
	var counts []int64
	for _, c := range configs {
		d, n, err := timeIt(reps, func() (int64, error) { return env.RunInDB(c.level) })
		if err != nil {
			return nil, err
		}
		counts = append(counts, n)
		out = append(out, SpeedupRow{Config: c.name, Elapsed: d})
	}
	for i := range counts {
		if counts[i] != counts[0] {
			return nil, fmt.Errorf("experiments: speedup configurations disagree: %v", counts)
		}
	}
	base := out[0].Elapsed.Seconds()
	for i := range out {
		out[i].Speedup = base / out[i].Elapsed.Seconds()
	}
	return out, nil
}

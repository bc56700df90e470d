package main

// This file is the only one that reaches into the repository's internal
// packages. Everything else in the benchmark sees flock-serve's flags, HTTP
// and pkg/flockclient. A refactor that changes one of these signatures
// breaks the per-layer probes (and the Go-side expected answers), not the
// end-to-end numbers:
//
//	sql.Lex, sql.ParseOne, sql.FormatStatement
//	engine.DB.PlanSelect, engine.DB.ExecPlanContext, engine.ExecOptions,
//	engine.ExecCounters, engine.DB.SetPredictPlane
//	core.New, core.OpenDir, core.Flock.Prepare, core.Flock.ExecPrepared,
//	core.Flock.Exec, core.Flock.DeployPipeline, core.Flock.EnableInferPlane,
//	core.Flock.Prov.CaptureStmt
//	infer.New, infer.Plane.Score
//	onnx.Export, onnx.NewLocalScorer, onnx.Batch
//	workload.ScoringColumns, workload.LoadScoringTable,
//	workload.TrainScoringPipeline

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/sql"
	scoring "repro/internal/workload"
	"repro/pkg/flockclient"
)

const probeUser = "bench-probe"

// scoringConfig is the customers table exactly as flock-serve loads it.
var scoringConfig = scoring.ScoringConfig{Rows: customerRows, Seed: customerSeed, Regions: 6, WithText: true}

// truth is the customers table, and optionally every row's churn score,
// computed in this process without the engine: the independent answer the
// measured responses are checked against.
type truth struct {
	ids                  []int64
	ages, income, tenure []float64
	regions, notes       []string
	// pipe and scores are nil unless asked for; scores[i] belongs to id i+1.
	pipe   *ml.Pipeline
	graph  *onnx.Graph
	scores []float64
}

// loadTruth regenerates the customers columns and, when withModel is set,
// retrains the churn pipeline the way flock-serve does at boot and scores
// every row with the native scorer.
func loadTruth(withModel bool) (*truth, error) {
	t := &truth{}
	t.ids, t.ages, t.income, t.tenure, t.regions, t.notes, _ = scoring.ScoringColumns(scoringConfig)
	if !withModel {
		return t, nil
	}
	var err error
	if t.pipe, err = scoring.TrainScoringPipeline(4000, 42, 50, true); err != nil {
		return nil, fmt.Errorf("training the reference pipeline: %w", err)
	}
	if t.graph, err = onnx.Export(t.pipe); err != nil {
		return nil, err
	}
	scorer, err := onnx.NewLocalScorer(t.graph)
	if err != nil {
		return nil, err
	}
	t.scores = make([]float64, customerRows)
	const chunk = 8192
	var wg sync.WaitGroup
	errs := make([]error, (customerRows+chunk-1)/chunk)
	sem := make(chan struct{}, runtime.NumCPU())
	for i, lo := 0, 0; lo < customerRows; i, lo = i+1, lo+chunk {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := scorer.Score(t.batch(lo, hi))
			if err != nil {
				errs[i] = err
				return
			}
			copy(t.scores[lo:hi], out)
		}(i, lo, min(lo+chunk, customerRows))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scoring the reference rows: %w", err)
		}
	}
	return t, nil
}

// batch is rows [lo, hi) as the model's five input columns.
func (t *truth) batch(lo, hi int) *onnx.Batch {
	return &onnx.Batch{N: hi - lo, Cols: []onnx.Column{
		{Nums: t.ages[lo:hi]}, {Nums: t.income[lo:hi]}, {Nums: t.tenure[lo:hi]},
		{Strs: t.regions[lo:hi]}, {Strs: t.notes[lo:hi]},
	}}
}

// scanRange returns a cursor check: the n rows from index lo, all six
// columns, every value equal to the generated one.
func (t *truth) scanRange(lo, n int) func(*flockclient.Rows) error {
	return func(rows *flockclient.Rows) error {
		var (
			id                  int64
			age, income, tenure float64
			region, notes       string
		)
		i := lo
		for rows.Next() {
			if err := rows.Scan(&id, &age, &income, &tenure, &region, &notes); err != nil {
				return err
			}
			if i >= lo+n {
				return fmt.Errorf("more than %d rows", n)
			}
			if id != t.ids[i] || age != t.ages[i] || income != t.income[i] || tenure != t.tenure[i] ||
				region != t.regions[i] || notes != t.notes[i] {
				return fmt.Errorf("row %d is (%d, %v, %v, %v, %q, %q), want (%d, %v, %v, %v, %q, %q)", i-lo,
					id, age, income, tenure, region, notes,
					t.ids[i], t.ages[i], t.income[i], t.tenure[i], t.regions[i], t.notes[i])
			}
			i++
		}
		if err := rows.Err(); err != nil {
			return err
		}
		if i != lo+n {
			return fmt.Errorf("got %d rows, want %d", i-lo, n)
		}
		return nil
	}
}

// probeStatements is the fixed sample the probes replay: the first
// probeOps statements of client 0's schedule for this seed.
func probeStatements(w *workload, seed uint64, clients int, t *truth) []string {
	next := w.plan(seed, clients, t).clients[0]
	out := make([]string, w.probeOps)
	for i := range out {
		out[i] = next().sql
	}
	return out
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// perCallUS times reps calls of f and returns the mean per call.
func perCallUS(reps int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return usSince(t0) / float64(reps)
}

// mallocsOf counts heap allocations during f. Nothing else runs in the
// process while the probes do; for the call the collector is held off (a
// collection empties sync.Pools, and refilling them allocates) and the
// process runs on one P (pools are per P), so the count repeats exactly.
func mallocsOf(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// p50 is the nearest-rank median of xs, so a median count stays a whole number.
func p50(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// runProbes replays stmts through each layer's public functions on an
// in-process Flock holding the same tables, and times the layers that no
// statement sample reaches (WAL commit, inference plane, native scorer).
func runProbes(w *workload, cfg runConfig, load, stmts []string, t *truth) (map[string]float64, error) {
	ctx := context.Background()
	flock, err := core.New()
	if err != nil {
		return nil, err
	}
	flock.Access.AssignRole(probeUser, "admin")
	if err := scoring.LoadScoringTable(flock.DB, scoringConfig); err != nil {
		return nil, err
	}
	if _, err := flock.DeployPipeline(probeUser, "churn", t.pipe, core.TrainingInfo{Script: "flock-bench probe", Tables: []string{"customers"}}); err != nil {
		return nil, err
	}
	plane := flock.EnableInferPlane(infer.Config{}) // flock-serve's defaults
	defer flock.DisableInferPlane()
	for _, s := range load {
		if _, err := flock.Exec(probeUser, s); err != nil {
			return nil, fmt.Errorf("loading in-process: %.60s...: %w", s, err)
		}
	}

	var lex, parse, parseAllocs, plans, planAllocs, planPredict []float64
	var prepared, capture, exec, execAllocs, governance []float64
	var serialUS, parallelUS, scanned, rowsOut float64
	full := engine.ExecOptions{Level: opt.LevelFull}
	for _, s := range stmts {
		lex = append(lex, perCallUS(20, func() { _, _ = sql.Lex(s) }))
		parse = append(parse, perCallUS(20, func() { _, _ = sql.ParseOne(s) }))
		parseAllocs = append(parseAllocs, mallocsOf(func() { _, _ = sql.ParseOne(s) }))
		stmt, err := sql.ParseOne(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		text := sql.FormatStatement(stmt)
		capture = append(capture, perCallUS(1, func() { flock.Prov.CaptureStmt(stmt, text, probeUser) }))

		// The governed path first, plane on and caches cold for this
		// statement: what the server does for a request it has not seen.
		prep, err := flock.Prepare(s, opt.LevelFull)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		t0 := time.Now()
		if _, err := flock.ExecPrepared(ctx, probeUser, prep); err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		prepared = append(prepared, usSince(t0))

		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			continue // DML has no plan to time and must not run twice
		}
		var plan *opt.Plan
		us := perCallUS(3, func() { plan, err = flock.DB.PlanSelect(sel, opt.LevelFull) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		plans = append(plans, us)
		if strings.Contains(s, "PREDICT(") {
			planPredict = append(planPredict, us)
		}
		planAllocs = append(planAllocs, mallocsOf(func() { _, _ = flock.DB.PlanSelect(sel, opt.LevelFull) }))

		// Engine alone, plane off: the score cache the governed run just
		// filled would otherwise answer the repeats, and the batcher's
		// goroutines would make the allocation count vary.
		flock.DB.SetPredictPlane(nil)
		var counters engine.ExecCounters
		withCounters := full
		withCounters.Counters = &counters
		t0 = time.Now()
		rs, err := flock.DB.ExecPlanContext(ctx, plan, withCounters)
		parUS := usSince(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		exec = append(exec, parUS)
		scanned += float64(counters.RowsScanned.Load())
		rowsOut += float64(max(rs.N, 1))
		serial := full
		serial.Parallelism = 1
		var serUS float64
		execAllocs = append(execAllocs, mallocsOf(func() {
			t0 := time.Now()
			_, err = flock.DB.ExecPlanContext(ctx, plan, serial)
			serUS = usSince(t0)
		}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		serialUS += serUS
		parallelUS += parUS
		t0 = time.Now()
		_, err = flock.ExecPrepared(ctx, probeUser, prep)
		governance = append(governance, usSince(t0)-parUS)
		flock.DB.SetPredictPlane(plane)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	nproc := float64(runtime.NumCPU())
	m := map[string]float64{
		"sql.lex_us":                  p50(lex),
		"sql.parse_us":                p50(parse),
		"sql.parse_allocs":            p50(parseAllocs),
		"opt.plan_us":                 p50(plans),
		"opt.plan_allocs":             p50(planAllocs),
		"opt.plan_predict_us":         p50(planPredict),
		"core.exec_prepared_us":       p50(prepared),
		"core.governance_overhead_us": p50(governance),
		"provenance.capture_us":       p50(capture),
		"engine.exec_us":              p50(exec),
		"engine.exec_allocs":          p50(execAllocs),
	}
	if rowsOut > 0 {
		m["engine.rows_scanned_per_row_out"] = scanned / rowsOut
	}
	if parallelUS > 0 {
		m["engine.parallel_efficiency"] = serialUS / (parallelUS * nproc)
	}
	if err := probeWAL(ctx, cfg.workDir, m); err != nil {
		return nil, err
	}
	if err := probeScoring(ctx, flock, t, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeWAL times a one-row INSERT commit with and without the fsync.
func probeWAL(ctx context.Context, workDir string, m map[string]float64) error {
	const commits = 40
	for _, c := range []struct {
		key  string
		sync bool
		unit float64 // microseconds per reported unit
	}{{"wal.commit_sync_ms", true, 1000}, {"wal.commit_nosync_us", false, 1}} {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		flock, dur, err := core.OpenDir(dir, core.DurabilityOptions{WALSync: c.sync})
		if err != nil {
			return err
		}
		flock.Access.AssignRole(probeUser, "admin")
		if _, err := flock.ExecContext(ctx, probeUser, "CREATE TABLE probe (id int, amount float)"); err != nil {
			return err
		}
		var lat []float64
		for i := 0; i < commits; i++ {
			t0 := time.Now()
			if _, err := flock.ExecContext(ctx, probeUser, fmt.Sprintf("INSERT INTO probe VALUES (%d, 1.5)", i)); err != nil {
				return err
			}
			lat = append(lat, usSince(t0))
		}
		m[c.key] = p50(lat) / c.unit
		if err := dur.Close(); err != nil {
			return fmt.Errorf("closing the WAL probe directory: %w", err)
		}
	}
	return nil
}

// probeScoring times a fresh inference plane (miss, hit, and a batch at
// its bypass bound) and the native scorer under it.
func probeScoring(ctx context.Context, flock *core.Flock, t *truth, m map[string]float64) error {
	g, err := flock.Models.GraphFor("churn")
	if err != nil {
		return err
	}
	plane := infer.New(flock.Models, infer.Config{})
	defer plane.Close()
	out := make([]float64, 256)
	score := func(lo, n int) (float64, error) {
		t0 := time.Now()
		err := plane.Score(ctx, "churn", g, t.batch(lo, lo+n), out[:n])
		return usSince(t0), err
	}
	var miss, hit, batch []float64
	for i := 0; i < 30; i++ {
		us, err := score(i, 1) // never scored by this plane before
		if err != nil {
			return err
		}
		miss = append(miss, us)
	}
	for i := 0; i < 200; i++ {
		us, err := score(i%30, 1)
		if err != nil {
			return err
		}
		hit = append(hit, us)
	}
	for i := 0; i < 10; i++ {
		us, err := score(1000+i*256, 256)
		if err != nil {
			return err
		}
		batch = append(batch, us)
	}
	m["infer.score_1row_miss_us"] = p50(miss)
	m["infer.score_1row_hit_us"] = p50(hit)
	m["infer.score_256rows_us"] = p50(batch)

	scorer, err := onnx.NewLocalScorer(g)
	if err != nil {
		return err
	}
	var one, rate []float64
	for i := 0; i < 200; i++ {
		b := t.batch(i, i+1)
		t0 := time.Now()
		if _, err := scorer.Score(b); err != nil {
			return err
		}
		one = append(one, usSince(t0))
	}
	const rows = 40000
	for i := 0; i < 3; i++ {
		b := t.batch(i*rows, (i+1)*rows)
		t0 := time.Now()
		if _, err := scorer.Score(b); err != nil {
			return err
		}
		rate = append(rate, rows/time.Since(t0).Seconds())
	}
	m["onnx.direct_1row_us"] = p50(one)
	m["onnx.score_rows_per_s"] = p50(rate)
	return nil
}

// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks, plus ablations for the design
// choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-4 benchmarks report the qualifying-row count as a sanity metric;
// provenance benchmarks report graph sizes (nodes+edges).
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/governance"
	"repro/internal/notebooks"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/provenance"
	"repro/internal/pyprov"
	sqlpkg "repro/internal/sql"
	"repro/internal/workload"
)

// fig4Envs caches one environment per dataset size across benchmarks.
var (
	fig4Mu   sync.Mutex
	fig4Envs = map[int]*experiments.Fig4Env{}
)

const fig4Trees = 100

// execText parses one statement and runs it on db under o, unlogged, as an
// ad hoc statement pays parse and plan on every call.
func execText(db *engine.DB, q string, o engine.ExecOptions) (*engine.Result, error) {
	stmt, err := sqlpkg.ParseOne(q)
	if err != nil {
		return nil, err
	}
	return db.ExecStmtContext(context.Background(), stmt, o)
}

func fig4Env(b *testing.B, rows int) *experiments.Fig4Env {
	b.Helper()
	fig4Mu.Lock()
	defer fig4Mu.Unlock()
	env, ok := fig4Envs[rows]
	if !ok {
		var err error
		env, err = experiments.NewFig4Env(rows, fig4Trees)
		if err != nil {
			b.Fatal(err)
		}
		fig4Envs[rows] = env
	}
	return env
}

var fig4Sizes = []int{1000, 10000, 100000, 1000000}

// BenchmarkFigure4InferenceTime is the Figure-4 left panel: total inference
// time per configuration and dataset size.
func BenchmarkFigure4InferenceTime(b *testing.B) {
	configs := []struct {
		name string
		run  func(*experiments.Fig4Env) (int64, error)
	}{
		{"sklearn", func(e *experiments.Fig4Env) (int64, error) { return e.RunSklearn() }},
		{"ORT", func(e *experiments.Fig4Env) (int64, error) { return e.RunORT() }},
		{"SONNX", func(e *experiments.Fig4Env) (int64, error) { return e.RunInDB(opt.LevelParallel) }},
		{"SONNXext", func(e *experiments.Fig4Env) (int64, error) { return e.RunInDB(opt.LevelFull) }},
	}
	for _, cfg := range configs {
		for _, rows := range fig4Sizes {
			b.Run(fmt.Sprintf("%s/rows=%d", cfg.name, rows), func(b *testing.B) {
				env := fig4Env(b, rows)
				var count int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := cfg.run(env)
					if err != nil {
						b.Fatal(err)
					}
					count = n
				}
				b.ReportMetric(float64(count), "qualifying-rows")
			})
		}
	}
}

// BenchmarkFigure4Speedup is the right panel: the same query at 100K rows
// under increasing optimization levels (UDF baseline -> inlined -> full
// cross-optimization).
func BenchmarkFigure4Speedup(b *testing.B) {
	levels := []struct {
		name  string
		level opt.Level
	}{
		{"UDFBaseline", opt.LevelUDF},
		{"InlineSQL", opt.LevelParallel},
		{"Optimized", opt.LevelFull},
	}
	for _, l := range levels {
		b.Run(l.name, func(b *testing.B) {
			env := fig4Env(b, 100000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.RunInDB(l.level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProvenanceCapture is Table 1: eager capture latency and graph
// size over the TPC-H and TPC-C workloads.
func BenchmarkProvenanceCapture(b *testing.B) {
	for _, w := range []struct {
		name    string
		queries []string
	}{
		{"TPCH", workload.TPCHWorkload(2208, 1)},
		{"TPCC", workload.TPCCWorkload(2200, 2)},
	} {
		b.Run(w.name, func(b *testing.B) {
			var nodes, edges int
			for i := 0; i < b.N; i++ {
				catalog := provenance.NewCatalog()
				tracker := provenance.NewSQLTracker(catalog)
				for _, q := range w.queries {
					if _, err := tracker.CaptureQuery(q, "bench"); err != nil {
						b.Fatal(err)
					}
				}
				nodes, edges = catalog.Size()
			}
			b.ReportMetric(float64(nodes+edges), "graph-size")
			b.ReportMetric(float64(len(w.queries)), "queries")
		})
	}
}

// BenchmarkProvenanceEagerVsLazy is the capture-mode ablation.
func BenchmarkProvenanceEagerVsLazy(b *testing.B) {
	queries := workload.TPCHWorkload(500, 3)
	log := make([]governance.AuditEntry, len(queries))
	for i, q := range queries {
		log[i] = governance.AuditEntry{Seq: int64(i + 1), User: "u", Detail: q, Allowed: true}
	}
	b.Run("Eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracker := provenance.NewSQLTracker(provenance.NewCatalog())
			for _, q := range queries {
				if _, err := tracker.CaptureQuery(q, "u"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracker := provenance.NewSQLTracker(provenance.NewCatalog())
			if captured, _ := tracker.CaptureLog(log); captured != len(queries) {
				b.Fatal("lazy capture missed queries")
			}
		}
	})
}

// BenchmarkProvenanceCompression is the graph-compression ablation.
func BenchmarkProvenanceCompression(b *testing.B) {
	catalog := provenance.NewCatalog()
	tracker := provenance.NewSQLTracker(catalog)
	for _, q := range workload.TPCHWorkload(1000, 4) {
		if _, err := tracker.CaptureQuery(q, "u"); err != nil {
			b.Fatal(err)
		}
	}
	var after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compressed, _ := provenance.Compress(catalog)
		n, e := compressed.Size()
		after = n + e
	}
	nb, eb := catalog.Size()
	b.ReportMetric(float64(nb+eb), "size-before")
	b.ReportMetric(float64(after), "size-after")
}

// BenchmarkPyProvCoverage is Table 2: analyzer throughput over the two
// corpora, reporting the coverage percentages as metrics.
func BenchmarkPyProvCoverage(b *testing.B) {
	for _, c := range []struct {
		name   string
		corpus []pyprov.Script
	}{
		{"Kaggle", pyprov.KaggleCorpus()},
		{"Microsoft", pyprov.MicrosoftCorpus()},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := pyprov.NewAnalyzer()
			var rep pyprov.CoverageReport
			for i := 0; i < b.N; i++ {
				rep = pyprov.EvaluateCoverage(a, c.corpus)
			}
			b.ReportMetric(rep.ModelPct(), "models-pct")
			b.ReportMetric(rep.DatasetPct(), "datasets-pct")
		})
	}
}

// BenchmarkFigure2NotebookCoverage regenerates the notebook study,
// reporting the top-10 coverage of each corpus.
func BenchmarkFigure2NotebookCoverage(b *testing.B) {
	for _, gen := range []struct {
		name string
		make func() *notebooks.Corpus
	}{
		{"2017", notebooks.Corpus2017},
		{"2019", notebooks.Corpus2019},
	} {
		b.Run(gen.name, func(b *testing.B) {
			var top10 float64
			for i := 0; i < b.N; i++ {
				c := gen.make()
				top10 = c.Coverage([]int{10})[0]
			}
			b.ReportMetric(top10*100, "top10-coverage-pct")
		})
	}
}

// BenchmarkAblationRowVsVectorized compares in-process row-at-a-time vs
// vectorized prediction. In compiled Go the two are nearly equal — which
// localizes the UDF-inlining win of Figure 4 (right) in the per-call
// marshalling, not the arithmetic (see EXPERIMENTS.md).
func BenchmarkAblationRowVsVectorized(b *testing.B) {
	env := fig4Env(b, 10000)
	b.Run("RowAtATime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Pipe.Predict(env.Frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Pipe.PredictBatch(env.Frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelism sweeps the engine's worker count over the
// in-DB scoring query (on a single-core host the sweep is flat — that is
// the finding, not a bug).
func BenchmarkAblationParallelism(b *testing.B) {
	env := fig4Env(b, 100000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := execText(env.DB,
					`SELECT count(*) AS n FROM customers WHERE PREDICT(churn, age, income, tenure, region, notes) >= 0.5`,
					engine.ExecOptions{Level: opt.LevelParallel, Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkAblationPruning isolates model-input pruning + compression: the
// same vectorized scoring with and without the cross-optimizer's model
// rewrites (no threshold in the query, so push-up does not apply). On this
// dense GBM the passes are neutral; they exist for sparse models and must
// at minimum never regress correctness or performance materially.
func BenchmarkAblationPruning(b *testing.B) {
	env := fig4Env(b, 100000)
	const q = `SELECT avg(PREDICT(churn, age, income, tenure, region, notes)) AS s FROM customers`
	for _, cfg := range []struct {
		name  string
		level opt.Level
	}{
		{"Off", opt.LevelParallel},
		{"On", opt.LevelFull},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execText(env.DB, q, engine.ExecOptions{Level: cfg.level}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompression measures stats-driven tree compression in
// isolation at the graph level: session throughput before and after
// CompressWithStats.
func BenchmarkAblationCompression(b *testing.B) {
	env := fig4Env(b, 10000)
	batch, err := onnx.BatchFromFrame(env.Graph, env.Frame)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, g *onnx.Graph, batch *onnx.Batch) {
		sess, err := onnx.NewSession(g)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, batch.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.RunInto(batch, out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Uncompressed", func(b *testing.B) { run(b, env.Graph, batch) })
	b.Run("Compressed", func(b *testing.B) {
		g := env.Graph.Clone()
		tab, err := env.DB.Table("customers")
		if err != nil {
			b.Fatal(err)
		}
		res := onnx.CompressWithStats(g, tab.Stats())
		b.ReportMetric(float64(res.NodesBefore), "tree-nodes-before")
		b.ReportMetric(float64(res.NodesAfter), "tree-nodes-after")
		cb, err := onnx.BatchFromFrame(g, env.Frame)
		if err != nil {
			b.Fatal(err)
		}
		run(b, g, cb)
	})
}

// BenchmarkAblationWireFormat compares the remote-scoring wire formats
// (binary vs JSON/REST) that separate SONNX from the standalone paths.
func BenchmarkAblationWireFormat(b *testing.B) {
	env := fig4Env(b, 10000)
	batch, err := onnx.BatchFromFrame(env.Graph, env.Frame)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Binary", func(b *testing.B) {
		rs, err := onnx.NewRemoteScorer(env.Graph, 1000)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := rs.Score(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JSON", func(b *testing.B) {
		rs, err := onnx.NewRemoteScorerJSON(env.Graph, 1000)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := rs.Score(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTPCHExecution measures the engine end to end on the executable
// TPC-H template subset over generated data (scale 1: 1,500 orders).
func BenchmarkTPCHExecution(b *testing.B) {
	db := engine.NewDB()
	if err := workload.LoadTPCH(db, 1); err != nil {
		b.Fatal(err)
	}
	p := workload.NewTPCHParams(1)
	queries := map[int]string{}
	for _, q := range workload.ExecutableTPCHQueries {
		queries[q] = workload.TPCHQuery(q, p)
	}
	for _, q := range workload.ExecutableTPCHQueries {
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(queries[q]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotPersistence measures durable snapshot save/load of the
// Figure-4 table (the durability requirement of §4.2).
func BenchmarkSnapshotPersistence(b *testing.B) {
	env := fig4Env(b, 100000)
	b.Run("Save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := env.DB.SaveSnapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	var snap bytes.Buffer
	if err := env.DB.SaveSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	blob := snap.Bytes()
	b.Run("Load", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			db := engine.NewDB()
			if err := db.LoadSnapshot(bytesReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }

// ---- morsel-parallel operator benchmarks ----
//
// 1M-row inputs at workers=1 vs 8: the morsel queue's speedup target is
// ≥2× for GROUP BY and hash join at 8 workers on a multicore host. On a
// single-core host the sweep is flat — that is the finding, not a bug.

const parallelBenchRows = 1_000_000

var (
	parallelBenchMu sync.Mutex
	parallelBenchDB *engine.DB
)

// benchParallelDBGet builds (once) a 1M-row events table and a 100K-row
// dims table from a deterministic LCG, so before/after runs see identical
// data.
func benchParallelDBGet(b *testing.B) *engine.DB {
	b.Helper()
	parallelBenchMu.Lock()
	defer parallelBenchMu.Unlock()
	if parallelBenchDB != nil {
		return parallelBenchDB
	}
	db := engine.NewDB()
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	n := parallelBenchRows
	ids := make([]int64, n)
	grps := make([]int64, n)
	vals := make([]float64, n)
	cats := make([]string, n)
	catNames := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		grps[i] = int64(next() % 10_000)
		vals[i] = float64(next()%1_000_000) / 1000.0
		cats[i] = catNames[next()%8]
	}
	if _, err := db.CreateTableFromColumns("events",
		[]string{"id", "grp", "val", "cat"},
		[]engine.Column{
			engine.IntColumn(ids), engine.IntColumn(grps),
			engine.FloatColumn(vals), engine.StringColumn(cats),
		}); err != nil {
		b.Fatal(err)
	}
	const dimRows = 100_000
	ks := make([]int64, dimRows)
	names := make([]string, dimRows)
	for i := 0; i < dimRows; i++ {
		ks[i] = int64(i) // unique keys: every probe row matches exactly once
		names[i] = fmt.Sprintf("dim-%d", i)
	}
	if _, err := db.CreateTableFromColumns("dims",
		[]string{"k", "name"},
		[]engine.Column{engine.IntColumn(ks), engine.StringColumn(names)}); err != nil {
		b.Fatal(err)
	}
	parallelBenchDB = db
	return db
}

// benchExecParallel runs q at each worker count as sub-benchmarks.
func benchExecParallel(b *testing.B, q string, wantRows int) {
	b.Helper()
	db := benchParallelDBGet(b)
	stmt, err := sqlpkg.ParseOne(q)
	if err != nil {
		b.Fatal(err)
	}
	sel, ok := stmt.(*sqlpkg.SelectStmt)
	if !ok {
		b.Fatalf("query %q is not a SELECT", q)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := engine.ExecOptions{Level: opt.LevelParallel, Parallelism: workers}
			res, err := db.ExecStmtContext(context.Background(), sel, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.N != wantRows {
				b.Fatalf("query %q: %d rows, want %d", q, res.N, wantRows)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecStmtContext(context.Background(), sel, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGroupBy: 1M rows into 10K groups with thread-local
// pre-aggregation and a merge phase.
func BenchmarkParallelGroupBy(b *testing.B) {
	benchExecParallel(b,
		`SELECT grp, count(*) AS n, sum(val) AS s, min(val) AS lo, max(val) AS hi
			FROM events GROUP BY grp`,
		10_000)
}

// BenchmarkParallelHashJoin: radix-partitioned parallel build over 100K
// dims, morsel-parallel probe over 1M events (one match per probe row,
// reduced by a count).
func BenchmarkParallelHashJoin(b *testing.B) {
	benchExecParallel(b,
		`SELECT count(*) AS n FROM events e JOIN dims d ON e.grp = d.k`,
		1)
}

// BenchmarkParallelDistinct: 80K distinct (cat, grp) pairs out of 1M rows.
func BenchmarkParallelDistinct(b *testing.B) {
	benchExecParallel(b, `SELECT DISTINCT cat, grp FROM events`, 80_000)
}

// BenchmarkParallelDistinctAgg: count(DISTINCT) and sum(DISTINCT) over 1M
// rows into 10K groups — per-worker value sets, a union at the merge, and a
// sorted fold for the sum.
func BenchmarkParallelDistinctAgg(b *testing.B) {
	benchExecParallel(b,
		`SELECT grp, count(DISTINCT cat) AS dc, sum(DISTINCT val) AS ds FROM events GROUP BY grp`,
		10_000)
}

// BenchmarkParallelSort: chunk sorts + pairwise merges over 1M rows.
func BenchmarkParallelSort(b *testing.B) {
	benchExecParallel(b, `SELECT val, id FROM events ORDER BY val, id`, parallelBenchRows)
}

// BenchmarkParallelFilter: skewed predicate over 1M rows through the morsel
// queue (contiguous ranges would idle workers on the cheap half).
func BenchmarkParallelFilter(b *testing.B) {
	benchExecParallel(b,
		`SELECT count(*) AS n FROM events WHERE val > 990.0 AND cat <> 'zeta'`,
		1)
}

// BenchmarkWALGroupCommit measures committed-DML throughput under the
// always-fsync policy at increasing writer concurrency: group commit turns
// N per-commit fsyncs into ~1 per batch, so throughput should rise steeply
// with writers while per-commit durability is unchanged.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			db, _, err := engine.OpenDirDB(dir, true)
			if err != nil {
				b.Fatal(err)
			}
			defer db.CloseDurability()
			if _, err := db.Exec(`CREATE TABLE bench_writes (w int, i int)`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := (b.N + writers - 1) / writers
			var failed atomic.Bool
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q := fmt.Sprintf("INSERT INTO bench_writes VALUES (%d, %d)", w, i)
						if _, err := db.Exec(q); err != nil {
							failed.Store(true)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("a concurrent INSERT failed")
			}
			syncs, records := db.WALGroupCommitStats()
			if syncs > 0 {
				b.ReportMetric(float64(records)/float64(syncs), "records/fsync")
			}
		})
	}
}

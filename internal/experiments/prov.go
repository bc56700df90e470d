package experiments

import (
	"time"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/pyprov"
	"repro/internal/workload"
)

// ProvRow is one line of the SQL-provenance capture table (Table 1).
type ProvRow struct {
	Dataset    string
	Queries    int
	Latency    time.Duration
	Nodes      int
	Edges      int
	Skipped    int
	Compressed int // nodes+edges after compression
}

// RunProvenanceCapture reproduces the paper's table: eager capture of the
// TPC-H and TPC-C workloads, reporting capture latency and provenance
// graph size (nodes+edges), plus the effect of template compression.
func RunProvenanceCapture(tpchQueries, tpccQueries int) ([]ProvRow, error) {
	var out []ProvRow
	for _, w := range []struct {
		name    string
		queries []string
	}{
		{"TPC-H", workload.TPCHWorkload(tpchQueries, 1)},
		{"TPC-C", workload.TPCCWorkload(tpccQueries, 2)},
	} {
		catalog := provenance.NewCatalog()
		tracker := provenance.NewSQLTracker(catalog)
		start := time.Now()
		skipped := 0
		for _, q := range w.queries {
			if _, err := tracker.CaptureQuery(q, "loader"); err != nil {
				skipped++
			}
		}
		elapsed := time.Since(start)
		nodes, edges := catalog.Size()
		compressed, _ := provenance.Compress(catalog)
		cn, ce := compressed.Size()
		out = append(out, ProvRow{
			Dataset: w.name, Queries: len(w.queries), Latency: elapsed,
			Nodes: nodes, Edges: edges, Skipped: skipped, Compressed: cn + ce,
		})
	}
	return out, nil
}

// eagerVsLazy compares per-query eager capture against batch lazy capture
// from a query log (ablation).
func eagerVsLazy(queries []string) (eager, lazy time.Duration) {
	catalog := provenance.NewCatalog()
	tracker := provenance.NewSQLTracker(catalog)
	start := time.Now()
	for _, q := range queries {
		_, _ = tracker.CaptureQuery(q, "u")
	}
	eager = time.Since(start)

	log := make([]engine.LogEntry, len(queries))
	for i, q := range queries {
		log[i] = engine.LogEntry{Seq: int64(i + 1), Text: q, User: "u"}
	}
	catalog2 := provenance.NewCatalog()
	tracker2 := provenance.NewSQLTracker(catalog2)
	start = time.Now()
	tracker2.CaptureLog(log)
	lazy = time.Since(start)
	return eager, lazy
}

// PyProvRow is one line of the Python-provenance coverage table (Table 2).
type PyProvRow struct {
	Dataset     string
	Scripts     int
	ModelsPct   float64
	DatasetsPct float64
}

// RunPyProvCoverage reproduces the coverage table over the two corpora.
func RunPyProvCoverage() []PyProvRow {
	a := pyprov.NewAnalyzer()
	k := pyprov.EvaluateCoverage(a, pyprov.KaggleCorpus())
	m := pyprov.EvaluateCoverage(a, pyprov.MicrosoftCorpus())
	return []PyProvRow{
		{Dataset: "Kaggle", Scripts: k.Scripts, ModelsPct: k.ModelPct(), DatasetsPct: k.DatasetPct()},
		{Dataset: "Microsoft", Scripts: m.Scripts, ModelsPct: m.ModelPct(), DatasetsPct: m.DatasetPct()},
	}
}

package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeTruth is the real customers columns with made-up scores: schedules
// only need scores to exist, and training the model takes a second.
func fakeTruth(t *testing.T) *truth {
	t.Helper()
	tr, err := loadTruth(false)
	if err != nil {
		t.Fatal(err)
	}
	tr.scores = make([]float64, customerRows)
	for i := range tr.scores {
		tr.scores[i] = float64(i%1000) / 1000
	}
	return tr
}

// firstOps draws n operations from every client of a plan, one from each
// client in turn, the way clients of equal speed would.
func firstOps(p *plan, n int) [][]*op {
	out := make([][]*op, len(p.clients))
	for i := 0; i < n; i++ {
		for c, next := range p.clients {
			out[c] = append(out[c], next())
		}
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	tr := fakeTruth(t)
	const clients, n = 2, 700 // beyond predict_point's priming and several rounds of every pool
	for _, w := range workloads {
		a := firstOps(w.plan(1, clients, tr), n)
		b := firstOps(w.plan(1, clients, tr), n)
		other := firstOps(w.plan(2, clients, tr), n)
		differs := false
		for c := range a {
			for i := range a[c] {
				if a[c][i].sql != b[c][i].sql {
					t.Fatalf("%s client %d op %d: same seed gave %q then %q", w.name, c, i, a[c][i].sql, b[c][i].sql)
				}
				if a[c][i].template != other[c][i].template {
					t.Fatalf("%s client %d op %d: template %q at seed 1 but %q at seed 2", w.name, c, i, a[c][i].template, other[c][i].template)
				}
				differs = differs || a[c][i].sql != other[c][i].sql
			}
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 gave the same statements", w.name)
		}
		if strings.Join(w.loadSQL(1), ";") != strings.Join(w.loadSQL(1), ";") {
			t.Errorf("%s: load statements differ between two calls with one seed", w.name)
		}
	}
}

func TestPredictPointPathIsFixedByPosition(t *testing.T) {
	tr := fakeTruth(t)
	const clients = 2
	const n = 2000
	ops := firstOps(planPredictPoint(3, clients, tr), n)
	seen := map[string]string{} // sql -> template of its first request
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		for c := 0; c < clients; c++ {
			o := ops[c][i]
			first, again := seen[o.sql]
			switch {
			case o.template == "hit" && (first != "prime" || o.fresh):
				t.Fatalf("client %d op %d: hit on %q, first requested as %q, fresh %t", c, i, o.sql, first, o.fresh)
			case o.template != "hit" && (again || !o.fresh):
				t.Fatalf("client %d op %d: %s re-requests %q (first %q) or is not marked fresh", c, i, o.template, o.sql, first)
			}
			if !again {
				seen[o.sql] = o.template
			}
			counts[o.template]++
		}
	}
	if counts["prime"] != hotSet {
		t.Errorf("primed %d ids, want %d", counts["prime"], hotSet)
	}
	steady := float64(counts["hit"]) / float64(counts["hit"]+counts["miss"])
	if math.Abs(steady-0.2) > 0.01 {
		t.Errorf("hits are %.3f of steady-state ops, want 0.2", steady)
	}
}

func TestWriteMixedRoundIsSeventyThirty(t *testing.T) {
	reads := 0
	for _, k := range writeRound {
		if strings.HasPrefix(k, "read_") {
			reads++
		}
	}
	if reads != 7 || len(writeRound) != 10 {
		t.Fatalf("round has %d reads of %d ops, want 7 of 10", reads, len(writeRound))
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := samplesBeyond(200, 0.95); got != 10 {
		t.Errorf("samplesBeyond(200, .95) = %d, want 10", got)
	}
	if got := samplesBeyond(199, 0.95); got != 9 {
		t.Errorf("samplesBeyond(199, .95) = %d, want 9", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBestSlicesPicksEachMetricsOwnBestSlice(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	// Three 2 s slices. Slice 0: 4 ops, fast, dear in CPU. Slice 1: 2 ops,
	// slow. Slice 2: 5 ops with one straggler, cheap in CPU.
	ops := []opSample{
		{sec(0.5), 1}, {sec(1.0), 1}, {sec(1.5), 1}, {sec(1.9), 2},
		{sec(2.5), 9}, {sec(3.5), 9},
		{sec(4.2), 3}, {sec(4.4), 3}, {sec(4.6), 3}, {sec(4.8), 3}, {sec(5.9), 50},
		{sec(6.0), 1}, // completed as the window closed: in no slice
	}
	marks := []sliceMark{{sec(0), 100}, {sec(2), 180}, {sec(4), 200}, {sec(6), 210}}
	got := bestSlices(ops, marks)
	want := windowStats{opsPerS: 2.5, p50MS: 1, p95MS: 2, cpuMSPerOp: 20, p95Samples: 4}
	if got != want {
		t.Errorf("bestSlices = %+v, want %+v", got, want)
	}
	// An empty slice is passed over, not reported as a zero.
	got = bestSlices(ops[4:6], marks)
	if got.opsPerS != 1 || got.p50MS != 9 || got.p95Samples != 2 {
		t.Errorf("bestSlices with empty slices = %+v", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestParsePromOnCapturedMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "metrics_leader.txt"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseProm(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`flock_query_seconds_count{kind="dml"}`:            33,
		`flock_query_seconds_sum{kind="dml"}`:              1.1090164509999998,
		`flock_query_seconds_bucket{kind="dml",le="+Inf"}`: 33,
		`flock_repl_ack_lsn{follower="127.0.0.1:18081"}`:   73,
		`flock_repl_ship_bytes_total`:                      2.681768e+06,
		`flock_plan_cache_events_total{event="eviction"}`:  0,
		`flock_wal_group_commit_batch`:                     0.9743589743589743,
		`flock_monitor_psi{model="churn"}`:                 0.031521736113840286,
		`flock_admission_wait_seconds_bucket{le="0.0005"}`: 0,
		`flock_queries_total{status="ok"}`:                 38,
	} {
		got, ok := m[key]
		if !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", key, got, ok, want)
		}
	}
	if got := m.maxWithPrefix("flock_repl_ack_lsn"); got != 73 {
		t.Errorf("maxWithPrefix = %v, want 73", got)
	}

	later := promSample{}
	for k, v := range m {
		later[k] = v
	}
	later[`flock_query_seconds_count{kind="dml"}`] += 10
	later[`flock_query_seconds_sum{kind="dml"}`] += 0.5
	d := promDelta{m, later}
	if got := d.ratio(`flock_query_seconds_sum{kind="dml"}`, `flock_query_seconds_count{kind="dml"}`); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("delta ratio = %v, want 0.05", got)
	}
	if got := d.ratio(`flock_query_seconds_sum{kind="select"}`, `flock_query_seconds_count{kind="select"}`); got != 0 {
		t.Errorf("ratio over an unmoved denominator = %v, want 0", got)
	}

	if _, err := parseProm(strings.NewReader("flock_x notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed without error")
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"lower metric got 5% worse, bound 10%", steady, []float64{105, 106, 104, 105, 105}, "lower", verdictWithin},
		{"lower metric got 20% worse", steady, []float64{120, 121, 119, 120, 120}, "lower", verdictRegression},
		{"lower metric improved", steady, []float64{50, 51, 49, 50, 50}, "lower", verdictWithin},
		{"higher metric dropped 20%", steady, []float64{80, 81, 79, 80, 80}, "higher", verdictRegression},
		{"higher metric rose", steady, []float64{130, 131, 129, 130, 130}, "higher", verdictWithin},
		{"spread wider than the bound", steady, []float64{70, 100, 130, 85, 115}, "lower", verdictUnresolved},
		{"single runs have no spread", []float64{100}, []float64{125}, "lower", verdictRegression},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsFlagsOnlyRegressions(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	mk := func(p50 float64) *report {
		return &report{Runs: []*runResult{{Workload: "short_read",
			EndToEnd: map[string]metric{"latency_p50_ms": {p50, "ms"}},
			PerLayer: map[string]metric{"sdk.exec_p50_ms": {p50, "ms"}}}}}
	}
	var out bytes.Buffer
	if compareReports(&out, mk(1), mk(1.01), &bench) {
		t.Errorf("a 1%% change was flagged:\n%s", out.String())
	}
	out.Reset()
	if !compareReports(&out, mk(1), mk(2), &bench) {
		t.Errorf("a doubled latency was not flagged:\n%s", out.String())
	}
	for _, want := range []string{"short_read", "latency_p50_ms", verdictRegression, "sdk.exec_p50_ms"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestCellEqual(t *testing.T) {
	for _, c := range []struct {
		a, b any
		want bool
	}{
		{int64(3), int64(3), true},
		{int64(3), int64(4), false},
		{int64(100), 100.0, true}, // the SDK decodes "100" from a float column as int64
		{0.1 + 0.2, 0.3, true},    // within 1e-9 relative
		{1.0, 1.0 + 1e-6, false},
		{"a", "a", true},
		{"a", "b", false},
		{"1", int64(1), false},
		{nil, nil, true},
		{nil, int64(0), false},
	} {
		if got := cellEqual(c.a, c.b); got != c.want {
			t.Errorf("cellEqual(%#v, %#v) = %t, want %t", c.a, c.b, got, c.want)
		}
	}
	if err := compareRows([][]any{{int64(1)}}, nil); err == nil {
		t.Error("a result with no expected answer compared equal")
	}
	if err := compareRows([][]any{{int64(1)}, {int64(2)}}, [][]any{{int64(2)}, {int64(1)}}); err == nil {
		t.Error("rows in the wrong order compared equal")
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (flock serve) x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 123 45 0 0 20 0 9 0 100 200 300\n")
	if got, err := parseStatTicks(stat); err != nil || got != 168 {
		t.Errorf("parseStatTicks = %d, %v; want 168", got, err)
	}
	if _, err := parseStatTicks([]byte("garbage")); err == nil {
		t.Error("garbage stat parsed")
	}
	status := []byte("Name:\tflock-serve\nVmPeak:\t  999 kB\nVmHWM:\t   67716 kB\nVmRSS:\t 100 kB\n")
	if got, err := parseVmHWM(status); err != nil || got != 67716 {
		t.Errorf("parseVmHWM = %d, %v; want 67716", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

// BENCHMARK.json is the contract later PRs are held to; the program's own
// metric and workload lists must say the same thing.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bench.Workloads[i].Name, bench.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(bench.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(bench.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		m := bench.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > bench.EndToEnd[len(bench.EndToEnd)-1].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(bench.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		m := bench.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// The smoke test boots the real flock-serve, so it runs only without -short.
func TestSmokeShortReadEndToEndAndTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots flock-serve; skipped with -short")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(benchDir, "..", ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	workDir, err := os.MkdirTemp(filepath.Join(benchDir, "..", ".bench_build"), "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	serveBin, _, err := buildServe(benchDir, workDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAllClusters()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, workloadByName("short_read"), runConfig{
		seed: 1, window: time.Second, e2e: true, trace: true, serveBin: serveBin, workDir: workDir,
		spansOut: filepath.Join(workDir, "spans.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minWindowOps {
		t.Fatalf("correct %t, failed %d of %d attempted; errors %v", res.Correct, res.Failed, res.Attempted, res.Errors)
	}
	for _, d := range endToEndMetrics {
		if m, ok := res.EndToEnd[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("end-to-end %s = %+v (present %t), want a positive %s", d.name, m, ok, d.unit)
		}
	}
	for _, d := range perLayerMetrics {
		if m, ok := res.PerLayer[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("per-layer %s = %+v (present %t), want unit %s", d.name, m, ok, d.unit)
		}
	}
	for _, name := range []string{"sdk.exec_p50_ms", "server.http_overhead_us", "server.query_ms_mean", "server.plancache_hit_ratio",
		"sql.parse_us", "opt.plan_us", "engine.exec_us", "core.exec_prepared_us", "wal.commit_sync_ms", "infer.score_1row_miss_us", "onnx.score_rows_per_s"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("per-layer %s = %v on short_read, want it measured", name, res.PerLayer[name].Value)
		}
	}
	if st, err := os.Stat(filepath.Join(workDir, "spans.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("spans were not written: %v", err)
	}
	entries, err := os.ReadDir(workDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("data dir %s was left behind", e.Name())
		}
	}
}

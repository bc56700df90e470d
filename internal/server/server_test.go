package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/monitor"
	"repro/internal/onnx"
	"repro/internal/repl"
	"repro/internal/workload"
)

// newTestFlock builds a Flock with the scoring table and a deployed churn
// model: PREDICT(churn, age, income, tenure, region).
func newTestFlock(t testing.TB, rows int) *core.Flock {
	t.Helper()
	f, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	f.Access.AssignRole("root", "admin")
	if err := workload.LoadScoringTable(f.DB, workload.ScoringConfig{
		Rows: rows, Seed: 7, Regions: 6,
	}); err != nil {
		t.Fatal(err)
	}
	pipe, err := workload.TrainScoringPipeline(500, 42, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeployPipeline("root", "churn", pipe, core.TrainingInfo{
		Script: "server_test", Tables: []string{"customers"},
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

func newTestServer(t testing.TB, rows int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.OnSession == nil {
		flock := newTestFlock(t, rows)
		cfg.OnSession = func(user string) { flock.Access.AssignRole(user, "admin") }
		s := New(flock, cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		return s, ts
	}
	panic("unused")
}

func postJSON(t testing.TB, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 && json.Valid(raw) {
		_ = json.Unmarshal(raw, &out)
	} else if len(raw) > 0 {
		out = map[string]any{"_raw": string(raw)}
	}
	return resp, out
}

func openSession(t testing.TB, baseURL, user string) string {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/sessions", map[string]string{"user": user})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %v", resp.StatusCode, body)
	}
	return body["session"].(string)
}

func TestSessionLifecycleAndAuth(t *testing.T) {
	flock := newTestFlock(t, 100)
	s := New(flock, Config{
		Authenticate: StaticTokenAuth(map[string]string{"alice": "s3cret"}),
		OnSession:    func(user string) { flock.Access.AssignRole(user, "admin") },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Bad token rejected.
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"user": "alice", "token": "wrong"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: want 401, got %d", resp.StatusCode)
	}
	// Good token admitted.
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"user": "alice", "token": "s3cret"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good token: want 200, got %d", resp.StatusCode)
	}
	sid := body["session"].(string)

	// Session works...
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: want 200, got %d %v", resp.StatusCode, body)
	}
	// ...until deleted.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", dresp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("closed session: want 401, got %d", resp.StatusCode)
	}
	// The login attempts are on the audit trail.
	denied, granted := false, false
	for _, e := range flock.Audit.Entries() {
		if e.Action == "login" {
			if e.Allowed {
				granted = true
			} else {
				denied = true
			}
		}
	}
	if !denied || !granted {
		t.Fatalf("audit trail missing login records (denied=%t granted=%t)", denied, granted)
	}
}

func TestQueryGovernanceDenied(t *testing.T) {
	flock := newTestFlock(t, 100)
	// No OnSession role grant: the user has no permissions at all.
	s := New(flock, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	sid := openSession(t, ts.URL, "mallory")
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("want 403 for ungranted user, got %d %v", resp.StatusCode, body)
	}
}

func TestDegenerateSQLReturns400(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	sid := openSession(t, ts.URL, "alice")
	for _, sql := range []string{";", "", "   "} {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": sql})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sql %q: want 400, got %d %v", sql, resp.StatusCode, body)
		}
	}
}

func TestPrepareGovernanceDenied(t *testing.T) {
	flock := newTestFlock(t, 100)
	s := New(flock, Config{}) // no role grant: user has no permissions
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	sid := openSession(t, ts.URL, "mallory")
	resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("want 403 preparing without grants, got %d %v", resp.StatusCode, body)
	}
	denied := false
	for _, e := range flock.Audit.Entries() {
		if e.User == "mallory" && e.Action == "denied" {
			denied = true
		}
	}
	if !denied {
		t.Fatal("denied prepare missing from audit log")
	}
	// The same cached entry must also be refused when another user without
	// grants hits it after an authorized user planned it.
	flock.Access.AssignRole("alice", "admin")
	aid := openSession(t, ts.URL, "alice")
	if resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": aid, "sql": "SELECT count(*) FROM customers"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized prepare failed: %d %v", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cache hit bypassed governance: got %d", resp.StatusCode)
	}
}

// TestStreamIsRefused pins the answer to the retired NDJSON mode: a body
// asking for "stream": true gets a 400 that names the cursor protocol on
// both routes, never a response in some other shape.
func TestStreamIsRefused(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	sid := openSession(t, ts.URL, "alice")
	const sql = "SELECT id FROM customers ORDER BY id LIMIT 5"
	resp, prepared := postJSON(t, ts.URL+"/v1/prepare", map[string]any{"session": sid, "sql": sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %v", resp.StatusCode, prepared)
	}
	for _, c := range []struct{ route, key, val string }{
		{"/v1/query", "sql", sql},
		{"/v1/exec", "stmt", prepared["stmt"].(string)},
	} {
		resp, body := postJSON(t, ts.URL+c.route, map[string]any{"session": sid, c.key: c.val, "stream": true})
		if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "/v1/cursor/fetch") {
			t.Errorf("%s with stream: %d %v, want 400 naming the cursor protocol", c.route, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+c.route, map[string]any{"session": sid, c.key: c.val, "stream": false})
		if rows, _ := body["rows"].([]any); resp.StatusCode != http.StatusOK || len(rows) != 5 {
			t.Errorf("%s with stream false: %d %v", c.route, resp.StatusCode, body)
		}
	}
}

// countingReader yields n bytes of one JSON string body and counts what
// was read.
type countingReader struct {
	n, read int
}

func (r *countingReader) Read(p []byte) (int, error) {
	if r.read >= r.n {
		return 0, io.EOF
	}
	k := min(len(p), r.n-r.read)
	for i := range k {
		p[i] = 'a'
	}
	if r.read == 0 && k > 0 {
		p[0] = '"'
	}
	r.read += k
	return k, nil
}

// TestOversizedBodyIsRefused sends a 64 MB /v1/query body: the server
// answers 413 after reading about maxBodyBytes of it, not the whole body.
func TestOversizedBodyIsRefused(t *testing.T) {
	s, _ := newTestServer(t, 10, Config{})
	body := &countingReader{n: 64 << 20}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", body)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("64 MB body: %d %s, want 413", rec.Code, rec.Body)
	}
	if body.read > 2*maxBodyBytes {
		t.Fatalf("the server read %d bytes of a refused body, cap %d", body.read, maxBodyBytes)
	}
}

// TestConcurrentSessions is the headline integration test: N parallel
// sessions issuing mixed SELECT / PREDICT / DML traffic, with the race
// detector watching the whole serving + engine + governance stack.
func TestConcurrentSessions(t *testing.T) {
	s, ts := newTestServer(t, 2000, Config{MaxWorkers: 8, MaxQueue: 256})
	const workers = 16
	const iters = 10

	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sid := openSession(t, ts.URL, fmt.Sprintf("user%d", w))
			for i := 0; i < iters; i++ {
				var sql string
				switch i % 4 {
				case 0:
					sql = "SELECT count(*), avg(age) FROM customers"
				case 1:
					sql = "SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM customers WHERE id < 50"
				case 2:
					sql = fmt.Sprintf("INSERT INTO customers VALUES (%d, 30.0, 50000.0, 2.0, 'us-east')", 100000+w*1000+i)
				case 3:
					sql = "SELECT region, count(*) FROM customers GROUP BY region ORDER BY region"
				}
				resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": sql})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d iter %d: %d %v", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if idx := s.flock.Audit.Verify(); idx != -1 {
		t.Fatalf("audit chain corrupted at %d", idx)
	}
}

// gatedScorer blocks scoring until released (or the query is canceled),
// simulating a slow/hung model service behind UDF-mode PREDICT.
type gatedScorer struct {
	started chan struct{} // buffered; one token per scoring call
	release chan struct{}
}

func (g *gatedScorer) Score(b *onnx.Batch) ([]float64, error) {
	return g.ScoreContext(context.Background(), b)
}

func (g *gatedScorer) ScoreContext(ctx context.Context, b *onnx.Batch) ([]float64, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
		return make([]float64, b.N), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

const predictUDFSQL = "SELECT PREDICT(churn, age, income, tenure, region) FROM customers"

// TestCancellationOnSessionClose proves a canceled query unwinds: a query
// wedged on a hung scorer (which never returns on its own) answers 499 once
// its session is closed, with its worker slot given back. The timeout is a
// hang guard only.
func TestCancellationOnSessionClose(t *testing.T) {
	s, ts := newTestServer(t, 200, Config{})
	gate := &gatedScorer{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(gate.release)
	s.flock.DB.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) { return gate, nil })

	sid := openSession(t, ts.URL, "alice")
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": predictUDFSQL, "level": "udf"})
		done <- resp.StatusCode
	}()

	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the scorer")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	select {
	case code := <-done:
		if code != 499 {
			t.Fatalf("want 499 for canceled query, got %d", code)
		}
		if n := s.adm.inflight.Load(); n != 0 {
			t.Fatalf("%d worker slots still held after the canceled query answered", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled query's handler never returned")
	}
}

// TestQueryDeadline: a query wedged on a hung scorer answers 504 at its
// deadline, with its worker slot given back.
func TestQueryDeadline(t *testing.T) {
	s, ts := newTestServer(t, 200, Config{})
	gate := &gatedScorer{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(gate.release)
	s.flock.DB.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) { return gate, nil })

	sid := openSession(t, ts.URL, "alice")
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": predictUDFSQL, "level": "udf", "timeout_ms": 100})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504 on deadline, got %d %v", resp.StatusCode, body)
	}
	if n := s.adm.inflight.Load(); n != 0 {
		t.Fatalf("%d worker slots still held after the deadline answered", n)
	}
}

func TestAdmissionControlRejectsOverload(t *testing.T) {
	s, ts := newTestServer(t, 200, Config{MaxWorkers: 1, MaxQueue: 1})
	gate := &gatedScorer{started: make(chan struct{}, 8), release: make(chan struct{})}
	s.flock.DB.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) { return gate, nil })
	sid := openSession(t, ts.URL, "alice")

	codes := make(chan int, 3)
	var wg sync.WaitGroup
	// First query occupies the worker slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": predictUDFSQL, "level": "udf"})
		codes <- resp.StatusCode
	}()
	<-gate.started

	// Second and third: one queues, one must be rejected with 503.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{
				"session": sid, "sql": predictUDFSQL, "level": "udf"})
			codes <- resp.StatusCode
		}()
	}
	// Give both stragglers time to hit admission before releasing.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queued.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	wg.Wait()
	close(codes)

	var ok, rejected int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if rejected != 1 || ok != 2 {
		t.Fatalf("want 2 ok + 1 rejected, got %d ok + %d rejected", ok, rejected)
	}
	// The rejection is visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "flock_admission_rejected_total 1") {
		t.Fatal("admission rejection not exported on /metrics")
	}
}

func TestPreparedExecReflectsWrites(t *testing.T) {
	s, ts := newTestServer(t, 100, Config{})
	sid := openSession(t, ts.URL, "alice")

	resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %v", resp.StatusCode, body)
	}
	stmt := body["stmt"].(string)
	if body["cached"].(bool) {
		t.Fatal("first prepare cannot be a cache hit")
	}

	count := func() float64 {
		resp, body := postJSON(t, ts.URL+"/v1/exec", map[string]any{"session": sid, "stmt": stmt})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exec: %d %v", resp.StatusCode, body)
		}
		return body["rows"].([]any)[0].([]any)[0].(float64)
	}
	before := count()
	resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "INSERT INTO customers VALUES (99999, 30.0, 50000.0, 2.0, 'us-east')"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %v", resp.StatusCode, body)
	}
	if after := count(); after != before+1 {
		t.Fatalf("prepared plan served stale data: before=%v after=%v", before, after)
	}

	// Re-preparing the same SQL hits the plan cache.
	resp, body = postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusOK || !body["cached"].(bool) {
		t.Fatalf("second prepare should be a cache hit: %d %v", resp.StatusCode, body)
	}
	_ = s
}

// TestPlanCacheEviction: the plan cache holds PlanCacheSize statements;
// preparing one more evicts the least recently used, whose handle then
// answers 404 "re-prepare", and re-preparing its text restores the same
// deterministic handle as a fresh (uncached) plan.
func TestPlanCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{PlanCacheSize: 2})
	sid := openSession(t, ts.URL, "alice")
	prepare := func(sql string) map[string]any {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{"session": sid, "sql": sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare %q: %d %v", sql, resp.StatusCode, body)
		}
		return body
	}
	texts := []string{
		"SELECT count(*) FROM customers",
		"SELECT max(age) FROM customers",
		"SELECT min(age) FROM customers",
	}
	first := prepare(texts[0])["stmt"].(string)
	prepare(texts[1])
	prepare(texts[2])

	resp, body := postJSON(t, ts.URL+"/v1/exec", map[string]any{"session": sid, "stmt": first})
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(fmt.Sprint(body["error"]), "re-prepare") {
		t.Fatalf("exec on an evicted handle: %d %v, want 404 re-prepare", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := gaugeValue(t, string(raw), `flock_plan_cache_events_total{event="eviction"}`); n != 1 {
		t.Errorf("evictions = %v, want 1", n)
	}
	if n := gaugeValue(t, string(raw), "flock_plan_cache_entries"); n != 2 {
		t.Errorf("entries = %v, want 2", n)
	}
	again := prepare(texts[0])
	if again["stmt"] != first || again["cached"] != false {
		t.Fatalf("re-prepare of an evicted text: %v, want stmt %s uncached", again, first)
	}
}

// testMonitors builds score monitors for models with enough window to
// compute PSI.
func testMonitors(t testing.TB, models ...string) []*monitor.ScoreMonitor {
	t.Helper()
	base := make([]float64, 100)
	window := make([]float64, 60)
	for i := range base {
		base[i] = float64(i) / 100
	}
	for i := range window {
		window[i] = float64(i) / 60
	}
	var mons []*monitor.ScoreMonitor
	for _, model := range models {
		mon, err := monitor.NewScoreMonitor(model, base, 1000)
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(window...)
		mons = append(mons, mon)
	}
	return mons
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{Monitors: testMonitors(t, "churn", "fraud")})
	sid := openSession(t, ts.URL, "alice")
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": "SELECT count(*) FROM customers"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`flock_query_seconds_count{kind="select"} 3`,
		`flock_query_seconds_bucket{kind="select",le="+Inf"} 3`,
		`flock_queries_total{status="ok"} 3`,
		"flock_admission_wait_seconds_count",
		"flock_sessions_active 1",
		`flock_monitor_psi{model="churn"}`,
		`flock_monitor_psi{model="fraud"}`,
		`flock_monitor_drift_status{model="churn"}`,
		"flock_exec_workers",
		"flock_wal_group_commit_batch",
		"flock_wal_group_commit_syncs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Prometheus exposition requires exactly one TYPE line per family even
	// with several labeled series.
	if n := strings.Count(text, "# TYPE flock_monitor_psi gauge"); n != 1 {
		t.Errorf("want exactly 1 TYPE line for flock_monitor_psi, got %d", n)
	}
}

// TestPrepareAuditsParseFailure: unparseable SQL leaves the same "parse"
// audit record for its user on /v1/prepare as on /v1/query.
func TestPrepareAuditsParseFailure(t *testing.T) {
	s, ts := newTestServer(t, 50, Config{})
	sid := openSession(t, ts.URL, "alice")
	for _, route := range []string{"/v1/prepare", "/v1/query"} {
		before := s.flock.Audit.Len()
		resp, body := postJSON(t, ts.URL+route, map[string]any{"session": sid, "sql": "SELEC id FROM customers"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400 for bad SQL, got %d %v", route, resp.StatusCode, body)
		}
		entries := s.flock.Audit.Entries()[before:]
		if len(entries) != 1 || entries[0].User != "alice" || entries[0].Action != "parse" || entries[0].Allowed {
			t.Fatalf("%s: audit grew by %+v, want one failed parse record for alice", route, entries)
		}
	}
}

// queryFamilies reads the flock_query_seconds_count series by kind.
func queryFamilies(t *testing.T, base string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(metricsBody(t, base), "\n") {
		rest, ok := strings.CutPrefix(line, `flock_query_seconds_count{kind="`)
		if !ok {
			continue
		}
		kind, v, _ := strings.Cut(rest, `"} `)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = f
	}
	return out
}

// TestLatencyFamilies pins which flock_query_seconds family a request
// lands in: "select" when every statement is a SELECT (whatever precedes
// it), "dml" otherwise, "other" for a parse failure, and nothing for a
// cursor over a non-SELECT, which both endpoints refuse alike.
func TestLatencyFamilies(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	sid := openSession(t, ts.URL, "alice")
	prepare := func(sql string) string {
		resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{"session": sid, "sql": sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prepare %q: %d %v", sql, resp.StatusCode, body)
		}
		return body["stmt"].(string)
	}
	sel := prepare("SELECT count(*) FROM customers")
	ins := prepare("INSERT INTO customers VALUES (9001, 30.0, 50000.0, 2.0, 'us-east')")

	const refused = "cursor requires a single SELECT statement"
	cases := []struct {
		name, route, key, val string
		cursor                bool
		status                int
		family                string // "" = no family grows
	}{
		{"comment before SELECT", "/v1/query", "sql", "-- note\nSELECT count(*) FROM customers", false, http.StatusOK, "select"},
		{"SELECT then INSERT", "/v1/query", "sql",
			"SELECT count(*) FROM customers; INSERT INTO customers VALUES (9002, 30.0, 50000.0, 2.0, 'us-east')",
			false, http.StatusOK, "dml"},
		{"parse failure", "/v1/query", "sql", "SELEC count(*) FROM customers", false, http.StatusBadRequest, "other"},
		{"prepared SELECT", "/v1/exec", "stmt", sel, false, http.StatusOK, "select"},
		{"prepared INSERT", "/v1/exec", "stmt", ins, false, http.StatusOK, "dml"},
		{"cursor on INSERT", "/v1/query", "sql",
			"INSERT INTO customers VALUES (9003, 30.0, 50000.0, 2.0, 'us-east')", true, http.StatusBadRequest, ""},
		{"cursor on prepared INSERT", "/v1/exec", "stmt", ins, true, http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		before := queryFamilies(t, ts.URL)
		resp, body := postJSON(t, ts.URL+c.route, map[string]any{"session": sid, c.key: c.val, "cursor": c.cursor})
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d %v, want %d", c.name, resp.StatusCode, body, c.status)
		}
		if c.cursor && body["error"] != refused {
			t.Errorf("%s: error %q, want %q", c.name, body["error"], refused)
		}
		after := queryFamilies(t, ts.URL)
		for _, kind := range queryKinds {
			want := 0.0
			if kind == c.family {
				want = 1
			}
			if got := after[kind] - before[kind]; got != want {
				t.Errorf("%s: family %q grew by %v, want %v", c.name, kind, got, want)
			}
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	flock := newTestFlock(t, 100)
	s := New(flock, Config{OnSession: func(user string) { flock.Access.AssignRole(user, "admin") }})
	go func() {
		if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + s.Addr()
	sid := openSession(t, base, "alice")
	resp, body := postJSON(t, base+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query before shutdown: %d %v", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown not clean: %v", err)
	}
	if _, err := http.Post(base+"/v1/query", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func BenchmarkServerConcurrent(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			_, ts := newTestServer(b, 10000, Config{MaxWorkers: 16, MaxQueue: 1024})
			sids := make([]string, clients)
			for i := range sids {
				sids[i] = openSession(b, ts.URL, fmt.Sprintf("bench%d", i))
			}
			payloads := make([][]byte, clients)
			for i := range payloads {
				payloads[i], _ = json.Marshal(map[string]any{
					"session": sids[i],
					"sql":     "SELECT count(*) FROM customers WHERE age > 40 AND income > 60000",
				})
			}
			var wg sync.WaitGroup
			per := (b.N + clients - 1) / clients
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					client := &http.Client{}
					for i := 0; i < per; i++ {
						resp, err := client.Post(ts.URL+"/v1/query", "application/json",
							bytes.NewReader(payloads[c]))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			total := float64(per * clients)
			b.ReportMetric(total/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// TestWiringParity pins what New wires from Config, against a zero Config
// and one naming every subsystem: each route answers as it did when the
// subsystems were attached after New (an absent one's routes are the mux's
// 404; reopen is always there), each gauge family is on /metrics exactly
// when its dependency is, and /readyz reports the Ready error with the
// node's role and epoch.
func TestWiringParity(t *testing.T) {
	notReady := errors.New("replica: 9 frames behind the leader (max 1)")
	for _, full := range []bool{false, true} {
		t.Run(fmt.Sprintf("full=%v", full), func(t *testing.T) {
			var flock *core.Flock
			var cfg Config
			if full {
				f, dur, err := core.OpenDir(t.TempDir(), core.DurabilityOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = dur.Close() })
				flock = f
				cfg = Config{
					Durability: dur,
					Infer:      flock.EnableInferPlane(infer.Config{}),
					Repl:       repl.NewLeaderNode(flock.DB, repl.NodeOptions{}),
					Monitors:   testMonitors(t, "churn", "fraud"),
					Ready:      func() error { return notReady },
				}
				t.Cleanup(flock.DisableInferPlane)
			} else {
				flock = newTestFlock(t, 10)
			}
			cfg.OnSession = func(user string) { flock.Access.AssignRole(user, "admin") }
			s := New(flock, cfg)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				_ = s.Shutdown(context.Background())
			})
			sid := openSession(t, ts.URL, "root")

			const notFound = "404 page not found\n" // the mux's: no such route
			for _, rt := range []struct {
				method, path string
				body         map[string]any
				zero, full   int
			}{
				{"POST", "/v1/admin/reopen", map[string]any{"session": sid}, http.StatusServiceUnavailable, http.StatusOK},
				{"POST", "/v1/admin/promote", map[string]any{"session": sid}, http.StatusNotFound, http.StatusOK},
				{"POST", "/v1/admin/repoint", map[string]any{"session": sid}, http.StatusNotFound, http.StatusBadRequest},
				{"POST", "/v1/admin/infer/status", map[string]any{"session": sid}, http.StatusNotFound, http.StatusOK},
				{"POST", "/v1/admin/infer/deploy", map[string]any{"session": sid, "stage": "yolo"}, http.StatusNotFound, http.StatusBadRequest},
				{"POST", "/v1/admin/infer/promote", map[string]any{"session": sid, "model": "ghost"}, http.StatusNotFound, http.StatusBadRequest},
				{"POST", "/v1/admin/infer/rollback", map[string]any{"session": sid, "model": "ghost"}, http.StatusNotFound, http.StatusBadRequest},
				{"GET", "/v1/repl/status", nil, http.StatusNotFound, http.StatusOK},
				{"POST", "/v1/repl/wal", map[string]any{}, http.StatusNotFound, http.StatusConflict},
				{"POST", "/v1/repl/ack", map[string]any{}, http.StatusNotFound, http.StatusBadRequest},
			} {
				buf, _ := json.Marshal(rt.body)
				req, _ := http.NewRequest(rt.method, ts.URL+rt.path, bytes.NewReader(buf))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want, mounted := rt.zero, rt.path == "/v1/admin/reopen"
				if full {
					want, mounted = rt.full, true
				}
				if resp.StatusCode != want || mounted == (string(raw) == notFound) {
					t.Errorf("%s %s: %d %q, want %d (mounted=%v)", rt.method, rt.path, resp.StatusCode, raw, want, mounted)
				}
			}

			scrape := func() string {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				return string(raw)
			}
			text := scrape()
			for _, family := range []string{
				"\nflock_wal_bytes ", "\n# TYPE flock_wal_bytes gauge", "\nflock_checkpoint_age_seconds ",
				"\nflock_checkpoints_total ", "\nflock_recovery_seconds ",
				"\nflock_infer_", "\nflock_repl_",
				"\nflock_monitor_psi{model=\"churn\"} ", "\nflock_monitor_psi{model=\"fraud\"} ",
			} {
				if strings.Contains(text, family) != full {
					t.Errorf("/metrics has %q = %v, want %v", strings.TrimSpace(family), !full, full)
				}
			}
			if full {
				// Gauges are read per scrape, and reopen is the durability
				// subsystem's: it counted the reopen above as a checkpoint.
				before := gaugeValue(t, text, "flock_checkpoints_total")
				if resp, body := postJSON(t, ts.URL+"/v1/admin/reopen", map[string]any{"session": sid}); resp.StatusCode != http.StatusOK {
					t.Fatalf("reopen: %d %v", resp.StatusCode, body)
				}
				if after := gaugeValue(t, scrape(), "flock_checkpoints_total"); after != before+1 {
					t.Errorf("flock_checkpoints_total %v -> %v across a reopen, want +1", before, after)
				}
			}

			resp, body := getJSON(t, ts.URL+"/readyz")
			if full {
				if resp.StatusCode != http.StatusServiceUnavailable || body["reason"] != notReady.Error() ||
					body["role"] != "leader" || body["epoch"] == nil {
					t.Errorf("/readyz: %d %v, want 503 naming the Ready error, role and epoch", resp.StatusCode, body)
				}
			} else if _, hasRole := body["role"]; resp.StatusCode != http.StatusOK || hasRole {
				t.Errorf("/readyz: %d %v, want 200 without a role", resp.StatusCode, body)
			}
		})
	}
}

// gaugeValue reads one unlabeled gauge from a /metrics body.
func gaugeValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

func getJSON(t testing.TB, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

package server

// Serving-layer failure-mode tests: a poisoned WAL flips the instance to
// read-only degraded mode (visible on /readyz and /metrics, curable over
// POST /v1/admin/reopen), and a dead scoring backend fails PREDICT fast
// through the circuit breaker instead of hanging queries — then heals via
// the half-open probe once the backend returns.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/onnx"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestDegradedModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	flock, dur, err := core.OpenDir(dir, core.DurabilityOptions{WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	flock.Access.AssignRole("root", "admin")
	s := New(flock, Config{OnSession: func(u string) { flock.Access.AssignRole(u, "admin") }, Durability: dur})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	sid := openSession(t, ts.URL, "root")

	exec := func(sql string) (int, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": sql})
		return resp.StatusCode, body
	}
	if code, body := exec("CREATE TABLE t (id int)"); code != http.StatusOK {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, body := exec("INSERT INTO t VALUES (1)"); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d", code)
	}

	// Disk starts eating fsyncs: the next commit poisons the WAL.
	fault.Reset()
	fault.Enable("wal.fsync", fault.Spec{})
	defer fault.Reset()
	code, body := exec("INSERT INTO t VALUES (2)")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("poisoning insert: %d %v, want 503", code, body)
	}
	fault.Reset()

	// Degraded: not ready, but alive — and reads still serve.
	if code, raw := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(raw, "degraded") {
		t.Fatalf("degraded /readyz = %d %q", code, raw)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("degraded /healthz = %d (liveness must not flap on a bad disk)", code)
	}
	if code, body := exec("SELECT count(*) FROM t"); code != http.StatusOK {
		t.Fatalf("degraded read: %d %v", code, body)
	}
	if code, body := exec("INSERT INTO t VALUES (3)"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body["error"].(string), "read-only") {
		t.Fatalf("degraded write: %d %v, want 503 read-only", code, body)
	}
	// Retry-After accompanies the 503 so clients back off instead of spinning.
	resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": "INSERT INTO t VALUES (3)"})
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	if code, raw := getBody(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(raw, "flock_degraded_mode 1") || !strings.Contains(raw, "flock_wal_poisoned 1") {
		t.Fatalf("degraded /metrics missing gauges (code %d):\n%s", code, raw)
	}

	// Operator recovery: fold memory into a fresh snapshot + WAL.
	resp, rbody := postJSON(t, ts.URL+"/v1/admin/reopen", map[string]any{"session": sid})
	if resp.StatusCode != http.StatusOK || rbody["was_degraded"] != true {
		t.Fatalf("admin reopen: %d %v", resp.StatusCode, rbody)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("post-reopen /readyz = %d", code)
	}
	if code, body := exec("INSERT INTO t VALUES (4)"); code != http.StatusOK {
		t.Fatalf("post-reopen insert: %d %v", code, body)
	}
	// Nothing acked was lost across degradation + reopen. Expected rows:
	// the two acked inserts (1, 4) plus the poisoning insert 2 — its frame
	// was installed before the failed fsync, so it stays visible (and the
	// reopen snapshot, a superset of all acked writes, preserved it). The
	// gated degraded-mode inserts never installed anything.
	if code, body := exec("SELECT count(*) FROM t"); code != http.StatusOK || body["rows"] == nil {
		t.Fatalf("final read: %d %v", code, body)
	} else if n := body["rows"].([]any)[0].([]any)[0].(float64); n != 3 {
		t.Fatalf("rows = %v, want 3", n)
	}
}

// TestPredictBreakerFailsFastAndHeals pins the breaker behavior end to end:
// a down scoring backend makes PREDICT fail fast with 502 (no fallback
// configured), and once the backend returns, the half-open probe restores
// service without a restart.
func TestPredictBreakerFailsFastAndHeals(t *testing.T) {
	s, ts := newTestServer(t, 100, Config{})
	t.Cleanup(onnx.ResetBreakers)

	// A backend whose health we control: 503 while down, real scoring when up.
	var down atomic.Bool
	down.Store(true)
	var hits atomic.Int64
	var scoring *onnx.ScoringServer
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if down.Load() {
			http.Error(w, "backend down", http.StatusServiceUnavailable)
			return
		}
		body, _ := io.ReadAll(r.Body)
		req, _ := http.NewRequest(http.MethodPost, scoring.URL, strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	defer backend.Close()

	// The open-breaker call below must land inside the cooldown; a second
	// is a generous bound for one request, and the heal waits on the
	// breaker's own half-open gauge rather than on a sleep.
	const cooldown = time.Second
	s.flock.DB.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) {
		if scoring == nil {
			srv, err := onnx.ServeGraph(g)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { srv.Close() })
			scoring = srv
		}
		return &onnx.ResilientScorer{
			S:           onnx.NewHTTPScorer(g, backend.URL, 1000),
			Breaker:     onnx.SharedBreaker(backend.URL, 2, cooldown),
			MaxRetries:  1,
			BaseBackoff: time.Millisecond,
		}, nil
	})
	sid := openSession(t, ts.URL, "alice")
	predict := func() (int, map[string]any) {
		resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": predictUDFSQL, "level": "udf"})
		return resp.StatusCode, body
	}

	// Down backend: typed backend error, mapped to 502.
	code, body := predict()
	if code != http.StatusBadGateway {
		t.Fatalf("down backend: %d %v, want 502", code, body)
	}
	// The failures opened the breaker: the next call fails fast (no retry
	// loop, no backend round-trips).
	before := hits.Load()
	if code, _ := predict(); code != http.StatusBadGateway {
		t.Fatalf("open breaker: %d, want 502", code)
	}
	if n := hits.Load() - before; n != 0 {
		t.Fatalf("open breaker let %d calls through to the backend, want 0", n)
	}
	halfOpen := fmt.Sprintf("flock_scorer_breaker_state{endpoint=%q} 2", backend.URL)
	if raw := metricsBody(t, ts.URL); !strings.Contains(raw, "flock_scorer_breaker_state") {
		t.Fatalf("/metrics missing breaker state:\n%s", raw)
	}

	// Backend recovers; once the cooldown is over the half-open probe
	// restores service with no operator action.
	down.Store(false)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(metricsBody(t, ts.URL), halfOpen); {
		if time.Now().After(deadline) {
			t.Fatal("the breaker never half-opened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body = predict()
	if code != http.StatusOK {
		t.Fatalf("healed backend: %d %v, want 200 via half-open probe", code, body)
	}
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	_, raw := getBody(t, base+"/metrics")
	return raw
}

// TestRetryAfterTracksPressure pins the satellite: Retry-After is derived
// from queue pressure, not hardcoded to 1.
func TestRetryAfterTracksPressure(t *testing.T) {
	flock := newTestFlock(t, 10)
	s := New(flock, Config{OnSession: func(u string) { flock.Access.AssignRole(u, "admin") }})
	defer s.Shutdown(context.Background())
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle Retry-After = %d, want 1", got)
	}
	rec := httptest.NewRecorder()
	s.setRetryAfter(rec)
	if v := rec.Header().Get("Retry-After"); v != "1" {
		t.Fatalf("header = %q, want 1", v)
	}
	// The /metrics surface exports the current advice.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if raw := metricsBody(t, ts.URL); !strings.Contains(raw, "flock_retry_after_seconds") {
		t.Fatalf("/metrics missing flock_retry_after_seconds:\n%s", raw)
	}
}

// TestAdminReopenRequiresSession rejects unauthenticated recovery calls.
func TestAdminReopenRequiresSession(t *testing.T) {
	_, ts := newTestServer(t, 10, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/admin/reopen", map[string]any{"session": "bogus"})
	if resp.StatusCode != http.StatusUnauthorized && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus session reopen: %d %v", resp.StatusCode, body)
	}
}

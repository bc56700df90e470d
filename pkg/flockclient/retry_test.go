package flockclient

// Retry-policy tests against a scripted stub server (the real serving layer
// is exercised in flockclient_test.go): transient 503s are retried with
// backoff on idempotent calls, Retry-After advice is parsed into the typed
// error, and Exec — DML, not idempotent — is never retried.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// stubFlock scripts per-path failure counts: the first fail[path] requests
// to path get a 503 (with optional Retry-After), the rest succeed with a
// canned body.
type stubFlock struct {
	mu         chan struct{} // 1-token mutex; keeps the stub -race clean
	fails      map[string]int
	hits       map[string]*atomic.Int64
	retryAfter string
}

func newStub(fails map[string]int, retryAfter string) *stubFlock {
	s := &stubFlock{mu: make(chan struct{}, 1), fails: fails,
		hits: map[string]*atomic.Int64{}, retryAfter: retryAfter}
	s.mu <- struct{}{}
	return s
}

func (s *stubFlock) hit(path string) *atomic.Int64 {
	<-s.mu
	defer func() { s.mu <- struct{}{} }()
	h, ok := s.hits[path]
	if !ok {
		h = &atomic.Int64{}
		s.hits[path] = h
	}
	return h
}

func (s *stubFlock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := s.hit(r.URL.Path).Add(1)
	<-s.mu
	remaining := s.fails[r.URL.Path]
	s.mu <- struct{}{}
	if int(n) <= remaining {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		http.Error(w, `{"error":"instance degraded"}`, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	switch r.URL.Path {
	case "/v1/sessions":
		_ = json.NewEncoder(w).Encode(map[string]any{"session": "s1"})
	case "/v1/query":
		var req map[string]any
		_ = json.NewDecoder(r.Body).Decode(&req)
		if req["cursor"] == true {
			_ = json.NewEncoder(w).Encode(map[string]any{"cursor": "c1", "columns": []string{"id"}})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"columns": []string{"id"}, "rows": [][]any{{1}}, "affected": 1})
	case "/v1/cursor/fetch":
		if r.Header.Get("Accept") != wire.ContentType {
			http.Error(w, `{"error":"the SDK must ask for pages"}`, http.StatusNotAcceptable)
			return
		}
		var e wire.Encoder
		e.Begin([]wire.Type{wire.Int64})
		e.Rows(2)
		e.Ints([]int64{1, 2})
		page, err := e.Finish(true)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(page)
	case "/v1/cursor/close":
		_ = json.NewEncoder(w).Encode(map[string]any{})
	default:
		http.Error(w, `{"error":"unknown path"}`, http.StatusNotFound)
	}
}

func TestDialRetriesTransient(t *testing.T) {
	stub := newStub(map[string]int{"/v1/sessions": 2}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	c, err := Dial(context.Background(), ts.URL, "root", WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatalf("Dial should have retried through 2 transient failures: %v", err)
	}
	if c.Session() != "s1" {
		t.Fatalf("session = %q", c.Session())
	}
	if got := stub.hit("/v1/sessions").Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestNoRetryWithoutOptIn(t *testing.T) {
	stub := newStub(map[string]int{"/v1/sessions": 1}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	_, err := Dial(context.Background(), ts.URL, "root")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the 503 APIError", err)
	}
	if got := stub.hit("/v1/sessions").Load(); got != 1 {
		t.Fatalf("attempts = %d, want exactly 1 without WithRetry", got)
	}
	if !IsTransient(err) {
		t.Fatal("503 should classify as transient")
	}
}

func TestRetryAfterParsedIntoError(t *testing.T) {
	stub := newStub(map[string]int{"/v1/sessions": 99}, "7")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	_, err := Dial(context.Background(), ts.URL, "root")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", ae.RetryAfter)
	}
}

// recordWaits substitutes postIdem's backoff wait: the delays the retry
// policy asks for are recorded instead of slept through, so the tests below
// assert the policy and not the clock.
func recordWaits(waits *[]time.Duration, after func(n int) error) Option {
	return func(c *Client) {
		c.wait = func(ctx context.Context, d time.Duration) error {
			*waits = append(*waits, d)
			return after(len(*waits))
		}
	}
}

func TestRetryHonorsRetryAfterAdvice(t *testing.T) {
	// One failure carrying "Retry-After: 1": the retry must ask to wait the
	// advised second, not the 1ms base backoff.
	stub := newStub(map[string]int{"/v1/sessions": 1}, "1")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	var waits []time.Duration
	_, err := Dial(context.Background(), ts.URL, "root", WithRetry(1, time.Millisecond),
		recordWaits(&waits, func(int) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != time.Second {
		t.Fatalf("waits requested = %v, want exactly the advised [1s]", waits)
	}
	if got := stub.hit("/v1/sessions").Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestRetryBackoffDoublesWithJitter(t *testing.T) {
	stub := newStub(map[string]int{"/v1/sessions": 3}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	var waits []time.Duration
	const base = 40 * time.Millisecond
	_, err := Dial(context.Background(), ts.URL, "root", WithRetry(3, base),
		recordWaits(&waits, func(int) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if len(waits) != 3 {
		t.Fatalf("waits requested = %v, want 3", waits)
	}
	for i, d := range waits {
		if lo, hi := (base<<i)/2, (base<<i)*3/2; d < lo || d >= hi {
			t.Fatalf("wait %d = %v, want within [%v, %v): base doubled per retry, ±50%% jitter", i, d, lo, hi)
		}
	}
}

func TestExecNeverRetried(t *testing.T) {
	stub := newStub(map[string]int{"/v1/query": 1}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	c, err := Dial(context.Background(), ts.URL, "root", WithRetry(5, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("Exec should surface the 503")
	}
	if got := stub.hit("/v1/query").Load(); got != 1 {
		t.Fatalf("Exec attempts = %d, want exactly 1 — DML must never be blind-retried", got)
	}
}

func TestQueryAndFetchRetried(t *testing.T) {
	stub := newStub(map[string]int{"/v1/query": 1, "/v1/cursor/fetch": 1}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	c, err := Dial(context.Background(), ts.URL, "root", WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(context.Background(), "SELECT id FROM t")
	if err != nil {
		t.Fatalf("Query should have retried the transient 503: %v", err)
	}
	var got []int64
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("fetch should have retried the transient 503: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("rows = %v", got)
	}
	if n := stub.hit("/v1/cursor/fetch").Load(); n != 2 {
		t.Fatalf("fetch attempts = %d, want 2 (failed, then retried)", n)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	// The context is canceled during the third backoff wait: the loop must
	// stop there — three attempts, no fourth — with 47 retries still in its
	// budget.
	stub := newStub(map[string]int{"/v1/sessions": 99}, "")
	ts := httptest.NewServer(stub)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var waits []time.Duration
	_, err := Dial(ctx, ts.URL, "root", WithRetry(50, 40*time.Millisecond),
		recordWaits(&waits, func(n int) error {
			if n == 3 {
				cancel()
			}
			return ctx.Err()
		}))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the last attempt's 503", err)
	}
	if got := stub.hit("/v1/sessions").Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3: the retry loop must stop at the cancel", got)
	}
	if len(waits) != 3 {
		t.Fatalf("waits = %v, want 3", waits)
	}
}

// The shipped wait returns early, with the context's error, once the
// context is done.
func TestSleepCtxReturnsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleepCtx(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleepCtx under a canceled context = %v, want context.Canceled", err)
	}
	if err := sleepCtx(context.Background(), time.Nanosecond); err != nil {
		t.Fatalf("sleepCtx = %v, want nil once the delay elapsed", err)
	}
}

package server

// Server-side cursor protocol + stream-drain pinning: pagination without
// re-running queries, session scoping, the distinct 410 for expired
// cursors, TTL interplay with the session sweep, mid-stream client
// disconnects (abort counter, no silent truncation), and cursor-leak
// detection under -race.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/onnx"
)

// waitForCursorsClosed polls until no engine cursor is open (drains tear
// down asynchronously with the client's departure).
func waitForCursorsClosed(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if engine.CursorsOpen() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d engine cursors still open", engine.CursorsOpen())
}

func TestCursorProtocolPagination(t *testing.T) {
	const rows = 10_000
	_, ts := newTestServer(t, rows, Config{})
	sid := openSession(t, ts.URL, "root")

	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT id, income FROM customers", "cursor": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cursor open: %d %v", resp.StatusCode, body)
	}
	curID, _ := body["cursor"].(string)
	if curID == "" {
		t.Fatalf("no cursor id in %v", body)
	}
	cols := body["columns"].([]any)
	if len(cols) != 2 || cols[0] != "id" {
		t.Fatalf("columns: %v", cols)
	}

	// Page through; the query never re-runs (total must be exact, and rows
	// must arrive in order with no overlap).
	total, pages := 0, 0
	lastID := -1.0
	for {
		resp, body := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
			"session": sid, "cursor": curID, "max_rows": 1500,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch page %d: %d %v", pages, resp.StatusCode, body)
		}
		page := body["rows"].([]any)
		for _, r := range page {
			id := r.([]any)[0].(float64)
			if id <= lastID {
				t.Fatalf("rows out of order or repeated: %v after %v", id, lastID)
			}
			lastID = id
		}
		total += len(page)
		pages++
		if body["done"].(bool) {
			break
		}
		if pages > rows {
			t.Fatal("fetch never reported done")
		}
	}
	if total != rows {
		t.Fatalf("paged %d rows, want %d", total, rows)
	}
	if pages < 3 {
		t.Fatalf("only %d pages; pagination did not page", pages)
	}

	// Fetch after done: the cursor is gone, distinctly (410).
	resp, body = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sid, "cursor": curID,
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("fetch after done: want 410, got %d %v", resp.StatusCode, body)
	}
	waitForCursorsClosed(t)
}

func TestCursorSessionScopeAndClose(t *testing.T) {
	s, ts := newTestServer(t, 2000, Config{})
	sidA := openSession(t, ts.URL, "root")
	sidB := openSession(t, ts.URL, "root")

	_, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sidA, "sql": "SELECT id FROM customers", "cursor": true,
	})
	curID := body["cursor"].(string)

	// Another session cannot fetch or close it — and cannot learn it exists.
	resp, _ := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sidB, "cursor": curID,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-session fetch: want 404, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{
		"session": sidB, "cursor": curID,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-session close: want 404, got %d", resp.StatusCode)
	}

	// Unknown id is 404, not 410.
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sidA, "cursor": strings.Repeat("ab", 16),
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cursor: want 404, got %d", resp.StatusCode)
	}

	// Owner close is 204; a second close stays 204 (idempotent); a fetch
	// after close is 410.
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{
		"session": sidA, "cursor": curID,
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close: want 204, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{
		"session": sidA, "cursor": curID,
	})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("double close: want 204, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sidA, "cursor": curID,
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("fetch after close: want 410, got %d", resp.StatusCode)
	}
	// The 410 is owner-only: another session probing the dead id sees the
	// same 404 as a never-existed id (no cross-session liveness leak).
	resp, _ = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sidB, "cursor": curID,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-session fetch of dead cursor: want 404, got %d", resp.StatusCode)
	}
	if n := s.cursors.count(); n != 0 {
		t.Fatalf("%d cursors still registered", n)
	}
	waitForCursorsClosed(t)
}

// TestCursorTTLAndSessionSweep pins the two TTL rules: (1) an idle session
// holding an open cursor is NOT reaped by the session sweep; (2) the cursor
// TTL expires the abandoned cursor (fetches then get 410), after which the
// session becomes reapable again.
func TestCursorTTLAndSessionSweep(t *testing.T) {
	s, ts := newTestServer(t, 2000, Config{
		SessionTTL: 600 * time.Millisecond,
		CursorTTL:  1500 * time.Millisecond,
	})
	sid := openSession(t, ts.URL, "root")
	_, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT id FROM customers", "cursor": true,
	})
	curID := body["cursor"].(string)

	// Idle long past the session TTL: the open cursor must shield the
	// session from the sweep.
	time.Sleep(1100 * time.Millisecond)
	resp, body := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sid, "cursor": curID, "max_rows": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch on cursor-holding session after session TTL: %d %v", resp.StatusCode, body)
	}

	// Now abandon the cursor past the cursor TTL, keeping the session
	// itself alive with queries that never touch the cursor: the sweep
	// reaps it and a late fetch gets the distinct 410.
	deadline := time.Now().Add(10 * time.Second)
	for s.met.cursorsExpired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cursor never expired")
		}
		time.Sleep(200 * time.Millisecond)
		postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": "SELECT count(*) FROM customers"})
	}
	resp, body = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sid, "cursor": curID, "max_rows": 1,
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("fetch on expired cursor: want 410, got %d %v", resp.StatusCode, body)
	}
	// With the cursor gone the idle session is reapable again (the session
	// sweeper ticks at most every second, so give it two full ticks).
	time.Sleep(2500 * time.Millisecond)
	resp, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT count(*) FROM customers"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("cursor-free idle session survived the sweep: %d", resp.StatusCode)
	}
	waitForCursorsClosed(t)
}

// TestStreamDrainFromCursor pins the pull-based NDJSON path: header, rows,
// trailer — and that the drain consumed a cursor (no engine cursor leaks).
func TestStreamDrainFromCursor(t *testing.T) {
	const rows = 20_000
	_, ts := newTestServer(t, rows, Config{})
	sid := openSession(t, ts.URL, "root")

	buf, _ := json.Marshal(map[string]any{
		"session": sid, "sql": "SELECT id, income FROM customers", "stream": true,
	})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	var trailer map[string]any
	for sc.Scan() {
		lines++
		line := sc.Bytes()
		if lines == 1 {
			var hdr map[string]any
			if err := json.Unmarshal(line, &hdr); err != nil || hdr["columns"] == nil {
				t.Fatalf("bad header: %s", line)
			}
			continue
		}
		if line[0] == '{' {
			trailer = map[string]any{}
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("bad trailer: %s", line)
			}
		}
	}
	if trailer == nil {
		t.Fatal("no trailer object")
	}
	if got := trailer["rows"].(float64); int(got) != rows {
		t.Fatalf("trailer rows %v, want %d", got, rows)
	}
	if lines != rows+2 {
		t.Fatalf("%d NDJSON lines, want %d", lines, rows+2)
	}
	waitForCursorsClosed(t)
}

// TestStreamPullHoldsAWorkerSlot pins the one admission rule: every engine
// pull of a stream holds a worker slot, so MaxWorkers bounds streams too.
// (A stream used to give its slot back after the open and pull outside
// admission: with one worker, this read inflight 0 and the second query ran
// at once.) Counted, not timed.
func TestStreamPullHoldsAWorkerSlot(t *testing.T) {
	s, ts := newTestServer(t, 200, Config{MaxWorkers: 1, MaxQueue: 4})
	gate := &gatedScorer{started: make(chan struct{}, 1), release: make(chan struct{})}
	var opened sync.Once
	openGate := func() { opened.Do(func() { close(gate.release) }) }
	t.Cleanup(openGate) // runs before the server's cleanup: a failed run does not wedge Close
	s.Flock().DB.SetUDFScorerFactory(func(g *onnx.Graph) (onnx.Scorer, error) { return gate, nil })
	sid := openSession(t, ts.URL, "root")

	post := func(body map[string]any) (int, string) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(buf)))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	type answer struct {
		code int
		body string
	}
	stream, query := make(chan answer, 1), make(chan answer, 1)
	go func() {
		code, body := post(map[string]any{"session": sid, "sql": predictUDFSQL, "level": "udf", "stream": true})
		stream <- answer{code, body}
	}()
	select {
	case <-gate.started: // the first pull is parked in the scorer
	case <-time.After(10 * time.Second):
		t.Fatal("the stream's first pull never reached the scorer")
	}
	if n := gaugeValue(t, metricsBody(t, ts.URL), "flock_admission_inflight"); n != 1 {
		t.Fatalf("flock_admission_inflight = %v while a stream pull runs, want 1", n)
	}

	go func() {
		code, body := post(map[string]any{"session": sid, "sql": "SELECT count(*) FROM customers"})
		query <- answer{code, body}
	}()
	for deadline := time.Now().Add(10 * time.Second); gaugeValue(t, metricsBody(t, ts.URL), "flock_admission_queue_depth") != 1; {
		select {
		case a := <-query:
			t.Fatalf("a query ran beside the stream's pull on the only worker: %d %s", a.code, a.body)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the second query never queued")
		}
		runtime.Gosched()
	}
	openGate()

	if a := <-query; a.code != http.StatusOK {
		t.Fatalf("queued query: %d %s", a.code, a.body)
	}
	a := <-stream
	lines := strings.Split(strings.TrimSpace(a.body), "\n")
	if a.code != http.StatusOK || len(lines) != 200+2 || !strings.HasPrefix(lines[len(lines)-1], `{"affected":0,`) {
		t.Fatalf("stream: %d, %d lines, trailer %q", a.code, len(lines), lines[len(lines)-1])
	}
	waitForCursorsClosed(t)
}

// TestStreamAbortOnClientDisconnect pins the satellite fix: a client
// vanishing mid-drain aborts the stream, closes the cursor, and counts in
// flock_stream_aborts_total — no silent truncation, no leak.
func TestStreamAbortOnClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, 200_000, Config{})
	sid := openSession(t, ts.URL, "root")

	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(map[string]any{
		"session": sid, "sql": "SELECT id, income FROM customers", "stream": true,
	})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", strings.NewReader(string(buf)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little, then walk away mid-stream.
	b := make([]byte, 4096)
	if _, err := resp.Body.Read(b); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.met.streamAborts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flock_stream_aborts_total never incremented after a client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitForCursorsClosed(t)

	// The counter is on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	sc := bufio.NewScanner(mresp.Body)
	found := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "flock_stream_aborts_total") &&
			!strings.HasPrefix(sc.Text(), "#") {
			found = true
			if strings.HasSuffix(sc.Text(), " 0") {
				t.Fatalf("metric exported but zero: %s", sc.Text())
			}
		}
	}
	if !found {
		t.Fatal("flock_stream_aborts_total not exported")
	}
}

// TestCursorCloseDuringFetch races /v1/cursor/close (and session delete)
// against in-flight fetches: the engine cursor must never be closed under
// a running Next (finish takes the fetch mutex), and every outcome must be
// one of 200 / 404 / 410 / 499 / 401 — never a 500 or a crash. Run under
// -race in CI's cursor focus pass.
func TestCursorCloseDuringFetch(t *testing.T) {
	_, ts := newTestServer(t, 50_000, Config{})
	sid := openSession(t, ts.URL, "root")

	for round := 0; round < 8; round++ {
		_, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid,
			"sql":     "SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM customers",
			"cursor":  true,
		})
		curID, _ := body["cursor"].(string)
		if curID == "" {
			t.Fatalf("round %d: no cursor: %v", round, body)
		}
		var wg sync.WaitGroup
		for f := 0; f < 3; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, _ := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
					"session": sid, "cursor": curID, "max_rows": 2000,
				})
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotFound, http.StatusGone, 499, http.StatusUnauthorized:
				default:
					t.Errorf("fetch during close: unexpected %d", resp.StatusCode)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{
				"session": sid, "cursor": curID,
			})
		}()
		wg.Wait()
	}
	waitForCursorsClosed(t)
}

// TestCursorPerSessionLimit pins the open-cursor bound.
func TestCursorPerSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, 1000, Config{MaxCursorsPerSession: 2})
	sid := openSession(t, ts.URL, "root")
	open := func() (*http.Response, map[string]any) {
		return postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": "SELECT id FROM customers", "cursor": true,
		})
	}
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := open()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open %d: %d %v", i, resp.StatusCode, body)
		}
		ids = append(ids, body["cursor"].(string))
	}
	resp, _ := open()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit open: want 429, got %d", resp.StatusCode)
	}
	// Closing one frees a slot.
	postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{"session": sid, "cursor": ids[0]})
	if resp, body := open(); resp.StatusCode != http.StatusOK {
		t.Fatalf("open after close: %d %v", resp.StatusCode, body)
	}
}

// TestCursorPreparedStatement pins /v1/exec with cursor:true over a
// prepared SELECT, including PREDICT.
func TestCursorPreparedStatement(t *testing.T) {
	_, ts := newTestServer(t, 5000, Config{})
	sid := openSession(t, ts.URL, "root")

	resp, body := postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid,
		"sql":     "SELECT id, PREDICT(churn, age, income, tenure, region) AS risk FROM customers WHERE income > 50000.0",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %v", resp.StatusCode, body)
	}
	stmt := body["stmt"].(string)

	resp, body = postJSON(t, ts.URL+"/v1/exec", map[string]any{
		"session": sid, "stmt": stmt, "cursor": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec cursor open: %d %v", resp.StatusCode, body)
	}
	curID := body["cursor"].(string)
	total := 0
	for {
		resp, body = postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
			"session": sid, "cursor": curID, "max_rows": 1000,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch: %d %v", resp.StatusCode, body)
		}
		page := body["rows"].([]any)
		if len(page) > 0 {
			row := page[0].([]any)
			if len(row) != 2 {
				t.Fatalf("row shape: %v", row)
			}
			if risk := row[1].(float64); risk < 0 || risk > 1 {
				t.Fatalf("risk out of range: %v", risk)
			}
		}
		total += len(page)
		if body["done"].(bool) {
			break
		}
	}
	if total == 0 || total >= 5000 {
		t.Fatalf("prepared cursor drained %d rows; want a filtered subset", total)
	}
	waitForCursorsClosed(t)

	// DML handles cannot be cursored.
	resp, body = postJSON(t, ts.URL+"/v1/prepare", map[string]any{
		"session": sid, "sql": "INSERT INTO customers (id) VALUES (1)",
	})
	if resp.StatusCode == http.StatusOK {
		stmt = body["stmt"].(string)
		resp, _ = postJSON(t, ts.URL+"/v1/exec", map[string]any{
			"session": sid, "stmt": stmt, "cursor": true,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("DML cursor: want 400, got %d", resp.StatusCode)
		}
	}
}

// TestCursorFetchCancellationKeepsCursor pins retryability: a fetch whose
// deadline expires mid-page leaves the cursor open; the next fetch
// succeeds.
func TestCursorFetchCancellationKeepsCursor(t *testing.T) {
	_, ts := newTestServer(t, 5000, Config{})
	sid := openSession(t, ts.URL, "root")
	_, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT id FROM customers", "cursor": true,
	})
	curID := body["cursor"].(string)

	// A canceled fetch request (client walks away while queued/working)
	// must not kill the cursor.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf, _ := json.Marshal(map[string]any{"session": sid, "cursor": curID, "max_rows": 100})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cursor/fetch",
		strings.NewReader(string(buf)))
	_, err := http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("expected canceled request error")
	}

	resp, body := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sid, "cursor": curID, "max_rows": 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch after canceled fetch: %d %v", resp.StatusCode, body)
	}
	if len(body["rows"].([]any)) != 100 {
		t.Fatalf("page size %d, want 100", len(body["rows"].([]any)))
	}
	postJSON(t, ts.URL+"/v1/cursor/close", map[string]any{"session": sid, "cursor": curID})
	waitForCursorsClosed(t)
}

// TestSessionMaxLifetimeCap pins the hard lifetime cap: a session that
// stays active AND holds an open cursor — both of which exempt it from the
// idle TTL — is still expired once it outlives SessionMaxLifetime, and a
// late fetch on its cursor gets the distinct 410 tombstone, not a 404.
func TestSessionMaxLifetimeCap(t *testing.T) {
	_, ts := newTestServer(t, 2000, Config{
		SessionTTL:         600 * time.Millisecond, // sweeper ticks every second
		CursorTTL:          time.Hour,              // cursor TTL must not be what kills it
		SessionMaxLifetime: 1500 * time.Millisecond,
	})
	sid := openSession(t, ts.URL, "root")
	_, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT id FROM customers", "cursor": true,
	})
	curID := body["cursor"].(string)

	// Stay active the whole time: the cap must fire on age, not idleness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": "SELECT count(*) FROM customers"})
		if resp.StatusCode == http.StatusUnauthorized {
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query while waiting for cap: %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("session outlived its max lifetime cap")
		}
		time.Sleep(150 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/cursor/fetch", map[string]any{
		"session": sid, "cursor": curID, "max_rows": 1,
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("fetch after max-lifetime expiry: want 410, got %d %v", resp.StatusCode, body)
	}
	waitForCursorsClosed(t)
}

// TestCursorTombstonesAreBounded: the store remembers at most
// cursorTombstones dead ids. Past that, the oldest id answers its owner as
// never-existed (404) while the newest still answers 410 — and a dead id
// never answers 410 to another session.
func TestCursorTombstonesAreBounded(t *testing.T) {
	cs := newCursorStore(time.Hour, 1, new(atomic.Uint64))
	t.Cleanup(cs.stopSweeper)
	owner := &session{id: "owner"}
	for i := 0; i <= cursorTombstones; i++ {
		cs.retire(&serverCursor{id: fmt.Sprint("c", i), sess: owner})
	}
	last := fmt.Sprint("c", cursorTombstones)
	for _, tc := range []struct {
		id, sess string
		want     cursorState
	}{
		{"c0", "owner", cursorUnknown},
		{last, "owner", cursorGone},
		{last, "other", cursorUnknown},
	} {
		if _, got := cs.get(tc.id, tc.sess); got != tc.want {
			t.Errorf("get(%s, %s) = %v, want %v", tc.id, tc.sess, got, tc.want)
		}
	}
}

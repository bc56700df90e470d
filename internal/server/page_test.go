package server

// The two forms of a cursor page. A fetch that sends
// "Accept: application/vnd.flock.page" gets the binary columnar page; any
// other fetch gets the row-JSON the parent commit wrote, byte for byte
// (pinned by a golden captured from that commit). Fetch semantics — the
// short page on a timeout, retry after a 503, session scope, release on
// done or on a sticky error — are asserted on pages through a scripted
// engine cursor, by counting rows, never by timing them.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/wire"
)

// fetchRaw posts a fetch with the given Accept value ("" sends none).
func fetchRaw(t *testing.T, url, accept string, body map[string]any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/cursor/fetch", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// fetchPage fetches one page in the binary form and decodes it.
func fetchPage(t *testing.T, url string, body map[string]any) *wire.Page {
	t.Helper()
	resp, raw := fetchRaw(t, url, wire.ContentType, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page fetch: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("page fetch answered Content-Type %q", ct)
	}
	if resp.ContentLength != int64(len(raw)) {
		t.Fatalf("page fetch declared Content-Length %d for %d bytes", resp.ContentLength, len(raw))
	}
	var p wire.Page
	if err := p.Decode(raw); err != nil {
		t.Fatalf("page fetch: %v", err)
	}
	return &p
}

func wantStatus(t *testing.T, what string, resp *http.Response, raw []byte, status int, message string) {
	t.Helper()
	if resp.StatusCode != status || !strings.Contains(string(raw), message) {
		t.Fatalf("%s: %d %s, want %d naming %q", what, resp.StatusCode, raw, status, message)
	}
}

const goldenSQL = "SELECT id, age, income, region, income > 50000.0 AS rich, id * 2.0 AS twice FROM customers WHERE id <= 5"

// The row-JSON bodies the parent commit (808d708) answered for goldenSQL
// fetched three rows at a time.
var goldenRowJSON = []string{
	`{"columns":["id","age","income","region","rich","twice"],"done":false,"rows":[[1,42.16944440025883,18105.834487708882,"eu-south",false,2],[2,38.23440069633205,129537.31121620255,"us-west",true,4],[3,52.5632623011097,127252.59768956267,"eu-south",true,6]]}` + "\n",
	`{"columns":["id","age","income","region","rich","twice"],"done":true,"rows":[[4,40.41803518889874,26992.925515830568,"us-west",false,8],[5,79.0681232582786,191505.85548842596,"latam",true,10]]}` + "\n",
}

func openCursor(t *testing.T, url, sid, sql string) string {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", map[string]any{"session": sid, "sql": sql, "cursor": true})
	cur, _ := body["cursor"].(string)
	if resp.StatusCode != http.StatusOK || cur == "" {
		t.Fatalf("cursor open: %d %v", resp.StatusCode, body)
	}
	return cur
}

func TestFetchWithoutPageAcceptIsTheParentsRowJSON(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{})
	sid := openSession(t, ts.URL, "root")
	// The header value is matched exactly: nothing but the page type itself
	// selects pages.
	for _, accept := range []string{"", "application/json", "*/*", wire.ContentType + ";q=0.9", "application/vnd.flock.page, application/json"} {
		cur := openCursor(t, ts.URL, sid, goldenSQL)
		for i, want := range goldenRowJSON {
			resp, raw := fetchRaw(t, ts.URL, accept, map[string]any{"session": sid, "cursor": cur, "max_rows": 3})
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("Accept %q page %d: %d %q", accept, i, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			if string(raw) != want {
				t.Fatalf("Accept %q page %d:\n got %q\nwant %q", accept, i, raw, want)
			}
		}
	}

	// The same cursor as pages: the same cells, typed.
	cur := openCursor(t, ts.URL, sid, goldenSQL)
	first := fetchPage(t, ts.URL, map[string]any{"session": sid, "cursor": cur, "max_rows": 3})
	if first.N != 3 || first.Done || len(first.Cols) != 6 {
		t.Fatalf("first page: %d rows × %d cols, done=%v", first.N, len(first.Cols), first.Done)
	}
	if got := first.Cols[0].Ints; got[0] != 1 || got[2] != 3 {
		t.Fatalf("ids = %v", got)
	}
	if got := first.Cols[2].Floats; got[0] != 18105.834487708882 || got[1] != 129537.31121620255 {
		t.Fatalf("income = %v", got)
	}
	if got := first.Cols[3].Strs; got[0] != "eu-south" || got[1] != "us-west" {
		t.Fatalf("region = %v", got)
	}
	if got := first.Cols[4].Bools; got[0] || !got[1] {
		t.Fatalf("rich = %v", got)
	}
	if got := first.Cols[5]; got.Type != wire.Float64 || got.Floats[2] != 6 {
		t.Fatalf("twice = %+v: an integral float stays a float on a page", got)
	}
	second := fetchPage(t, ts.URL, map[string]any{"session": sid, "cursor": cur, "max_rows": 3})
	if second.N != 2 || !second.Done || second.Cols[3].Strs[1] != "latam" {
		t.Fatalf("second page: %d rows, done=%v, %+v", second.N, second.Done, second.Cols[3])
	}
	// Drained: the done page released the cursor.
	resp, raw := fetchRaw(t, ts.URL, wire.ContentType, map[string]any{"session": sid, "cursor": cur})
	wantStatus(t, "fetch after done", resp, raw, http.StatusGone, "cursor expired or closed")
	waitForCursorsClosed(t)
}

// scriptCursor is an engine cursor that plays a script: each Next runs the
// next step.
type scriptCursor struct {
	schema engine.Schema
	steps  []func(ctx context.Context) (*engine.Batch, error)
	closed atomic.Bool
}

func (c *scriptCursor) Schema() engine.Schema { return c.schema }
func (c *scriptCursor) Close() error          { c.closed.Store(true); return nil }
func (c *scriptCursor) Next(ctx context.Context) (*engine.Batch, error) {
	if len(c.steps) == 0 {
		return nil, io.EOF
	}
	step := c.steps[0]
	c.steps = c.steps[1:]
	return step(ctx)
}

var scriptSchema = engine.Schema{{Name: "id", Type: engine.TypeInt}, {Name: "tag", Type: engine.TypeString}, {Name: "x", Type: engine.TypeFloat}}

// idBatch is a step yielding rows with ids [lo, hi).
func idBatch(lo, hi int64) func(context.Context) (*engine.Batch, error) {
	return func(context.Context) (*engine.Batch, error) {
		ids, tags, xs := []int64{}, []string{}, []float64{}
		for id := lo; id < hi; id++ {
			ids, tags, xs = append(ids, id), append(tags, strings.Repeat("t", int(id%4))), append(xs, float64(id)/4)
		}
		return engine.NewRowSet(scriptSchema, []engine.Column{engine.IntColumn(ids), engine.StringColumn(tags), engine.FloatColumn(xs)})
	}
}

// stall is a pull that outlasts its fetch: it returns when the fetch's
// deadline (or the client's disconnect) cancels it, having consumed
// nothing.
func stall(ctx context.Context) (*engine.Batch, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// scripted registers a scripted cursor for the session.
func scripted(t *testing.T, s *Server, sid string, steps ...func(context.Context) (*engine.Batch, error)) (*scriptCursor, string) {
	t.Helper()
	sess, ok := s.sessions.get(sid)
	if !ok {
		t.Fatal("no such session")
	}
	cur := &scriptCursor{schema: scriptSchema, steps: steps}
	c, err := s.cursors.put(sess, cur, scriptSchema.Names())
	if err != nil {
		t.Fatal(err)
	}
	return cur, c.id
}

// wantIDs checks that a page holds exactly ids [lo, hi), every column in
// step.
func wantIDs(t *testing.T, what string, p *wire.Page, lo, hi int64, done bool) {
	t.Helper()
	if int64(p.N) != hi-lo || p.Done != done {
		t.Fatalf("%s: %d rows, done=%v; want ids [%d, %d), done=%v", what, p.N, p.Done, lo, hi, done)
	}
	for i := 0; i < p.N; i++ {
		id := lo + int64(i)
		if p.Cols[0].Ints[i] != id || p.Cols[1].Strs[i] != strings.Repeat("t", int(id%4)) || p.Cols[2].Floats[i] != float64(id)/4 {
			t.Fatalf("%s: row %d is (%d, %q, %v), want id %d", what, i, p.Cols[0].Ints[i], p.Cols[1].Strs[i], p.Cols[2].Floats[i], id)
		}
	}
}

func TestPageFetchSemantics(t *testing.T) {
	s, ts := newTestServer(t, 100, Config{MaxWorkers: 1, MaxQueue: 1})
	sid := openSession(t, ts.URL, "root")

	t.Run("a page spans a parked tail and two engine batches", func(t *testing.T) {
		_, cur := scripted(t, s, sid, idBatch(0, 10), idBatch(10, 14), idBatch(14, 30))
		fetch := map[string]any{"session": sid, "cursor": cur, "max_rows": 7}
		wantIDs(t, "page 1", fetchPage(t, ts.URL, fetch), 0, 7, false)
		wantIDs(t, "page 2 (tail of batch 1, batch 2, head of batch 3)", fetchPage(t, ts.URL, fetch), 7, 14, false)
		fetch["max_rows"] = 16
		wantIDs(t, "page 3 (exactly the rest; not yet known to be the end)", fetchPage(t, ts.URL, fetch), 14, 30, false)
		wantIDs(t, "page 4 (empty, done)", fetchPage(t, ts.URL, fetch), 30, 30, true)
	})

	t.Run("a timed-out fetch delivers what it pulled and the retry resumes after it", func(t *testing.T) {
		_, cur := scripted(t, s, sid, idBatch(0, 5), stall, idBatch(5, 9), stall, stall, idBatch(9, 12))
		fetch := map[string]any{"session": sid, "cursor": cur, "max_rows": 100, "timeout_ms": 30}
		wantIDs(t, "short page", fetchPage(t, ts.URL, fetch), 0, 5, false)
		wantIDs(t, "resumed page", fetchPage(t, ts.URL, fetch), 5, 9, false)
		// Nothing pulled before the deadline: a 504, and the cursor stays.
		resp, raw := fetchRaw(t, ts.URL, wire.ContentType, fetch)
		wantStatus(t, "fetch that pulled nothing", resp, raw, http.StatusGatewayTimeout, "deadline")
		wantIDs(t, "last page", fetchPage(t, ts.URL, fetch), 9, 12, true)
	})

	t.Run("a fetch shed with 503 is retried to the same page", func(t *testing.T) {
		_, cur := scripted(t, s, sid, idBatch(0, 6))
		fetch := map[string]any{"session": sid, "cursor": cur, "max_rows": 4}
		// Fill the one worker slot and the one queue place.
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.adm.queued.Add(1)
		resp, raw := fetchRaw(t, ts.URL, wire.ContentType, fetch)
		s.adm.queued.Add(-1)
		s.adm.release()
		wantStatus(t, "shed fetch", resp, raw, http.StatusServiceUnavailable, "queue full")
		if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("shed fetch headers: %v", resp.Header)
		}
		wantIDs(t, "retried fetch", fetchPage(t, ts.URL, fetch), 0, 4, false)
		wantIDs(t, "next fetch", fetchPage(t, ts.URL, fetch), 4, 6, true)
	})

	t.Run("another session's cursor is a 404", func(t *testing.T) {
		script, cur := scripted(t, s, sid, idBatch(0, 3))
		other := openSession(t, ts.URL, "root")
		resp, raw := fetchRaw(t, ts.URL, wire.ContentType, map[string]any{"session": other, "cursor": cur})
		wantStatus(t, "foreign fetch", resp, raw, http.StatusNotFound, "unknown cursor")
		wantIDs(t, "owner's fetch", fetchPage(t, ts.URL, map[string]any{"session": sid, "cursor": cur}), 0, 3, true)
		if !script.closed.Load() {
			t.Fatal("the done page did not close the engine cursor")
		}
		resp, raw = fetchRaw(t, ts.URL, wire.ContentType, map[string]any{"session": sid, "cursor": cur})
		wantStatus(t, "fetch after done", resp, raw, http.StatusGone, "cursor expired or closed")
		resp, raw = fetchRaw(t, ts.URL, wire.ContentType, map[string]any{"session": other, "cursor": cur})
		wantStatus(t, "foreign fetch after done", resp, raw, http.StatusNotFound, "unknown cursor")
	})

	t.Run("an execution error releases the cursor", func(t *testing.T) {
		boom := func(context.Context) (*engine.Batch, error) { return nil, errors.New("engine: division by zero") }
		script, cur := scripted(t, s, sid, idBatch(0, 3), boom)
		fetch := map[string]any{"session": sid, "cursor": cur, "max_rows": 2}
		wantIDs(t, "page before the error", fetchPage(t, ts.URL, fetch), 0, 2, false)
		resp, raw := fetchRaw(t, ts.URL, wire.ContentType, fetch)
		wantStatus(t, "failing fetch", resp, raw, http.StatusBadRequest, "division by zero")
		if !script.closed.Load() {
			t.Fatal("the sticky error did not close the engine cursor")
		}
		resp, raw = fetchRaw(t, ts.URL, wire.ContentType, fetch)
		wantStatus(t, "fetch after the error", resp, raw, http.StatusGone, "cursor expired or closed")
	})

	t.Run("a batch that contradicts the schema is an error, not a corrupt page", func(t *testing.T) {
		wrong := func(context.Context) (*engine.Batch, error) {
			return engine.NewRowSet(scriptSchema, []engine.Column{
				engine.IntColumn([]int64{1}), engine.StringColumn([]string{"a"}), engine.IntColumn([]int64{2})})
		}
		script, cur := scripted(t, s, sid, wrong)
		resp, raw := fetchRaw(t, ts.URL, wire.ContentType, map[string]any{"session": sid, "cursor": cur})
		wantStatus(t, "mistyped batch", resp, raw, http.StatusBadRequest, "wire:")
		if !script.closed.Load() {
			t.Fatal("the encode error did not close the engine cursor")
		}
	})
}

// A result holding ±Inf or NaN is something row-JSON cannot express. The
// three JSON surfaces used to answer 200 with an empty body (the encoder
// failed after the status line); now they answer with an execution error
// that names the cause, and the page form carries the value.
func TestNonFiniteFloatIsAnErrorOnJSONAndAValueOnPages(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{})
	sid := openSession(t, ts.URL, "root")
	const sql = "SELECT id, income * 1e308 * 1e308 AS v FROM customers WHERE id = 1"
	const cause = "result holds a non-finite float; JSON cannot carry it"

	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": sql})
	wantStatus(t, "/v1/query", resp, []byte(fmt.Sprint(body["error"])), http.StatusBadRequest, cause)

	resp, prepared := postJSON(t, ts.URL+"/v1/prepare", map[string]any{"session": sid, "sql": sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %v", resp.StatusCode, prepared)
	}
	resp, body = postJSON(t, ts.URL+"/v1/exec", map[string]any{"session": sid, "stmt": prepared["stmt"]})
	wantStatus(t, "/v1/exec", resp, []byte(fmt.Sprint(body["error"])), http.StatusBadRequest, cause)

	cur := openCursor(t, ts.URL, sid, sql)
	resp, raw := fetchRaw(t, ts.URL, "", map[string]any{"session": sid, "cursor": cur})
	wantStatus(t, "row-JSON fetch", resp, raw, http.StatusBadRequest, cause)
	// The rows were consumed; the cursor is released like any sticky error.
	resp, raw = fetchRaw(t, ts.URL, "", map[string]any{"session": sid, "cursor": cur})
	wantStatus(t, "fetch after the refusal", resp, raw, http.StatusGone, "cursor expired or closed")

	cur = openCursor(t, ts.URL, sid, sql)
	p := fetchPage(t, ts.URL, map[string]any{"session": sid, "cursor": cur})
	if p.N != 1 || !p.Done || p.Cols[0].Ints[0] != 1 || !math.IsInf(p.Cols[1].Floats[0], 1) {
		t.Fatalf("page: %d rows, done=%v, %+v", p.N, p.Done, p.Cols)
	}

	waitForCursorsClosed(t)
}

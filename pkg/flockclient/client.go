// Package flockclient is the public Go SDK for the Flock serving layer
// (wire protocol v1, see docs/api.md): authenticated sessions, queries
// returning a database/sql-shaped Rows iterator that pages through a
// server-side cursor (the query runs once, pages are fetched on demand,
// and client memory stays O(page)), prepared statements, and PREDICT
// helpers for in-DBMS inference.
//
//	c, err := flockclient.Dial(ctx, "http://127.0.0.1:8080", "alice",
//	    flockclient.WithToken("s3cret"))
//	defer c.Close(context.Background())
//
//	rows, err := c.Query(ctx, "SELECT id, income FROM customers WHERE income > 50000.0")
//	defer rows.Close()
//	for rows.Next() {
//	    var id int64
//	    var income float64
//	    if err := rows.Scan(&id, &income); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
package flockclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// APIError is a non-2xx response from the server, carrying the HTTP status
// and the server's error message.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's backoff advice from the Retry-After header
	// (zero when absent). The server derives it from live queue pressure,
	// so honoring it beats a fixed client-side backoff.
	RetryAfter time.Duration
	// Leader is the X-Flock-Leader hint a replica stamps on read-only write
	// rejections: the base URL of the node currently accepting writes
	// (empty when absent). Failover follows it.
	Leader string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("flockclient: server returned %d: %s", e.Status, e.Message)
}

// IsTransient reports whether err is a transient condition a retry can
// plausibly outlive: server-side shedding or degradation (503), an
// upstream scoring failure (502), a server-side timeout (504), or a
// transport-level timeout/connection failure. Client mistakes (4xx) and
// context cancellation are not transient.
func IsTransient(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) // dial/read against a dead or restarting server
}

// IsCursorExpired reports whether err is the server's distinct "cursor
// expired or closed" condition (HTTP 410): the cursor's TTL lapsed or it
// was closed, and the query must be re-run to resume.
func IsCursorExpired(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusGone
}

// Client is a connected session against one Flock server. It is safe for
// concurrent use; each Rows iterator, however, must be driven from one
// goroutine at a time.
type Client struct {
	hc        *http.Client
	user      string
	token     string
	batchRows int
	level     string
	retryMax  int
	retryBase time.Duration
	// wait is how postIdem backs off between attempts: it blocks for d or
	// until ctx is done. A field so tests can read the delay the retry
	// policy asked for instead of sleeping through it.
	wait func(ctx context.Context, d time.Duration) error

	// epMu guards base and session: failover re-dials a session at another
	// endpoint and swaps both while calls may be in flight.
	epMu    sync.Mutex
	base    string
	session string
	// failover is the WithFailover candidate list, rotated through when the
	// current endpoint keeps failing transiently.
	failover []string

	// Read-endpoint routing (WithReadEndpoint): reads go to a replica
	// through a lazily dialed sub-client, with fallback to the primary.
	readURL string
	readMu  sync.Mutex
	readC   *Client
}

// Option configures Dial.
type Option func(*Client)

// WithToken authenticates the session with a credential token.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default has no overall timeout — streams
// and fetches carry per-request contexts instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithBatchRows sets the page size Rows fetches per round trip (default
// 4096). Smaller pages bound client memory tighter; larger pages cut round
// trips.
func WithBatchRows(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.batchRows = n
		}
	}
}

// WithLevel pins an optimization level ("udf", "vectorized", "parallel",
// "full") on every query; the default lets the server choose.
func WithLevel(level string) Option {
	return func(c *Client) { c.level = level }
}

// WithReadEndpoint routes read traffic — Query, Predict, PredictAbove,
// and the cursor fetches behind them — to a read replica at url (a
// flock-serve -replica-of instance), while Exec and prepared statements
// (whose handles live in the primary's plan cache) keep going to the
// primary. The replica session is dialed
// lazily on the first read; when the replica is unreachable or answers
// with a transient error (down, degraded, lagging), the read falls back
// to the primary transparently. Replicas apply the leader's log
// asynchronously, so routed reads are eventually consistent: a row
// written through Exec appears on the replica after the replication lag,
// not instantly.
func WithReadEndpoint(url string) Option {
	return func(c *Client) { c.readURL = strings.TrimRight(url, "/") }
}

// WithFailover registers alternate server endpoints for leader failover.
// When a call fails transiently (the server is down or sheds it) the
// client re-dials a session at the next candidate — following the
// X-Flock-Leader hint first when a replica named the current leader — and
// retries there, under the WithRetry budget (failover implies a retry
// budget of at least len(endpoints) attempts). Exec is redirected only on
// a definitive read-only rejection from a replica, where the statement
// provably did not execute; ambiguous outcomes still surface to the
// caller. Open cursors and prepared statements do not survive failover:
// fetches fail and handles answer 404, so re-run the query or re-prepare.
func WithFailover(endpoints ...string) Option {
	return func(c *Client) {
		for _, e := range endpoints {
			if e = strings.TrimRight(e, "/"); e != "" {
				c.failover = append(c.failover, e)
			}
		}
	}
}

// WithRetry enables bounded retry with exponential backoff for transient
// failures (see IsTransient) on idempotent calls: Dial, Ping, Query,
// Prepare, prepared-SELECT Query, and cursor fetch/close. Exec is NEVER
// retried — DML is not idempotent and an ambiguous outcome (request landed,
// response lost) must surface to the caller. max bounds re-attempts after
// the first try; base seeds the backoff (doubled per retry with jitter,
// default 100ms), overridden by the server's Retry-After advice when
// present. Retries stop immediately once the call's context is done.
func WithRetry(max int, base time.Duration) Option {
	return func(c *Client) {
		if max > 0 {
			c.retryMax = max
		}
		if base > 0 {
			c.retryBase = base
		}
	}
}

// Dial opens an authenticated session. Close releases it server-side.
func Dial(ctx context.Context, baseURL, user string, opts ...Option) (*Client, error) {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        &http.Client{},
		user:      user,
		batchRows: 4096,
		retryBase: 100 * time.Millisecond,
		wait:      sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	if len(c.failover) > 0 && c.retryMax < len(c.failover) {
		// Failover needs at least one attempt per candidate to be useful.
		c.retryMax = len(c.failover)
	}
	var out struct {
		Session string `json:"session"`
	}
	// Session creation is safely retryable: a duplicate session from a
	// landed-but-lost first attempt just expires with its TTL.
	if err := c.postIdem(ctx, "/v1/sessions", map[string]any{"user": user, "token": c.token}, &out); err != nil {
		return nil, err
	}
	if out.Session == "" {
		return nil, errors.New("flockclient: server returned no session id")
	}
	c.epMu.Lock()
	c.session = out.Session
	c.epMu.Unlock()
	return c, nil
}

// endpointURL reports the base URL calls currently go to (failover swaps it).
func (c *Client) endpointURL() string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.base
}

// sessionID reports the current session id (failover re-dials a new one).
func (c *Client) sessionID() string {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	return c.session
}

// failTo re-dials a session at url and makes it the client's endpoint. The
// session dial doubles as the liveness probe: a dead candidate fails here
// and the previous endpoint stays in place.
func (c *Client) failTo(ctx context.Context, url string) error {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return errors.New("flockclient: empty failover endpoint")
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := c.postTo(ctx, url, "/v1/sessions", map[string]any{"user": c.user, "token": c.token}, &out); err != nil {
		return err
	}
	if out.Session == "" {
		return errors.New("flockclient: failover endpoint returned no session id")
	}
	c.epMu.Lock()
	c.base, c.session = url, out.Session
	c.epMu.Unlock()
	return nil
}

// maybeFailover reacts to a transient error by moving the client to
// another endpoint: the server's X-Flock-Leader hint first (a replica
// naming the actual leader beats guessing), then the WithFailover
// candidates in order. Reports whether the endpoint changed.
func (c *Client) maybeFailover(ctx context.Context, err error) bool {
	var ae *APIError
	if errors.As(err, &ae) && ae.Leader != "" && ae.Leader != c.endpointURL() {
		if c.failTo(ctx, ae.Leader) == nil {
			return true
		}
	}
	for _, url := range c.failover {
		if url == c.endpointURL() {
			continue
		}
		if c.failTo(ctx, url) == nil {
			return true
		}
	}
	return false
}

// Close deletes the server-side session (which also releases any cursors
// it still holds), including the read-endpoint session if one was dialed.
func (c *Client) Close(ctx context.Context) error {
	c.readMu.Lock()
	rc := c.readC
	c.readC = nil
	c.readMu.Unlock()
	if rc != nil {
		_ = rc.Close(ctx) // best-effort: the replica session dies with its TTL anyway
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.endpointURL()+"/v1/sessions/"+c.sessionID(), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return readAPIError(resp)
	}
	return nil
}

// Ping checks the server's health endpoint.
func (c *Client) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpointURL()+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return readAPIError(resp)
	}
	return nil
}

// Session exposes the raw session id (for debugging and tests).
func (c *Client) Session() string { return c.sessionID() }

// Endpoint exposes the base URL calls currently go to — after a failover
// it names the endpoint the client moved to.
func (c *Client) Endpoint() string { return c.endpointURL() }

// Result is the outcome of a non-cursor statement.
type Result struct {
	Columns  []string
	Rows     [][]any
	Affected int64
}

// Exec runs a statement (DML, DDL, or a small SELECT) and returns the
// materialized result. For large SELECTs use Query, which pages. Exec is
// never retried by WithRetry: DML is not idempotent, and an ambiguous
// outcome (the request landed but the response was lost) must surface to
// the caller rather than risk a double-apply.
func (c *Client) Exec(ctx context.Context, sql string) (*Result, error) {
	body := map[string]any{"session": c.sessionID(), "sql": sql}
	if c.level != "" {
		body["level"] = c.level
	}
	var out struct {
		Columns  []string            `json:"columns"`
		Rows     [][]json.RawMessage `json:"rows"`
		Affected int64               `json:"affected"`
	}
	err := c.post(ctx, "/v1/query", body, &out)
	var ae *APIError
	if err != nil && errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable && ae.Leader != "" {
		// A read-only replica named the leader: the rejection is definitive
		// (the statement provably did not execute there), so redirecting
		// once is not a double-apply. Everything else stays non-retried.
		if ferr := c.failTo(ctx, ae.Leader); ferr == nil {
			body["session"] = c.sessionID()
			err = c.post(ctx, "/v1/query", body, &out)
		}
	}
	if err != nil {
		return nil, err
	}
	rows, err := decodeRows(out.Rows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: out.Columns, Rows: rows, Affected: out.Affected}, nil
}

// Query opens a server-side cursor over a SELECT and returns a Rows
// iterator that fetches pages lazily. The caller must Close the Rows (or
// drain it to completion); abandoning it leaves the server cursor to its
// TTL. With WithReadEndpoint configured, the query (and the cursor behind
// it) runs on the read replica, falling back to the primary when the
// replica is unreachable or sheds the request.
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	if rc := c.readClient(ctx); rc != nil {
		rows, err := rc.queryHere(ctx, sql)
		if err == nil {
			return rows, nil
		}
		if !IsTransient(err) {
			return nil, err
		}
		// The replica shed the read (down, degraded, or lagging past its
		// readiness gate): serve it from the primary instead.
	}
	return c.queryHere(ctx, sql)
}

// readClient lazily dials the configured read endpoint, returning nil when
// none is configured or the dial fails (the caller then uses the primary;
// the next read retries the dial).
func (c *Client) readClient(ctx context.Context) *Client {
	if c.readURL == "" || c.readURL == c.endpointURL() {
		return nil
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if c.readC != nil {
		return c.readC
	}
	rc, err := Dial(ctx, c.readURL, c.user, func(n *Client) {
		n.hc = c.hc
		n.token = c.token
		n.batchRows = c.batchRows
		n.level = c.level
		n.retryMax = c.retryMax
		n.retryBase = c.retryBase
	})
	if err != nil {
		return nil
	}
	c.readC = rc
	return rc
}

// queryHere opens the cursor on this client's own endpoint (no routing).
func (c *Client) queryHere(ctx context.Context, sql string) (*Rows, error) {
	body := map[string]any{"session": c.sessionID(), "sql": sql, "cursor": true}
	if c.level != "" {
		body["level"] = c.level
	}
	var out struct {
		Cursor  string   `json:"cursor"`
		Columns []string `json:"columns"`
	}
	// Opening a cursor is retryable: a cursor orphaned by a lost response
	// expires with its TTL, and the query has no side effects.
	if err := c.postIdem(ctx, "/v1/query", body, &out); err != nil {
		return nil, err
	}
	if out.Cursor == "" {
		return nil, errors.New("flockclient: server returned no cursor id")
	}
	return newRows(c, ctx, out.Cursor, out.Columns), nil
}

// Stmt is a prepared statement handle. The server may evict handles from
// its LRU; Query/Exec then return a 404 APIError and the statement must be
// re-prepared.
type Stmt struct {
	c      *Client
	handle string
	kind   string
}

// Prepare plans a statement once for repeated execution.
func (c *Client) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	body := map[string]any{"session": c.sessionID(), "sql": sql}
	if c.level != "" {
		body["level"] = c.level
	}
	var out struct {
		Stmt string `json:"stmt"`
		Kind string `json:"kind"`
	}
	if err := c.postIdem(ctx, "/v1/prepare", body, &out); err != nil {
		return nil, err
	}
	return &Stmt{c: c, handle: out.Stmt, kind: out.Kind}, nil
}

// Kind reports the prepared statement kind ("select", "insert", ...).
func (s *Stmt) Kind() string { return s.kind }

// Query opens a paging cursor over a prepared SELECT.
func (s *Stmt) Query(ctx context.Context) (*Rows, error) {
	var out struct {
		Cursor  string   `json:"cursor"`
		Columns []string `json:"columns"`
	}
	err := s.c.postIdem(ctx, "/v1/exec", map[string]any{
		"session": s.c.sessionID(), "stmt": s.handle, "cursor": true,
	}, &out)
	if err != nil {
		return nil, err
	}
	return newRows(s.c, ctx, out.Cursor, out.Columns), nil
}

// Exec runs a prepared statement and materializes the result.
func (s *Stmt) Exec(ctx context.Context) (*Result, error) {
	var out struct {
		Columns  []string            `json:"columns"`
		Rows     [][]json.RawMessage `json:"rows"`
		Affected int64               `json:"affected"`
	}
	err := s.c.post(ctx, "/v1/exec", map[string]any{
		"session": s.c.sessionID(), "stmt": s.handle,
	}, &out)
	if err != nil {
		return nil, err
	}
	rows, err := decodeRows(out.Rows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: out.Columns, Rows: rows, Affected: out.Affected}, nil
}

// PredictExpr renders a PREDICT(model, args...) SQL expression — the
// in-DBMS inference extension.
func PredictExpr(model string, args ...string) string {
	return fmt.Sprintf("PREDICT(%s, %s)", model, strings.Join(args, ", "))
}

// Predict scores every row of table through a deployed model, returning a
// paging Rows with a single "score" column. where, when non-empty, filters
// the input rows (base-table columns only).
func (c *Client) Predict(ctx context.Context, model, table string, args []string, where string) (*Rows, error) {
	q := fmt.Sprintf("SELECT %s AS score FROM %s", PredictExpr(model, args...), table)
	if where != "" {
		q += " WHERE " + where
	}
	return c.Query(ctx, q)
}

// PredictAbove scores table rows and keeps those whose score exceeds
// threshold — shaped so the engine's fused threshold-compare optimization
// applies (the score column feeds the selection kernel directly).
func (c *Client) PredictAbove(ctx context.Context, model, table string, args []string, threshold float64) (*Rows, error) {
	expr := PredictExpr(model, args...)
	q := fmt.Sprintf("SELECT %s AS score FROM %s WHERE %s > %g", expr, table, expr, threshold)
	return c.Query(ctx, q)
}

// ---- transport plumbing ----

// postIdem is post plus the bounded retry policy configured by WithRetry —
// for idempotent endpoints only. Re-running a query open or a fetch is safe
// by the server's design: a failed or timed-out fetch rolls its window
// back, and an orphaned cursor dies with its TTL. The delay honors the
// server's Retry-After advice when present, else jittered exponential
// backoff from the configured base.
func (c *Client) postIdem(ctx context.Context, path string, body, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.post(ctx, path, body, out)
		if err == nil || attempt >= c.retryMax || !IsTransient(err) || ctx.Err() != nil {
			return err
		}
		// Before backing off, try moving to a healthier endpoint (the
		// leader hint or a WithFailover candidate). The retried request
		// must ride the new endpoint's session.
		if c.maybeFailover(ctx, err) {
			if m, ok := body.(map[string]any); ok {
				if _, has := m["session"]; has {
					m["session"] = c.sessionID()
				}
			}
			continue // the new endpoint answers immediately; no backoff
		}
		delay := c.retryBase << attempt
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay))) // ±50% jitter
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			delay = ae.RetryAfter
		}
		if c.wait(ctx, delay) != nil {
			return err
		}
	}
}

// sleepCtx blocks for d, or until ctx is done and then reports why.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// post sends a JSON body to the current endpoint and decodes the response
// into out: JSON for most destinations, nothing for nil, and a binary page
// for a *pageBody. Non-2xx responses become *APIError.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.postTo(ctx, c.endpointURL(), path, body, out)
}

// postTo is post against an explicit base URL (the failover probe path).
func (c *Client) postTo(ctx context.Context, base, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	page, _ := out.(*pageBody)
	if page != nil {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return readAPIError(resp)
	}
	switch {
	case out == nil:
		io.Copy(io.Discard, resp.Body)
		return nil
	case page != nil:
		return page.readFrom(resp)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	return dec.Decode(out)
}

// pageBody is a post destination that asks for a binary columnar page
// (Accept: wire.ContentType) and keeps the response bytes in a buffer it
// reuses from one fetch to the next.
type pageBody struct{ bytes.Buffer }

// pagePresize bounds what a Content-Length header alone can make the
// client allocate; a longer body grows the buffer only as bytes arrive.
const pagePresize = 16 << 20

func (p *pageBody) readFrom(resp *http.Response) error {
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		return fmt.Errorf("flockclient: cursor fetch answered Content-Type %q, want %q (page format version %d): the SDK and the server must come from the same build",
			ct, wire.ContentType, wire.Version)
	}
	p.Reset()
	if n := resp.ContentLength; n > 0 && n <= pagePresize {
		p.Grow(int(n) + bytes.MinRead) // ReadFrom keeps MinRead bytes spare to find EOF
	}
	_, err := p.ReadFrom(resp.Body)
	return err
}

// readAPIError consumes an error response body ({"error": "..."}).
func readAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	ae := &APIError{Status: resp.StatusCode, Message: msg}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	ae.Leader = strings.TrimRight(resp.Header.Get("X-Flock-Leader"), "/")
	return ae
}

// decodeRows converts raw JSON cells into Go values (int64 where the
// number is integral, float64 otherwise, plus string/bool/nil).
func decodeRows(raw [][]json.RawMessage) ([][]any, error) {
	rows := make([][]any, len(raw))
	for i, r := range raw {
		row := make([]any, len(r))
		for j, cell := range r {
			v, err := decodeCell(cell)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows, nil
}

// decodeCell converts one row-JSON cell: a number without fraction or
// exponent that fits int64 is an int64 (exactly, past 2^53 too), any other
// number a float64; strings, booleans and null map to string, bool and nil.
func decodeCell(cell json.RawMessage) (any, error) {
	cell = bytes.TrimSpace(cell)
	if len(cell) == 0 {
		return nil, errors.New("flockclient: empty result cell")
	}
	switch c := cell[0]; {
	case c == '"':
		var s string
		if err := json.Unmarshal(cell, &s); err != nil {
			return nil, err
		}
		return s, nil
	case c == '-' || (c >= '0' && c <= '9'):
		// strconv accepts more than JSON does ("0x10", "1_0", "-Inf").
		if !json.Valid(cell) {
			break
		}
		if !bytes.ContainsAny(cell, ".eE") {
			if i, err := strconv.ParseInt(string(cell), 10, 64); err == nil {
				return i, nil
			}
		}
		f, err := strconv.ParseFloat(string(cell), 64)
		if err != nil {
			return nil, err
		}
		return f, nil
	case string(cell) == "true":
		return true, nil
	case string(cell) == "false":
		return false, nil
	case string(cell) == "null":
		return nil, nil
	}
	return nil, fmt.Errorf("flockclient: result cell %.40q is not a JSON scalar", cell)
}

// InferDeployment is the server's view of one candidate model deployment
// on the inference plane (see /v1/admin/infer/status).
type InferDeployment struct {
	Model     string  `json:"model"`
	Version   int     `json:"version"`
	Stage     string  `json:"stage"`
	Samples   int64   `json:"samples"`
	PSI       float64 `json:"psi"`
	Agreement float64 `json:"agreement"`
	Reason    string  `json:"reason,omitempty"`
}

// InferDeploy registers a model version as a candidate on the server's
// inference plane. Stage is "shadow" (observe only) or "canary" (mirrored
// traffic gates automatic promotion or rollback).
func (c *Client) InferDeploy(ctx context.Context, model string, version int, stage string) (*InferDeployment, error) {
	body := map[string]any{"session": c.sessionID(), "model": model, "version": version, "stage": stage}
	var out InferDeployment
	if err := c.post(ctx, "/v1/admin/infer/deploy", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InferPromote manually promotes the model's candidate to production,
// regardless of the canary gate's stats.
func (c *Client) InferPromote(ctx context.Context, model string) (*InferDeployment, error) {
	body := map[string]any{"session": c.sessionID(), "model": model}
	var out InferDeployment
	if err := c.post(ctx, "/v1/admin/infer/promote", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InferRollback manually rolls the model's candidate back; mirrored
// scoring stops.
func (c *Client) InferRollback(ctx context.Context, model string) (*InferDeployment, error) {
	body := map[string]any{"session": c.sessionID(), "model": model}
	var out InferDeployment
	if err := c.post(ctx, "/v1/admin/infer/rollback", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InferStatus reports every candidate deployment on the inference plane.
func (c *Client) InferStatus(ctx context.Context) ([]InferDeployment, error) {
	body := map[string]any{"session": c.sessionID()}
	var out struct {
		Deployments []InferDeployment `json:"deployments"`
	}
	if err := c.postIdem(ctx, "/v1/admin/infer/status", body, &out); err != nil {
		return nil, err
	}
	return out.Deployments, nil
}

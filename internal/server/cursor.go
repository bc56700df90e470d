package server

// Server-side cursor protocol. A paginating client opens a cursor once
// (POST /v1/query with "cursor": true), then pulls pages with
// POST /v1/cursor/fetch and releases it with POST /v1/cursor/close — the
// query is planned, governed, and (for blocking plans) executed exactly
// once, no matter how many pages are fetched. Cursors are session-scoped
// (only the opening session can fetch), TTL-bound (abandoned cursors are
// swept, and fetches against an expired or completed cursor get a distinct
// 410 so clients can tell "re-run the query" from "bad request"), and
// engine work per fetch goes through the same admission gate as queries.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/wire"
)

// cursorState classifies a cursor-id lookup.
type cursorState int

const (
	cursorLive cursorState = iota
	// cursorGone: the id did exist but the cursor expired, completed, or
	// was closed — a 410, distinct from never-existed (404).
	cursorGone
	cursorUnknown
)

// serverCursor is one open server-side cursor: a live engine cursor plus
// the session scope and per-fetch bookkeeping.
type serverCursor struct {
	id   string
	sess *session
	cur  engine.Cursor
	cols []string
	// types are the page-form type tags of cols, fixed at open.
	types []wire.Type

	// ctx descends from the owning session, so session close and server
	// shutdown abort an in-flight fetch and poison later ones; each fetch
	// derives its own deadline-bound child.
	ctx    context.Context
	cancel context.CancelFunc

	// mu serializes fetches on one cursor (engine cursors are not safe for
	// concurrent Next). The sweeper only reaps cursors it can TryLock, so
	// it never blocks behind a long fetch.
	mu       sync.Mutex
	lastUsed atomic.Int64 // unix nanos
	finished atomic.Bool

	// pending holds the unconsumed tail of the last engine batch: fetches
	// honor max_rows exactly (pages are the client's memory bound), so a
	// batch larger than the remaining page budget parks here until the
	// next fetch. Guarded by mu.
	pending *engine.Batch
	pendOff int
}

func (c *serverCursor) touch() { c.lastUsed.Store(time.Now().UnixNano()) }

// lock takes c.mu, giving up when ctx ends. The wait is bounded: a close
// or expiry cancels c.ctx, and every step's context descends from it.
func (c *serverCursor) lock(ctx context.Context) error {
	if c.mu.TryLock() {
		return nil
	}
	done := make(chan struct{})
	go func() { c.mu.Lock(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The lock grab is still in flight; hand its eventual acquisition
		// to a releaser so the mutex is not leaked.
		go func() { <-done; c.mu.Unlock() }()
		return ctx.Err()
	}
}

// cursorStore holds open server-side cursors, bounds them per session,
// expires idle ones, and remembers recently dead ids so expired fetches
// return 410 instead of 404.
type cursorStore struct {
	mu sync.Mutex
	m  map[string]*serverCursor
	// tomb maps recently dead cursor ids to the session that owned them:
	// only the owner gets the 410 (anyone else sees the same 404 as a
	// never-existed id, so ids don't leak liveness across sessions). It is
	// bounded, least recently used first out (dead ids are a courtesy for
	// clients, not a ledger).
	tomb *lru.Cache[string, string]

	ttl        time.Duration
	perSession int
	expired    *atomic.Uint64 // metrics: cursors reaped by the TTL sweep

	stop     chan struct{}
	stopOnce sync.Once
}

const cursorTombstones = 1024

func newCursorStore(ttl time.Duration, perSession int, expired *atomic.Uint64) *cursorStore {
	cs := &cursorStore{
		m: map[string]*serverCursor{}, tomb: lru.New[string, string](cursorTombstones),
		ttl: ttl, perSession: perSession, expired: expired,
		stop: make(chan struct{}),
	}
	go cs.sweep()
	return cs
}

// put registers a freshly opened engine cursor under a new id, counting it
// against the owning session (which also shields the session from TTL
// reaping while the cursor lives).
func (cs *cursorStore) put(sess *session, cur engine.Cursor, cols []string) (*serverCursor, error) {
	// Atomically reserve the session slot (increment first, check after):
	// concurrent opens cannot slip past the per-session cap together.
	if n := sess.cursors.Add(1); n > int64(cs.perSession) {
		sess.cursors.Add(-1)
		return nil, fmt.Errorf("server: session holds %d open cursors (limit %d); close some first", n-1, cs.perSession)
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		sess.cursors.Add(-1)
		return nil, fmt.Errorf("server: cursor id: %w", err)
	}
	ctx, cancel := context.WithCancel(sess.ctx)
	c := &serverCursor{
		id: hex.EncodeToString(buf[:]), sess: sess, cur: cur, cols: cols,
		types: pageTypes(cur.Schema()),
		ctx:   ctx, cancel: cancel,
	}
	c.touch()
	cs.mu.Lock()
	cs.m[c.id] = c
	cs.mu.Unlock()
	return c, nil
}

// get resolves a cursor id for one session, distinguishing live,
// recently-dead (410, owner only), and never-seen (404). Dead cursors of
// other sessions report unknown — same as never-existed.
func (cs *cursorStore) get(id, sessID string) (*serverCursor, cursorState) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c, ok := cs.m[id]; ok {
		return c, cursorLive
	}
	if owner, ok := cs.tomb.Get(id); ok && owner == sessID {
		return nil, cursorGone
	}
	return nil, cursorUnknown
}

// finish closes a cursor exactly once: removes it from the store, leaves a
// tombstone, cancels its context, closes the engine cursor, and releases
// the session's hold. Idempotent (reports whether this call did the
// close). The caller must NOT hold c.mu: finish cancels first (unwedging
// any in-flight fetch at its next cancellation checkpoint), then takes
// c.mu before closing the engine cursor — Close never runs under a live
// Next. Callers already holding c.mu use finishLocked.
func (cs *cursorStore) finish(c *serverCursor) bool {
	if !c.finished.CompareAndSwap(false, true) {
		return false
	}
	cs.retire(c)
	c.cancel()
	c.mu.Lock()
	_ = c.cur.Close()
	c.mu.Unlock()
	c.sess.cursors.Add(-1)
	return true
}

// finishLocked is finish for callers that already hold c.mu (the fetch
// handler's done/error paths and the sweeper's TryLock'd reap).
func (cs *cursorStore) finishLocked(c *serverCursor) bool {
	if !c.finished.CompareAndSwap(false, true) {
		return false
	}
	cs.retire(c)
	c.cancel()
	_ = c.cur.Close()
	c.sess.cursors.Add(-1)
	return true
}

// retire removes a cursor from the live map and tombstones its id.
func (cs *cursorStore) retire(c *serverCursor) {
	cs.mu.Lock()
	delete(cs.m, c.id)
	cs.tomb.Put(c.id, c.sess.id)
	cs.mu.Unlock()
}

// closeForSession releases every cursor a closing session still holds.
func (cs *cursorStore) closeForSession(sessID string) {
	cs.mu.Lock()
	var own []*serverCursor
	for _, c := range cs.m {
		if c.sess.id == sessID {
			own = append(own, c)
		}
	}
	cs.mu.Unlock()
	for _, c := range own {
		cs.finish(c)
	}
}

// closeAll releases every cursor (server shutdown).
func (cs *cursorStore) closeAll() {
	cs.mu.Lock()
	all := make([]*serverCursor, 0, len(cs.m))
	for _, c := range cs.m {
		all = append(all, c)
	}
	cs.mu.Unlock()
	for _, c := range all {
		cs.finish(c)
	}
}

func (cs *cursorStore) count() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.m)
}

func (cs *cursorStore) stopSweeper() { cs.stopOnce.Do(func() { close(cs.stop) }) }

// sweep expires cursors idle past the cursor TTL. A cursor mid-fetch holds
// its mutex, so TryLock both skips busy cursors and guarantees the engine
// cursor is never closed under a running Next.
func (cs *cursorStore) sweep() {
	interval := cs.ttl / 4
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-cs.stop:
			return
		case <-t.C:
			cutoff := time.Now().Add(-cs.ttl).UnixNano()
			cs.mu.Lock()
			var idle []*serverCursor
			for _, c := range cs.m {
				if c.lastUsed.Load() < cutoff {
					idle = append(idle, c)
				}
			}
			cs.mu.Unlock()
			for _, c := range idle {
				if !c.mu.TryLock() {
					continue // a fetch is running; it touched lastUsed anyway
				}
				reaped := cs.finishLocked(c)
				c.mu.Unlock()
				// Count only real reaps: a client close racing the sweep
				// makes finish a no-op.
				if reaped && cs.expired != nil {
					cs.expired.Add(1)
				}
			}
		}
	}
}

// ---- handlers ----

type fetchRequest struct {
	Session   string `json:"session"`
	Cursor    string `json:"cursor"`
	MaxRows   int    `json:"max_rows"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type cursorCloseRequest struct {
	Session string `json:"session"`
	Cursor  string `json:"cursor"`
}

// defaultFetchRows is the page size when a fetch names none — one engine
// batch on the serial path.
const defaultFetchRows = 4096

// maxFetchRows caps one page so a single fetch cannot be asked to
// materialize an unbounded result.
const maxFetchRows = 1 << 20

// errCursorExpired is the 410 body for fetches against dead cursors.
var errCursorExpired = errors.New("cursor expired or closed; re-run the query")

// resolveCursor maps a (session, cursor) pair to a live cursor or an HTTP
// error. Cursors are session-scoped: another session's id — live or dead —
// is a 404, not a hint the id exists.
func (s *Server) resolveCursor(sessID, curID string) (*session, *serverCursor, int, error) {
	sess, ok := s.sessions.get(sessID)
	if !ok {
		// The session may have just been expired (idle TTL or the hard
		// lifetime cap), which retires its cursors. The owner presenting the
		// dead pair still gets the precise 410 — this cursor is gone for
		// good — rather than a generic auth error inviting a blind retry.
		if _, state := s.cursors.get(curID, sessID); state == cursorGone {
			return nil, nil, http.StatusGone, errCursorExpired
		}
		return nil, nil, http.StatusUnauthorized, errors.New("unknown or expired session")
	}
	c, state := s.cursors.get(curID, sess.id)
	switch {
	case state == cursorGone:
		return nil, nil, http.StatusGone, errCursorExpired
	case state == cursorUnknown, c.sess.id != sess.id:
		return nil, nil, http.StatusNotFound, errors.New("unknown cursor")
	}
	return sess, c, 0, nil
}

// handleCursorFetch pulls the next page from a server-side cursor. The
// page is one engine step: the cursor lock, then a worker slot, both held
// only for this page — paginating clients never pin the pool between
// fetches.
func (s *Server) handleCursorFetch(w http.ResponseWriter, r *http.Request) {
	var req fetchRequest
	if !decodeBody(w, r, &req, "fetch") {
		return
	}
	sess, c, status, err := s.resolveCursor(req.Session, req.Cursor)
	if err != nil {
		writeError(w, status, err)
		return
	}
	maxRows := req.MaxRows
	if maxRows <= 0 {
		maxRows = defaultFetchRows
	}
	if maxRows > maxFetchRows {
		maxRows = maxFetchRows
	}
	q, ok := s.admit(w, r, sess, c, s.timeout(req.TimeoutMS), "fetch")
	defer q.exit()
	if !ok {
		return
	}
	c.touch()

	// The page is built in the form the request asked for: the binary
	// columnar page for an SDK that sent the page type in Accept (column
	// slices go straight into a pooled buffer), row-JSON from zero-copy
	// batch slices for everyone else.
	var (
		runs   jsonRows
		enc    *wire.Encoder
		pulled int
	)
	if r.Header.Get("Accept") == wire.ContentType {
		enc = pageEncoders.Get().(*wire.Encoder)
		defer putPageEncoder(enc)
		enc.Begin(c.types)
	}
	emit := func(b *engine.Batch, lo, hi int) {
		if enc != nil {
			appendChunk(enc, b, lo, hi)
		} else {
			runs = append(runs, b.Slice(lo, hi))
		}
		pulled += hi - lo
	}
	done := false
	for pulled < maxRows {
		// Drain the parked tail of the previous batch before pulling more.
		if c.pending != nil {
			take := maxRows - pulled
			if avail := c.pending.N - c.pendOff; take >= avail {
				emit(c.pending, c.pendOff, c.pending.N)
				c.pending, c.pendOff = nil, 0
				continue
			}
			emit(c.pending, c.pendOff, c.pendOff+take)
			c.pendOff += take
			break
		}
		b, err := c.cur.Next(q.ctx)
		if err == io.EOF {
			done = true
			break
		}
		if err != nil {
			if status, _ := classifyErr(err); status == http.StatusGatewayTimeout || status == 499 {
				// Deadline/disconnect: the engine rolled back the failing
				// window and the cursor stays open. Rows already pulled
				// this fetch are PAST the rollback point, so deliver them
				// as a short page rather than dropping them — a retry then
				// resumes exactly after what the client received.
				if pulled > 0 {
					break
				}
			} else {
				// Execution errors are sticky in the engine cursor: release it.
				s.cursors.finishLocked(c)
			}
			q.fail(err)
			return
		}
		c.pending, c.pendOff = b, 0
	}

	// Encode before the status line goes out: a page that cannot be encoded
	// (row-JSON cannot carry a non-finite float) is an execution error with
	// a body that says so, not a 200 with nothing after it.
	var body []byte
	var encErr error
	contentType := "application/json"
	if enc != nil {
		body, encErr = enc.Finish(done)
		contentType = wire.ContentType
	} else {
		buf := jsonBufs.Get().(*bytes.Buffer)
		defer putJSONBuf(buf)
		encErr = encodeJSON(buf, map[string]any{
			"columns": c.cols,
			"rows":    runs,
			"done":    done,
		})
		body = buf.Bytes()
	}
	if encErr != nil {
		// The rows were consumed from the engine cursor and cannot be
		// re-served, so the cursor is released like any sticky error.
		s.cursors.finishLocked(c)
		q.fail(encErr)
		return
	}
	if done {
		s.cursors.finishLocked(c)
	}
	c.touch()
	q.observe("ok")
	if enc != nil {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	writeBody(w, http.StatusOK, contentType, body)
}

// pageEncoders recycles page buffers across fetches.
var pageEncoders = sync.Pool{New: func() any { return new(wire.Encoder) }}

// maxPooledBuf keeps one giant page or response from pinning its buffer in
// a pool forever.
const maxPooledBuf = 4 << 20

func putPageEncoder(e *wire.Encoder) {
	if e.Cap() <= maxPooledBuf {
		pageEncoders.Put(e)
	}
}

// pageTypes maps a result schema to page type tags.
func pageTypes(schema engine.Schema) []wire.Type {
	types := make([]wire.Type, len(schema))
	for i, m := range schema {
		switch m.Type {
		case engine.TypeInt:
			types[i] = wire.Int64
		case engine.TypeFloat:
			types[i] = wire.Float64
		case engine.TypeString:
			types[i] = wire.String
		case engine.TypeBool:
			types[i] = wire.Bool
		}
	}
	return types
}

// appendChunk appends rows [lo, hi) of b to the page as one chunk, straight
// from the engine's column slices.
func appendChunk(enc *wire.Encoder, b *engine.Batch, lo, hi int) {
	enc.Rows(hi - lo)
	for i := range b.Cols {
		switch col := &b.Cols[i]; col.Type {
		case engine.TypeInt:
			enc.Ints(col.Ints[lo:hi])
		case engine.TypeFloat:
			enc.Floats(col.Floats[lo:hi])
		case engine.TypeString:
			enc.Strings(col.Strs[lo:hi])
		case engine.TypeBool:
			enc.Bools(col.Bools[lo:hi])
		}
	}
}

// handleCursorClose releases a cursor early. Closing an already-dead
// cursor is a no-op 204 (close is how clients clean up; it must not race
// the sweeper into an error).
func (s *Server) handleCursorClose(w http.ResponseWriter, r *http.Request) {
	var req cursorCloseRequest
	if !decodeBody(w, r, &req, "cursor close") {
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	c, state := s.cursors.get(req.Cursor, sess.id)
	switch state {
	case cursorGone:
		w.WriteHeader(http.StatusNoContent)
		return
	case cursorUnknown:
		writeError(w, http.StatusNotFound, errors.New("unknown cursor"))
		return
	}
	if c.sess.id != sess.id {
		writeError(w, http.StatusNotFound, errors.New("unknown cursor"))
		return
	}
	s.cursors.finish(c)
	w.WriteHeader(http.StatusNoContent)
}

// openCursor runs the open half of the cursor protocol for "cursor": true:
// admission, the governed open (core.Flock.QueryPrepared: planning plus any
// blocking materialization, deadline-bound, under a worker slot), and
// registration in the store. It answers with the cursor's id.
func (s *Server) openCursor(w http.ResponseWriter, r *http.Request, sess *session,
	timeoutMS int64, p *core.Prepared) {

	q, ok := s.admit(w, r, sess, nil, s.timeout(timeoutMS), "select")
	defer q.exit()
	if !ok {
		return
	}
	cur, err := s.flock.QueryPrepared(q.ctx, sess.user, p)
	q.release() // open work (planning, blocking materialization) is done
	if err != nil {
		q.fail(err)
		return
	}
	cols := cur.Schema().Names()
	c, err := s.cursors.put(sess, cur, cols)
	if err != nil {
		_ = cur.Close()
		q.observe("rejected")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	q.observe("ok")
	writeJSON(w, http.StatusOK, map[string]any{
		"cursor":  c.id,
		"columns": cols,
		"ttl_s":   s.cfg.CursorTTL.Seconds(),
	})
}

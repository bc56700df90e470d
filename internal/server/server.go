// Package server is the concurrent SQL/PREDICT serving layer over
// core.Flock: an HTTP+JSON front end with authenticated sessions (session
// identity feeds the existing governance and audit path), prepared
// statements backed by an LRU plan cache, admission control (bounded worker
// pool plus a bounded wait queue with rejection), per-query deadlines,
// cursor paging, a Prometheus-style /metrics endpoint, and
// graceful shutdown with engine-wide cancellation — the seam the paper's
// "heavy traffic from millions of users" scaling work plugs into.
//
// Wire API (JSON bodies unless noted):
//
//	POST   /v1/sessions        {user, token}            -> {session, user}
//	DELETE /v1/sessions/{id}                            -> 204
//	POST   /v1/query           {session, sql, timeout_ms, level, cursor}
//	POST   /v1/prepare         {session, sql, level}    -> {stmt, kind, cached}
//	POST   /v1/exec            {session, stmt, timeout_ms, cursor}
//	POST   /v1/cursor/fetch    {session, cursor, max_rows, timeout_ms} -> {columns, rows, done}
//	POST   /v1/cursor/close    {session, cursor}        -> 204
//	POST   /v1/admin/reopen    {session}                -> {"status":"ok"} (recover a degraded instance)
//	POST   /v1/admin/promote   {session}                -> {"status":"ok", epoch} (promote this replica to leader)
//	POST   /v1/admin/repoint   {session, leader}        -> {"status":"ok"} (re-point this node at a new leader)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            {"status":"ok"} (liveness: the process serves)
//	GET    /readyz             {"status":"ready"} | 503 {"status":"degraded", ...} (readiness: writes accepted)
//
// A result is either one JSON answer or a cursor: "cursor": true opens a
// server-side cursor (TTL-bound, session-scoped) that /v1/cursor/fetch
// pages through without ever re-running the query, with O(batch) server
// memory. Request bodies are capped at maxBodyBytes. See docs/api.md for
// the full wire protocol.
//
// The optional subsystems (durability, inference plane, replication node,
// score monitors, a readiness gate) are Config fields that New wires once;
// after New only counters and the session and cursor stores change. Every
// request that does engine work follows one lifecycle (request, in
// admission.go): admit derives its context and takes its first step — the
// cursor lock when it works on a cursor, then a worker slot — each engine
// step holds a slot, nothing client-paced does, and every failure leaves
// through fail.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/infer"
	"repro/internal/lru"
	"repro/internal/monitor"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/repl"
)

// Config tunes the serving layer. The zero value gets sane defaults from
// normalize.
type Config struct {
	// MaxWorkers bounds concurrently executing queries; defaults to
	// GOMAXPROCS (at least 4).
	MaxWorkers int
	// MaxQueue bounds queries waiting for a worker slot; beyond it requests
	// are rejected with 503. Defaults to 64.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// defaults to 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts; defaults to 5m.
	MaxTimeout time.Duration
	// SessionTTL expires idle sessions; defaults to 30m. Sessions holding
	// open server-side cursors are not reaped (CursorTTL expires those
	// first).
	SessionTTL time.Duration
	// SessionMaxLifetime hard-caps a session's total lifetime: past it the
	// session expires even while holding open cursors or running queries,
	// and its cursors answer subsequent fetches with the 410 tombstone.
	// Bounds the cursor exemption from SessionTTL so an abandoned session
	// with an open cursor cannot pin server state forever. Defaults to 24h.
	SessionMaxLifetime time.Duration
	// CursorTTL expires idle server-side cursors; defaults to 5m.
	CursorTTL time.Duration
	// MaxCursorsPerSession bounds open server-side cursors per session;
	// defaults to 16.
	MaxCursorsPerSession int
	// PlanCacheSize bounds the prepared-plan LRU; defaults to 256 entries.
	PlanCacheSize int
	// Level is the optimization level for queries that don't specify one.
	// The zero value means "use the Flock DB default" (per-request "level"
	// can still force any level, including udf).
	Level opt.Level
	// Authenticate validates a (user, token) pair at session creation.
	// nil allows any non-empty user (development mode).
	Authenticate func(user, token string) error
	// OnSession runs after successful authentication (e.g. to grant roles).
	OnSession func(user string)

	// The subsystems below are wired once, by New; nil leaves one out.

	// Durability exports its gauges on /metrics and backs
	// /v1/admin/reopen (its Reopen also syncs the audit log and counts the
	// fold as a checkpoint). Without it reopen is the engine's ReopenWAL.
	Durability *core.Durability
	// Infer mounts /v1/admin/infer/* and exports the plane's gauges.
	Infer *infer.Plane
	// Repl mounts the replication endpoints and /v1/admin/{promote,repoint},
	// exports the node's gauges, and adds its role and epoch to /readyz.
	Repl *repl.Node
	// Monitors export their drift state on /metrics.
	Monitors []*monitor.ScoreMonitor
	// Ready extends /readyz beyond the degraded and fenced probes (replica
	// mode gates on replication lag): an error answers 503 with its message.
	Ready func() error
}

func (c Config) normalize() Config {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
		if c.MaxWorkers < 4 {
			c.MaxWorkers = 4
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.SessionMaxLifetime <= 0 {
		c.SessionMaxLifetime = 24 * time.Hour
	}
	if c.CursorTTL <= 0 {
		c.CursorTTL = 5 * time.Minute
	}
	if c.MaxCursorsPerSession <= 0 {
		c.MaxCursorsPerSession = 16
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	return c
}

// Server serves a Flock instance over HTTP.
type Server struct {
	flock *core.Flock
	cfg   Config

	mux     *http.ServeMux
	httpSrv *http.Server
	lnMu    sync.Mutex
	ln      net.Listener

	baseCtx    context.Context
	cancelBase context.CancelFunc

	sessions *sessionStore
	adm      *admission
	met      *metrics
	plans    *lru.Cache[string, planEntry] // keyed by statement handle
	cursors  *cursorStore
}

// New assembles a server over flock and mounts every route, the routes of
// the subsystems cfg names included. Call Serve/ListenAndServe to accept
// connections, or mount Handler() yourself (tests use httptest).
func New(flock *core.Flock, cfg Config) *Server {
	cfg = cfg.normalize()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		flock:      flock,
		cfg:        cfg,
		mux:        http.NewServeMux(),
		baseCtx:    base,
		cancelBase: cancel,
		met:        newMetrics(),
	}
	s.adm = newAdmission(cfg.MaxWorkers, cfg.MaxQueue, s.met)
	s.plans = lru.New[string, planEntry](cfg.PlanCacheSize)
	s.cursors = newCursorStore(cfg.CursorTTL, cfg.MaxCursorsPerSession, &s.met.cursorsExpired)
	// A session hitting the hard lifetime cap retires its cursors, so a
	// fetch on one answers 410 (gone) instead of 404 (never existed).
	s.sessions = newSessionStore(base, cfg.SessionTTL, cfg.SessionMaxLifetime,
		func(sess *session) { s.cursors.closeForSession(sess.id) })

	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/exec", s.handleExec)
	s.mux.HandleFunc("POST /v1/cursor/fetch", s.handleCursorFetch)
	s.mux.HandleFunc("POST /v1/cursor/close", s.handleCursorClose)
	s.mux.HandleFunc("POST /v1/admin/reopen", s.handleAdminReopen)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: a degraded (read-only) instance is still alive and
		// serving reads, so /healthz stays ok — restarts don't heal a bad
		// disk. Readiness is /readyz's job.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Infer != nil {
		s.routeInfer(cfg.Infer)
	}
	if cfg.Repl != nil {
		cfg.Repl.Register(s.mux)
		s.mux.HandleFunc("POST /v1/admin/promote", s.handleAdminPromote)
		s.mux.HandleFunc("POST /v1/admin/repoint", s.handleAdminRepoint)
	}

	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the HTTP handler (for mounting under a custom server).
//
//flockvet:ignore deadexport mounts the server under httptest in the server and SDK tests
func (s *Server) Handler() http.Handler { return s.mux }

// handleReadyz is the readiness probe: 200 while the instance accepts
// writes, 503 with the degradation reason once the WAL is poisoned and the
// DB is read-only. Load balancers route writes away on 503; /healthz stays
// 200 so orchestrators don't restart a process that a restart cannot heal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Replication context rides on every readiness answer so operators and
	// probes see the role and epoch without a second request.
	ready := func(status int, fields map[string]any) {
		if n := s.cfg.Repl; n != nil {
			fields["role"], fields["epoch"] = n.Role(), n.Epoch()
		}
		writeJSON(w, status, fields)
	}
	if fenced, observed, source := s.flock.DB.Fenced(); fenced {
		// A deposed leader can never ack a write again: route traffic away.
		ready(http.StatusServiceUnavailable, map[string]any{
			"status": "fenced", "mode": "read-only",
			"reason": fmt.Sprintf("a newer leader at epoch %d was observed via %s", observed, source),
		})
		return
	}
	if down, reason := s.flock.DB.Degraded(); down {
		ready(http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "mode": "read-only", "reason": reason,
		})
		return
	}
	if s.cfg.Ready != nil {
		if err := s.cfg.Ready(); err != nil {
			ready(http.StatusServiceUnavailable, map[string]any{
				"status": "not-ready", "reason": err.Error(),
			})
			return
		}
	}
	ready(http.StatusOK, map[string]any{"status": "ready"})
}

// handleAdminReopen recovers a degraded instance back to read-write (see
// engine.ReopenWAL): operator-triggered, session-authenticated, audited.
func (s *Server) handleAdminReopen(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
	}
	user, ok := s.adminSession(w, r, &req, &req.Session)
	if !ok {
		return
	}
	wasDegraded, _ := s.flock.DB.Degraded()
	reopen := s.flock.DB.ReopenWAL
	if s.cfg.Durability != nil {
		reopen = s.cfg.Durability.Reopen
	}
	err := reopen()
	s.flock.Audit.Record(user, "admin.reopen", "", fmt.Sprintf("degraded=%v", wasDegraded), err == nil)
	if err != nil {
		// The disk is still bad: the instance stays degraded and the error
		// says why. 503 matches what writes are returning.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "was_degraded": wasDegraded})
}

// handleAdminPromote promotes this replica into the leader of a new epoch
// (see repl.Node.Promote): operator-triggered, session-authenticated,
// audited. Idempotent on an already-promoted node.
func (s *Server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
	}
	user, ok := s.adminSession(w, r, &req, &req.Session)
	if !ok {
		return
	}
	n := s.cfg.Repl // mounted only when set
	epoch, err := n.Promote(r.Context())
	s.flock.Audit.Record(user, "admin.promote", "", fmt.Sprintf("epoch=%d", epoch), err == nil)
	if err != nil {
		// The node is still a follower (Promote's contract); 409 says the
		// operation could not proceed, not that the server is down.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": epoch, "role": n.Role()})
}

// handleAdminRepoint re-targets this node at a new leader (see
// repl.Node.Repoint): a follower swaps its tailing URL, a (typically
// fenced) leader demotes to a replica of it. Session-authenticated,
// audited.
func (s *Server) handleAdminRepoint(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Leader  string `json:"leader"`
	}
	user, ok := s.adminSession(w, r, &req, &req.Session)
	if !ok {
		return
	}
	if req.Leader == "" {
		writeError(w, http.StatusBadRequest, errors.New("repoint requires a leader URL"))
		return
	}
	n := s.cfg.Repl // mounted only when set
	err := n.Repoint(r.Context(), req.Leader)
	s.flock.Audit.Record(user, "admin.repoint", "", "leader="+req.Leader, err == nil)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": n.Role(), "leader": req.Leader})
}

// setLeaderHint stamps X-Flock-Leader on read-only rejections from a
// replica, so a client that wrote to the wrong node learns where the
// leader is without a config push (the SDK follows it during failover).
func (s *Server) setLeaderHint(w http.ResponseWriter, err error) {
	if !errors.Is(err, engine.ErrReadOnly) {
		return
	}
	if leader := s.flock.DB.ReplicaSource(); leader != "" {
		w.Header().Set("X-Flock-Leader", leader)
	}
}

// retryAfterSeconds derives backpressure advice from live pressure instead
// of a constant: the deeper the wait queue relative to the worker pool, the
// longer shed clients should back off. Bounded to [1, 30] so advice stays
// actionable.
func (s *Server) retryAfterSeconds() int {
	secs := 1 + int(s.adm.queued.Load())/s.cfg.MaxWorkers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// setRetryAfter stamps the derived backoff on a 503 response.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr reports the bound address ("" before Serve).
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server: stop accepting, wait for in-flight requests
// up to ctx's deadline, then cancel the base context so any straggling
// query aborts at its next batch boundary (engine-wide cancellation).
func (s *Server) Shutdown(ctx context.Context) error {
	s.sessions.stopSweeper()
	s.cursors.stopSweeper()
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// Drain window expired: cancel every session (and through them
		// every running query), then force-close connections.
		s.cancelBase()
		_ = s.httpSrv.Close()
	}
	s.cancelBase()
	s.cursors.closeAll()
	s.sessions.closeAll()
	return err
}

// ---- request/response shapes ----

type sessionRequest struct {
	User  string `json:"user"`
	Token string `json:"token"`
}

type queryRequest struct {
	noStream
	Session   string `json:"session"`
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms"`
	Level     string `json:"level"`
	// Cursor opens a server-side cursor instead of returning rows: the
	// response carries a cursor id for /v1/cursor/fetch. SELECT only.
	Cursor bool `json:"cursor"`
}

type prepareRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Level   string `json:"level"`
}

type execRequest struct {
	noStream
	Session   string `json:"session"`
	Stmt      string `json:"stmt"`
	TimeoutMS int64  `json:"timeout_ms"`
	// Cursor opens a server-side cursor over a prepared SELECT.
	Cursor bool `json:"cursor"`
}

// noStream refuses "stream": true, the NDJSON response mode that paging a
// cursor replaced. Decoding ignores unknown fields, so without it such a
// client would silently get one JSON answer instead.
type noStream struct {
	Stream bool `json:"stream"`
}

var errNoStream = errors.New(`"stream" is not supported: open a cursor ("cursor": true) and page it with /v1/cursor/fetch`)

// queryResponse always carries columns and rows (as [] rather than null or
// an absent key for empty results), so clients can index unconditionally.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      jsonRows `json:"rows"`
	Affected  int64    `json:"affected"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// jsonBufs recycles response buffers: a body is encoded in full before the
// status line is written, so an encode failure can still answer with an
// error status.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putJSONBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		jsonBufs.Put(buf)
	}
}

// encodeJSON appends to buf the bytes json.NewEncoder(w).Encode(v) writes.
func encodeJSON(buf *bytes.Buffer, v any) error {
	err := json.NewEncoder(buf).Encode(v)
	if errors.Is(err, errNonFiniteJSON) {
		return errNonFiniteJSON // unwrapped from json.MarshalerError
	}
	return err
}

// writeJSON answers with v as JSON, or with the error that kept v from
// being encoded.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	if err := encodeJSON(buf, v); err != nil {
		status, _ = classifyErr(err)
		buf.Reset()
		_ = encodeJSON(buf, map[string]string{"error": err.Error()}) // a string map always encodes
	}
	writeBody(w, status, "application/json", buf.Bytes())
}

// writeBody sends an already encoded response.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client's disconnect
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a request body. The largest body an in-tree client
// sends is a bulk-load statement, a 1000-row INSERT … VALUES of tens of KB.
const maxBodyBytes = 1 << 20

// decodeBody reads r's JSON body into v, never more than maxBodyBytes of
// it. On failure it has answered: 413 past the cap, else 400 naming what.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s request body exceeds %d bytes", what, tooLarge.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s request: %w", what, err))
	}
	return false
}

// ---- handlers ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if !decodeBody(w, r, &req, "session") {
		return
	}
	if req.User == "" {
		writeError(w, http.StatusBadRequest, errors.New("user is required"))
		return
	}
	if s.cfg.Authenticate != nil {
		if err := s.cfg.Authenticate(req.User, req.Token); err != nil {
			s.flock.Audit.Record(req.User, "login", "", "rejected", false)
			writeError(w, http.StatusUnauthorized, errors.New("authentication failed"))
			return
		}
	}
	if s.cfg.OnSession != nil {
		s.cfg.OnSession(req.User)
	}
	sess, err := s.sessions.create(req.User)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.flock.Audit.Record(req.User, "login", "", "session "+sess.id[:8], true)
	writeJSON(w, http.StatusOK, map[string]any{
		"session": sess.id,
		"user":    sess.user,
		"ttl_s":   s.cfg.SessionTTL.Seconds(),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Release the session's server-side cursors first, so their engine
	// cursors close deterministically rather than waiting for the TTL.
	s.cursors.closeForSession(id)
	if !s.sessions.close(id) {
		writeError(w, http.StatusNotFound, errors.New("unknown session"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req, "query") {
		return
	}
	if req.Stream {
		writeError(w, http.StatusBadRequest, errNoStream)
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	level, err := s.levelOf(req.Level)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Parsed before admission: a parse failure is a bad request (audited
	// by core as "parse"), counted under the "other" latency family.
	start := time.Now()
	stmts, err := s.flock.Parse(sess.user, req.SQL, level)
	if err != nil {
		s.met.observeQuery("other", "error", time.Since(start))
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.dispatch(w, r, sess, req.TimeoutMS, req.Cursor, stmts...)
}

// planEntry is one plan-cache entry. The plan cache (Server.plans) is an
// LRU of prepared statements keyed by statement handle, the deterministic
// "ps_<hash>" of (SQL, opt.Level), so /v1/prepare and /v1/exec resolve
// through one map and prepared-statement state is bounded by the cache
// capacity — a client preparing per request cannot grow server memory. An
// evicted handle answers 404 and the client re-prepares. Staleness is NOT
// the cache's problem: core.Prepared
// revalidates its plan against the catalog and model-registry generations
// on every execution, so the cache only ever amortizes work,
// never serves stale results.
type planEntry struct {
	key string // planKey of the statement: a handle collision reads as a miss
	p   *core.Prepared
}

func planKey(sql string, level opt.Level) string {
	return strconv.Itoa(int(level)) + "\x00" + sql
}

// handleOf derives the stable statement handle for a cache key: the same
// (SQL, level) always yields the same handle, so clients may cache it.
func handleOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "ps_" + hex.EncodeToString(sum[:12])
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !decodeBody(w, r, &req, "prepare") {
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	level, err := s.levelOf(req.Level)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Planning is real work (optimizer passes, stats-driven model
	// rewrites), so prepares go through the same admission gate as
	// queries — prepare floods cannot starve query traffic. The deadline
	// and disconnect handling bound the queue wait; planning itself is
	// short (no table scans) and runs to completion once admitted. No
	// latency family: a prepare is not a query.
	q, ok := s.admit(w, r, sess, nil, s.cfg.DefaultTimeout, "")
	defer q.exit()
	if !ok {
		return
	}

	key := planKey(req.SQL, level)
	handle := handleOf(key)
	e, ok := s.plans.Get(handle)
	p, cached := e.p, ok && e.key == key
	if cached {
		s.met.planHits.Add(1)
		// Cache-shared plans still require this user to pass governance.
		if err := s.flock.CheckPrepared(sess.user, p); err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
	} else {
		s.met.planMisses.Add(1)
		// Access is checked before planning: an unauthorized user gets a
		// 403 and an audit record, not planner output.
		p, err = s.flock.PrepareAs(sess.user, req.SQL, level)
		if err != nil {
			var perm *governance.PermissionError
			if errors.As(err, &perm) {
				writeError(w, http.StatusForbidden, err)
				return
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if s.plans.Put(handle, planEntry{key: key, p: p}) {
			s.met.planEvictions.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stmt": handle, "kind": p.Kind(), "cached": cached,
	})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if !decodeBody(w, r, &req, "exec") {
		return
	}
	if req.Stream {
		writeError(w, http.StatusBadRequest, errNoStream)
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	e, ok := s.plans.Get(req.Stmt)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown prepared statement (evicted or never prepared); re-prepare"))
		return
	}
	s.dispatch(w, r, sess, req.TimeoutMS, req.Cursor, e.p)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gauges := map[string]float64{
		"flock_admission_inflight":    float64(s.adm.inflight.Load()),
		"flock_admission_queue_depth": float64(s.adm.queued.Load()),
		"flock_sessions_active":       float64(s.sessions.count()),
		"flock_plan_cache_entries":    float64(s.plans.Len()),
		// Engine operator workers running right now across every in-flight
		// query: the live intra-query parallel degree.
		"flock_exec_workers": float64(engine.ActiveWorkers()),
		// Server-side cursors currently open and engine cursors open across the whole process: the two diverging
		// for long means a leak.
		"flock_cursors_open":        float64(s.cursors.count()),
		"flock_engine_cursors_open": float64(engine.CursorsOpen()),
	}
	// Fsync amortization: committed records per group-commit fsync (0 until
	// the first durable commit; ~1 under serial writers; >1 when concurrent
	// writers share sync batches).
	syncs, records := s.flock.DB.WALGroupCommitStats()
	gauges["flock_wal_group_commit_syncs"] = float64(syncs)
	if syncs > 0 {
		gauges["flock_wal_group_commit_batch"] = float64(records) / float64(syncs)
	} else {
		gauges["flock_wal_group_commit_batch"] = 0
	}
	// Degradation state straight from the engine, so the gauges exist even
	// without a durability subsystem (one exports the same values — map
	// assignment keeps them single).
	gauges["flock_degraded_mode"], gauges["flock_wal_poisoned"] = 0, 0
	if down, _ := s.flock.DB.Degraded(); down {
		gauges["flock_degraded_mode"], gauges["flock_wal_poisoned"] = 1, 1
	}
	// Log position and durable watermark: what replication lag is measured
	// against (a follower's flock_repl_apply_lsn converging to the
	// leader's flock_wal_last_lsn is the smoke-test invariant).
	gauges["flock_wal_last_lsn"] = float64(s.flock.DB.LastLSN())
	gauges["flock_wal_durable_lsn"] = float64(s.flock.DB.DurableLSN())
	gauges["flock_retry_after_seconds"] = float64(s.retryAfterSeconds())
	// Scorer resilience: per-endpoint circuit-breaker state plus the
	// process-wide retry/fallback counters (present even before the first
	// remote scorer is built — the registry is process-wide).
	maps.Copy(gauges, onnx.BreakerGauges())
	if d := s.cfg.Durability; d != nil {
		maps.Copy(gauges, d.Gauges())
	}
	if p := s.cfg.Infer; p != nil {
		maps.Copy(gauges, p.Gauges())
	}
	if n := s.cfg.Repl; n != nil {
		maps.Copy(gauges, n.Gauges())
	}
	for _, m := range s.cfg.Monitors {
		label := fmt.Sprintf(`flock_monitor_window_size{model=%q}`, m.Model)
		gauges[label] = float64(m.WindowSize())
		gauges[fmt.Sprintf(`flock_monitor_alerts{model=%q}`, m.Model)] = float64(len(m.Alerts()))
		if psi, err := m.PSI(); err == nil {
			gauges[fmt.Sprintf(`flock_monitor_psi{model=%q}`, m.Model)] = psi
			gauges[fmt.Sprintf(`flock_monitor_drift_status{model=%q}`, m.Model)] = float64(monitor.StatusOf(psi))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.writeProm(w, gauges)
}

// dispatch is where /v1/query and /v1/exec meet: it runs parsed statements
// through admission control, deadline management, the governed engine path
// and result encoding, recording metrics for every outcome. A cursor opens
// a server-side cursor; anything else runs each statement to completion and
// answers with the last result. The latency family is "select" when every
// statement is a SELECT, else "dml".
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, sess *session,
	timeoutMS int64, cursor bool, stmts ...*core.Prepared) {

	kind := "select"
	for _, p := range stmts {
		if p.Kind() != "select" {
			kind = "dml"
		}
	}
	if cursor {
		if len(stmts) != 1 || kind != "select" {
			writeError(w, http.StatusBadRequest, errors.New("cursor requires a single SELECT statement"))
			return
		}
		s.openCursor(w, r, sess, timeoutMS, stmts[0])
		return
	}

	q, ok := s.admit(w, r, sess, nil, s.timeout(timeoutMS), kind)
	defer q.exit()
	if !ok {
		return
	}
	var res *engine.Result
	var err error
	for _, p := range stmts {
		if res, err = s.flock.ExecPrepared(q.ctx, sess.user, p); err != nil {
			break
		}
	}
	// The result is fully materialized: release the worker slot BEFORE
	// encoding, so a slow-reading client stalls only its own connection,
	// never the worker pool.
	q.release()
	if err != nil {
		q.fail(err)
		return
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	if err := encodeJSON(buf, queryResponse{
		Columns: res.Schema.Names(), Rows: jsonRows{&res.RowSet}, Affected: res.Affected,
		ElapsedMS: millis(q.elapsed()),
	}); err != nil {
		q.fail(err)
		return
	}
	q.observe("ok")
	writeBody(w, http.StatusOK, "application/json", buf.Bytes())
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// classifyErr maps an execution error to an HTTP status and a metrics
// status label.
func classifyErr(err error) (int, string) {
	var perm *governance.PermissionError
	var se *onnx.ScoreError
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusServiceUnavailable, "rejected"
	case errors.Is(err, repl.ErrQuorumTimeout):
		// The write is locally durable and installed but a follower quorum
		// did not ack in time: an ambiguous commit, like a response lost on
		// the wire. 503 (not 400) so clients treat it as a timeout; the SDK
		// never auto-retries writes, so no duplication risk.
		return http.StatusServiceUnavailable, "quorum-timeout"
	case errors.Is(err, engine.ErrReadOnly) || errors.Is(err, engine.ErrWALPoisoned):
		// The instance degraded to read-only (poisoned WAL): the write is
		// refused but the condition is the server's, not the request's. 503
		// tells load balancers to route writes elsewhere; reads still serve.
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// 499: client closed request (nginx convention) — the session was
		// closed, the client disconnected, or the server is shutting down.
		return 499, "canceled"
	case errors.Is(err, errCursorExpired):
		// Closed or expired while the request waited on it: canceled by the
		// close, and the cursor's distinct 410 tells the client why.
		return http.StatusGone, "canceled"
	case errors.As(err, &perm):
		return http.StatusForbidden, "denied"
	case errors.As(err, &se):
		// A typed scoring-transport failure (connect/timeout/HTTP 5xx from
		// the remote backend, or an open circuit breaker).
		return http.StatusBadGateway, "backend"
	case strings.HasPrefix(err.Error(), "onnx:"):
		// A scoring-backend failure (e.g. the remote model service is
		// down) is an upstream fault, not a bad request — 502 keeps 5xx
		// alerting honest. The repo's error-prefix convention makes the
		// origin identifiable without an error taxonomy.
		return http.StatusBadGateway, "backend"
	default:
		return http.StatusBadRequest, "error"
	}
}

// timeout is a request's deadline: timeout_ms when given, else
// DefaultTimeout, never beyond MaxTimeout.
func (s *Server) timeout(ms int64) time.Duration {
	t := s.cfg.DefaultTimeout
	if ms > 0 {
		t = time.Duration(ms) * time.Millisecond
	}
	return min(t, s.cfg.MaxTimeout)
}

// levelOf parses a request optimization level; "" uses the configured
// default (or the Flock DB default when the config is zero).
func (s *Server) levelOf(name string) (opt.Level, error) {
	switch strings.ToLower(name) {
	case "":
		if s.cfg.Level != 0 {
			return s.cfg.Level, nil
		}
		return s.flock.DB.DefaultLevel, nil
	case "udf":
		return opt.LevelUDF, nil
	case "vectorized":
		return opt.LevelVectorized, nil
	case "parallel":
		return opt.LevelParallel, nil
	case "full":
		return opt.LevelFull, nil
	}
	return 0, fmt.Errorf("unknown optimization level %q", name)
}

// StaticTokenAuth builds an Authenticate func over a fixed user->token
// map. Both sides are hashed before a constant-time compare, so neither
// token length nor user existence leaks through comparison timing
// (ConstantTimeCompare alone short-circuits on length mismatch).
func StaticTokenAuth(tokens map[string]string) func(user, token string) error {
	return func(user, token string) error {
		want, ok := tokens[user]
		wantSum := sha256.Sum256([]byte(want))
		gotSum := sha256.Sum256([]byte(token))
		match := subtle.ConstantTimeCompare(wantSum[:], gotSum[:]) == 1
		if !ok || !match {
			return errors.New("server: bad credentials")
		}
		return nil
	}
}

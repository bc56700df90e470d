// Package server is the concurrent SQL/PREDICT serving layer over
// core.Flock: an HTTP+JSON front end with authenticated sessions (session
// identity feeds the existing governance and audit path), prepared
// statements backed by an LRU plan cache, admission control (bounded worker
// pool plus a bounded wait queue with rejection), per-query deadlines,
// streaming result encoding, a Prometheus-style /metrics endpoint, and
// graceful shutdown with engine-wide cancellation — the seam the paper's
// "heavy traffic from millions of users" scaling work plugs into.
//
// Wire API (JSON bodies unless noted):
//
//	POST   /v1/sessions        {user, token}            -> {session, user}
//	DELETE /v1/sessions/{id}                            -> 204
//	POST   /v1/query           {session, sql, timeout_ms, level, stream, cursor, batch_rows}
//	POST   /v1/prepare         {session, sql, level}    -> {stmt, kind, cached}
//	POST   /v1/exec            {session, stmt, timeout_ms, stream, cursor}
//	POST   /v1/cursor/fetch    {session, cursor, max_rows, timeout_ms} -> {columns, rows, done}
//	POST   /v1/cursor/close    {session, cursor}        -> 204
//	POST   /v1/admin/reopen    {session}                -> {"status":"ok"} (recover a degraded instance)
//	POST   /v1/admin/promote   {session}                -> {"status":"ok", epoch} (promote this replica to leader)
//	POST   /v1/admin/repoint   {session, leader}        -> {"status":"ok"} (re-point this node at a new leader)
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            {"status":"ok"} (liveness: the process serves)
//	GET    /readyz             {"status":"ready"} | 503 {"status":"degraded", ...} (readiness: writes accepted)
//
// Results flow pull-based end-to-end: "stream": true drains an engine
// cursor as NDJSON with O(batch) server memory, and "cursor": true opens a
// server-side cursor (TTL-bound, session-scoped) that /v1/cursor/fetch
// pages through without ever re-running the query. See docs/api.md for the
// full wire protocol.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/monitor"
	"repro/internal/onnx"
	"repro/internal/opt"
	"repro/internal/repl"
	sqlpkg "repro/internal/sql"
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
	// MaxStreamDrains bounds concurrent NDJSON stream drains. A drain
	// holds a drain slot — not a worker slot — for its (client-paced)
	// lifetime, so slow readers can exhaust only the drain budget, never
	// the query worker pool. Defaults to 2x MaxWorkers.
	MaxStreamDrains int
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
	if c.MaxStreamDrains <= 0 {
		c.MaxStreamDrains = 2 * c.MaxWorkers
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
	plans    *planCache
	cursors  *cursorStore

	// streamDrains counts (and bounds) in-flight NDJSON drains; see
	// Config.MaxStreamDrains.
	streamDrains atomic.Int64

	monMu    sync.Mutex
	monitors []*monitor.ScoreMonitor

	gaugeMu      sync.Mutex
	gaugeSources []func() map[string]float64

	// reopenFn services POST /v1/admin/reopen; defaults to the engine's
	// ReopenWAL and is replaced via AttachReopen when a core.Durability
	// owns the data directory (its Reopen also syncs the audit log and
	// counts the fold as a checkpoint).
	reopenMu sync.Mutex
	reopenFn func() error

	// readyChecks extend /readyz beyond the degraded-mode probe (e.g. the
	// replica-mode lag gate); any check returning an error flips readiness
	// to 503 with its message.
	readyMu     sync.Mutex
	readyChecks []func() error

	// replNode, when attached, backs the promote/repoint admin endpoints
	// and enriches /readyz with the node's replication role and epoch.
	replMu   sync.Mutex
	replNode *repl.Node
}

// New assembles a server over flock. Call Serve/ListenAndServe to accept
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
	s.sessions = newSessionStore(base, cfg.SessionTTL, cfg.SessionMaxLifetime)
	s.adm = newAdmission(cfg.MaxWorkers, cfg.MaxQueue, s.met)
	s.plans = newPlanCache(cfg.PlanCacheSize, s.met)
	s.cursors = newCursorStore(cfg.CursorTTL, cfg.MaxCursorsPerSession, &s.met.cursorsExpired)
	// A session hitting the hard lifetime cap retires its cursors, so a
	// fetch on one answers 410 (gone) instead of 404 (never existed). Set
	// under the store lock: its sweeper is already ticking.
	s.sessions.mu.Lock()
	s.sessions.onExpire = func(sess *session) { s.cursors.closeForSession(sess.id) }
	s.sessions.mu.Unlock()

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

	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the HTTP handler (for mounting under a custom server).
func (s *Server) Handler() http.Handler { return s.mux }

// Flock returns the served instance.
func (s *Server) Flock() *core.Flock { return s.flock }

// AttachMonitor exports a score monitor's drift state on /metrics.
func (s *Server) AttachMonitor(m *monitor.ScoreMonitor) {
	s.monMu.Lock()
	s.monitors = append(s.monitors, m)
	s.monMu.Unlock()
}

// AttachGauges exports an external gauge source on /metrics; the source is
// polled per scrape (e.g. the durability subsystem's WAL size and
// checkpoint age).
func (s *Server) AttachGauges(src func() map[string]float64) {
	s.gaugeMu.Lock()
	s.gaugeSources = append(s.gaugeSources, src)
	s.gaugeMu.Unlock()
}

// AttachReopen replaces the function behind POST /v1/admin/reopen (wired
// to core.Durability.Reopen by flock-serve so the recovery fold also syncs
// the audit log and counts as a checkpoint).
func (s *Server) AttachReopen(fn func() error) {
	s.reopenMu.Lock()
	s.reopenFn = fn
	s.reopenMu.Unlock()
}

// AttachReadiness adds a readiness check to /readyz: any check returning
// an error makes the probe answer 503 with the message. Used by replica
// mode to gate readiness on replication lag, so load balancers stop
// routing reads to a follower that has fallen too far behind.
func (s *Server) AttachReadiness(check func() error) {
	s.readyMu.Lock()
	s.readyChecks = append(s.readyChecks, check)
	s.readyMu.Unlock()
}

// AttachReplicationLeader mounts the leader replication endpoints
// (/v1/repl/wal, /v1/repl/snapshot, /v1/repl/ack, /v1/repl/status) and
// exports the leader-side replication gauges on /metrics.
func (s *Server) AttachReplicationLeader(l *repl.Leader) {
	l.Register(s.mux)
	s.AttachGauges(l.Gauges)
}

// AttachReplicationFollower exposes the follower's replication status on
// /v1/repl/status and its gauges (apply LSN, lag, reconnects) on /metrics.
func (s *Server) AttachReplicationFollower(f *repl.Follower) {
	s.mux.HandleFunc("GET "+repl.PathStatus, f.HandleStatus)
	s.AttachGauges(f.Gauges)
}

// AttachReplicationNode mounts a role-switching replication node: the
// role-aware replication endpoints, the node gauges, and the promote /
// repoint admin endpoints that drive failover at runtime. Supersedes the
// fixed-role attach methods for deployments that may change roles.
func (s *Server) AttachReplicationNode(n *repl.Node) {
	s.replMu.Lock()
	s.replNode = n
	s.replMu.Unlock()
	n.Register(s.mux)
	s.AttachGauges(n.Gauges)
	s.mux.HandleFunc("POST /v1/admin/promote", s.handleAdminPromote)
	s.mux.HandleFunc("POST /v1/admin/repoint", s.handleAdminRepoint)
}

func (s *Server) replicationNode() *repl.Node {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replNode
}

// handleReadyz is the readiness probe: 200 while the instance accepts
// writes, 503 with the degradation reason once the WAL is poisoned and the
// DB is read-only. Load balancers route writes away on 503; /healthz stays
// 200 so orchestrators don't restart a process that a restart cannot heal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Replication context rides on every readiness answer so operators and
	// probes see the role and epoch without a second request.
	extra := map[string]any{}
	if n := s.replicationNode(); n != nil {
		extra["role"] = n.Role()
		extra["epoch"] = n.Epoch()
	}
	ready := func(status int, fields map[string]any) {
		for k, v := range extra {
			fields[k] = v
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
	s.readyMu.Lock()
	checks := append([]func() error(nil), s.readyChecks...)
	s.readyMu.Unlock()
	for _, check := range checks {
		if err := check(); err != nil {
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad reopen request: %w", err))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	wasDegraded, _ := s.flock.DB.Degraded()
	s.reopenMu.Lock()
	reopen := s.reopenFn
	s.reopenMu.Unlock()
	if reopen == nil {
		reopen = s.flock.DB.ReopenWAL
	}
	err := reopen()
	s.flock.Audit.Record(sess.user, "admin.reopen", "", fmt.Sprintf("degraded=%v", wasDegraded), err == nil)
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad promote request: %w", err))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	n := s.replicationNode()
	if n == nil {
		writeError(w, http.StatusConflict, errors.New("this node has no replication role"))
		return
	}
	epoch, err := n.Promote(r.Context())
	s.flock.Audit.Record(sess.user, "admin.promote", "", fmt.Sprintf("epoch=%d", epoch), err == nil)
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad repoint request: %w", err))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	if req.Leader == "" {
		writeError(w, http.StatusBadRequest, errors.New("repoint requires a leader URL"))
		return
	}
	n := s.replicationNode()
	if n == nil {
		writeError(w, http.StatusConflict, errors.New("this node has no replication role"))
		return
	}
	err := n.Repoint(r.Context(), req.Leader)
	s.flock.Audit.Record(sess.user, "admin.repoint", "", "leader="+req.Leader, err == nil)
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
// of a constant: the deeper the wait queue (or drain-slot overflow)
// relative to the worker pool, the longer shed clients should back off.
// Bounded to [1, 30] so advice stays actionable.
func (s *Server) retryAfterSeconds() int {
	pressure := int(s.adm.queued.Load())
	if over := int(s.streamDrains.Load()) - s.cfg.MaxStreamDrains; over > pressure {
		pressure = over
	}
	secs := 1 + pressure/s.cfg.MaxWorkers
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
	Session   string `json:"session"`
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms"`
	Level     string `json:"level"`
	Stream    bool   `json:"stream"`
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
	Session   string `json:"session"`
	Stmt      string `json:"stmt"`
	TimeoutMS int64  `json:"timeout_ms"`
	Stream    bool   `json:"stream"`
	// Cursor opens a server-side cursor over a prepared SELECT.
	Cursor bool `json:"cursor"`
}

// queryResponse always carries columns and rows (as [] rather than null or
// an absent key for empty results), so clients can index unconditionally.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Affected  int64    `json:"affected"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// errNonFiniteJSON is the execution error for a result row-JSON cannot
// express: encoding/json refuses ±Inf and NaN. The cursor's page form
// carries them bit-exactly.
var errNonFiniteJSON = errors.New("result holds a non-finite float; JSON cannot carry it")

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
	var unsupported *json.UnsupportedValueError
	if errors.As(err, &unsupported) {
		return errNonFiniteJSON
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

// ---- handlers ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad session request: %w", err))
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query request: %w", err))
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
	if req.Cursor {
		s.openServerCursor(w, r, sess, req.TimeoutMS, func(ctx context.Context) (engine.Cursor, error) {
			return s.flock.QueryLevel(ctx, sess.user, req.SQL, level)
		})
		return
	}
	if req.Stream && isSingleSelect(req.SQL) {
		// Pull-based drain: the cursor feeds NDJSON batch by batch, so the
		// server holds O(batch) memory no matter the result size.
		s.streamCursor(w, r, sess, req.TimeoutMS, func(ctx context.Context) (engine.Cursor, error) {
			return s.flock.QueryLevel(ctx, sess.user, req.SQL, level)
		})
		return
	}
	s.run(w, r, sess, req.TimeoutMS, kindOfSQL(req.SQL), req.Stream,
		func(ctx context.Context) (*engine.Result, error) {
			return s.flock.ExecLevelContext(ctx, sess.user, req.SQL, level)
		})
}

// isSingleSelect reports whether sql parses as exactly one SELECT — the
// shapes the cursor/stream paths accept; everything else (DML,
// multi-statement strings) takes the materialized path.
func isSingleSelect(query string) bool {
	stmt, err := sqlpkg.ParseOne(query)
	if err != nil {
		return false
	}
	_, ok := stmt.(*sqlpkg.SelectStmt)
	return ok
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad prepare request: %w", err))
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
	// short (no table scans) and runs to completion once admitted.
	pctx, cancel := context.WithTimeout(sess.ctx, s.cfg.DefaultTimeout)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel) // abandon the queue slot if the client goes away
	defer stop()
	sess.begin()
	defer sess.end()
	if err := s.adm.acquire(pctx); err != nil {
		status, _ := classifyErr(err)
		if status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
			s.setLeaderHint(w, err)
		}
		writeError(w, status, err)
		return
	}
	defer s.adm.release()

	key := planKey(req.SQL, level)
	p, handle, cached := s.plans.get(key)
	if cached {
		// Cache-shared plans still require this user to pass governance.
		if err := s.flock.CheckPrepared(sess.user, p); err != nil {
			writeError(w, http.StatusForbidden, err)
			return
		}
	} else {
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
		handle = s.plans.put(key, p)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stmt": handle, "kind": p.Kind(), "cached": cached,
	})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad exec request: %w", err))
		return
	}
	sess, ok := s.sessions.get(req.Session)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return
	}
	p, ok := s.plans.getByHandle(req.Stmt)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown prepared statement (evicted or never prepared); re-prepare"))
		return
	}
	kind := p.Kind()
	if kind != "select" {
		kind = "dml"
	}
	if req.Cursor {
		if kind != "select" {
			writeError(w, http.StatusBadRequest, errors.New("cursor requires a prepared SELECT"))
			return
		}
		s.openServerCursor(w, r, sess, req.TimeoutMS, func(ctx context.Context) (engine.Cursor, error) {
			return s.flock.QueryPrepared(ctx, sess.user, p)
		})
		return
	}
	if req.Stream && kind == "select" {
		s.streamCursor(w, r, sess, req.TimeoutMS, func(ctx context.Context) (engine.Cursor, error) {
			return s.flock.QueryPrepared(ctx, sess.user, p)
		})
		return
	}
	s.run(w, r, sess, req.TimeoutMS, kind, req.Stream,
		func(ctx context.Context) (*engine.Result, error) {
			return s.flock.ExecPrepared(ctx, sess.user, p)
		})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gauges := map[string]float64{
		"flock_admission_inflight":    float64(s.adm.inflight.Load()),
		"flock_admission_queue_depth": float64(s.adm.queued.Load()),
		"flock_sessions_active":       float64(s.sessions.count()),
		"flock_plan_cache_entries":    float64(s.plans.len()),
		// Engine operator workers running right now across every in-flight
		// query: the live intra-query parallel degree.
		"flock_exec_workers": float64(engine.ActiveWorkers()),
		// Server-side cursors currently open, engine cursors open across
		// the whole process (drains included; the two diverging for long
		// means a leak), and in-flight NDJSON stream drains.
		"flock_cursors_open":         float64(s.cursors.count()),
		"flock_engine_cursors_open":  float64(engine.CursorsOpen()),
		"flock_stream_drains_active": float64(s.streamDrains.Load()),
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
	// when no durability subsystem is attached (an attached one exports the
	// same values — map assignment keeps them single).
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
	for k, v := range onnx.BreakerGauges() {
		gauges[k] = v
	}
	s.gaugeMu.Lock()
	sources := append([]func() map[string]float64(nil), s.gaugeSources...)
	s.gaugeMu.Unlock()
	for _, src := range sources {
		for k, v := range src() {
			gauges[k] = v
		}
	}
	s.monMu.Lock()
	monitors := append([]*monitor.ScoreMonitor(nil), s.monitors...)
	s.monMu.Unlock()
	for _, m := range monitors {
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

// run pushes one query through admission control, deadline management, the
// engine, and result encoding, recording metrics for every outcome.
func (s *Server) run(w http.ResponseWriter, r *http.Request, sess *session,
	timeoutMS int64, kind string, stream bool,
	do func(ctx context.Context) (*engine.Result, error)) {

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// The query context descends from the session (so session close and
	// server shutdown cancel it) and additionally dies with the client
	// connection and the deadline.
	qctx, cancel := context.WithTimeout(sess.ctx, timeout)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()
	sess.begin()
	defer sess.end()

	start := time.Now()
	if err := s.adm.acquire(qctx); err != nil {
		status, label := classifyErr(err)
		s.met.observeQuery(kind, label, time.Since(start))
		if status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
			s.setLeaderHint(w, err)
		}
		writeError(w, status, err)
		return
	}

	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release() // a panicking handler must not leak the worker slot

	res, err := do(qctx)
	// The result is fully materialized: release the worker slot BEFORE
	// encoding, so a slow-reading client stalls only its own connection,
	// never the worker pool.
	release()
	elapsed := time.Since(start)
	if err != nil {
		status, label := classifyErr(err)
		s.met.observeQuery(kind, label, elapsed)
		if status == http.StatusServiceUnavailable {
			// Degraded instance (or saturated queue): tell clients how long
			// to back off instead of letting them spin.
			s.setRetryAfter(w)
			s.setLeaderHint(w, err)
		}
		writeError(w, status, err)
		return
	}
	if res == nil {
		// Defense in depth: no execution path should hand back (nil, nil),
		// but a nil here must not panic the handler.
		res = &engine.Result{}
	}
	if stream {
		s.met.observeQuery(kind, "ok", elapsed)
		s.streamResult(w, res, elapsed)
		return
	}
	cols, rows := res.Columns, res.Rows
	if cols == nil {
		cols = []string{}
	}
	if rows == nil {
		rows = [][]any{}
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer putJSONBuf(buf)
	if err := encodeJSON(buf, queryResponse{
		Columns: cols, Rows: rows, Affected: res.Affected,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}); err != nil {
		status, label := classifyErr(err)
		s.met.observeQuery(kind, label, elapsed)
		writeError(w, status, err)
		return
	}
	s.met.observeQuery(kind, "ok", elapsed)
	writeBody(w, http.StatusOK, "application/json", buf.Bytes())
}

// streamCursor drains a governed cursor as NDJSON: a header object, one
// JSON array per row, and a trailer object. Admission: the open (planning
// plus any blocking materialization) runs under a worker slot; the drain
// itself — whose pace the client controls — downgrades to a bounded drain
// slot so slow readers can never pin the query worker pool. A mid-stream
// encode/write error aborts the drain and releases the cursor (recorded in
// flock_stream_aborts_total) instead of silently truncating; a mid-stream
// execution error is reported in the trailer (the 200 header is long
// gone).
func (s *Server) streamCursor(w http.ResponseWriter, r *http.Request, sess *session,
	timeoutMS int64, open func(ctx context.Context) (engine.Cursor, error)) {

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// The drain context has NO deadline of its own — a stream's total
	// duration is paced by the client, exactly like the pre-cursor path
	// where only execution was deadline-bound. It still dies with the
	// session, the server, and the client connection. The query timeout
	// bounds execution instead: the open below, and each engine pull in
	// the drain loop.
	qctx, cancel := context.WithCancel(sess.ctx)
	defer cancel()
	stop := context.AfterFunc(r.Context(), cancel)
	defer stop()
	sess.begin()
	defer sess.end()

	start := time.Now()
	octx, ocancel := context.WithTimeout(qctx, timeout)
	defer ocancel()
	if err := s.adm.acquire(octx); err != nil {
		status, label := classifyErr(err)
		s.met.observeQuery("select", label, time.Since(start))
		if status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
			s.setLeaderHint(w, err)
		}
		writeError(w, status, err)
		return
	}
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release()

	cur, err := open(octx)
	if err != nil {
		release()
		status, label := classifyErr(err)
		s.met.observeQuery("select", label, time.Since(start))
		if status == http.StatusServiceUnavailable {
			s.setRetryAfter(w)
			s.setLeaderHint(w, err)
		}
		writeError(w, status, err)
		return
	}
	defer cur.Close()

	// Downgrade worker slot -> drain slot before the client-paced part.
	if s.streamDrains.Add(1) > int64(s.cfg.MaxStreamDrains) {
		s.streamDrains.Add(-1)
		release()
		s.met.observeQuery("select", "rejected", time.Since(start))
		s.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable,
			errors.New("server: too many concurrent stream drains, try again later"))
		return
	}
	defer s.streamDrains.Add(-1)
	release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cols := cur.Schema().Names()
	if cols == nil {
		cols = []string{} // same always-arrays contract as the non-stream path
	}
	abort := func() {
		s.met.streamAborts.Add(1)
		s.met.observeQuery("select", "abort", time.Since(start))
	}
	if err := enc.Encode(map[string]any{"columns": cols}); err != nil {
		abort()
		return
	}
	n := 0
	for {
		// Per-pull deadline: bounds one window of engine work, not the
		// client-paced transfer.
		nctx, ncancel := context.WithTimeout(qctx, timeout)
		b, err := cur.Next(nctx)
		ncancel()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Execution died mid-stream: the trailer is the only channel
			// left to tell the client the stream is incomplete.
			_, label := classifyErr(err)
			s.met.observeQuery("select", label, time.Since(start))
			_ = enc.Encode(map[string]any{"error": err.Error(), "rows": n})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		for _, row := range engine.ResultFromRowSet(b).Rows {
			if err := enc.Encode(row); err != nil {
				abort()
				return
			}
			n++
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := enc.Encode(map[string]any{
		"rows": n, "affected": int64(0),
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	}); err != nil {
		abort()
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	s.met.observeQuery("select", "ok", time.Since(start))
}

// streamResult encodes an already-materialized result as NDJSON — the
// legacy stream shape kept for DML and multi-statement strings (SELECTs
// stream through streamCursor). Encode/write errors abort the stream and
// count in flock_stream_aborts_total instead of being dropped.
func (s *Server) streamResult(w http.ResponseWriter, res *engine.Result, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cols := res.Columns
	if cols == nil {
		cols = []string{} // same always-arrays contract as the non-stream path
	}
	if err := enc.Encode(map[string]any{"columns": cols}); err != nil {
		s.met.streamAborts.Add(1)
		return
	}
	for i, row := range res.Rows {
		if err := enc.Encode(row); err != nil {
			s.met.streamAborts.Add(1)
			return
		}
		if flusher != nil && i%256 == 255 {
			flusher.Flush()
		}
	}
	if err := enc.Encode(map[string]any{
		"rows": len(res.Rows), "affected": res.Affected,
		"elapsed_ms": float64(elapsed.Microseconds()) / 1000,
	}); err != nil {
		s.met.streamAborts.Add(1)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

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

// kindOfSQL classifies a statement string for the latency histogram.
func kindOfSQL(sql string) string {
	f := strings.ToLower(firstWord(sql))
	switch f {
	case "select":
		return "select"
	case "insert", "update", "delete", "create":
		return "dml"
	}
	return "other"
}

func firstWord(s string) string {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return s[:i]
		}
	}
	return s
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

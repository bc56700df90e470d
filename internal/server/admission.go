package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"
)

// errQueueFull rejects a query when the admission wait queue is at capacity
// — load shedding at the door instead of collapse under the load.
var errQueueFull = errors.New("server: admission queue full, try again later")

// admission is the bounded-concurrency gate in front of the engine: at most
// `workers` queries execute at once; up to `maxQueue` more wait for a slot;
// beyond that, requests are rejected immediately. Waiting respects the
// query context, so deadlines and disconnects apply while queued too.
type admission struct {
	sem      chan struct{}
	maxQueue int64
	queued   atomic.Int64
	inflight atomic.Int64
	met      *metrics
}

func newAdmission(workers, maxQueue int, met *metrics) *admission {
	return &admission{sem: make(chan struct{}, workers), maxQueue: int64(maxQueue), met: met}
}

// acquire blocks until a worker slot is free, the queue overflows, or ctx
// is done. On nil return the caller must release().
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: a slot is free, no queueing.
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		return nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.met.admissionRejected.Add(1)
		return errQueueFull
	}
	defer a.queued.Add(-1)
	start := time.Now()
	select {
	case a.sem <- struct{}{}:
		a.met.admissionWait.observe(time.Since(start).Seconds())
		a.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.sem
}

// request is one HTTP request's engine work — a query, a prepare, a cursor
// open or fetch, a stream — from admission to exit: the context its steps
// run under, the step it holds (a worker slot, plus the cursor lock when
// the step is on a cursor), and the latency span it records.
type request struct {
	s    *Server
	w    http.ResponseWriter
	conn context.Context // the client connection's
	sess *session
	// kind is the flock_query_seconds family; "" records nothing.
	kind    string
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
	stop    func() bool
	start   time.Time
	end     time.Time // the last slot release: the end of engine work
	held    bool
	locked  *serverCursor
}

// admit opens a request. Its context descends from parent — the session,
// or for a fetch the cursor — so session close, cursor close and shutdown
// cancel it, and it also dies with the deadline and the client
// connection. The session counts it in flight, so a long query is never
// idle-reaped. Then it takes its first step (take on c, which may be
// nil). On failure it has answered the request. Either way the caller
// defers q.exit().
func (s *Server) admit(w http.ResponseWriter, r *http.Request, sess *session, c *serverCursor,
	timeout time.Duration, kind string) (q request, ok bool) {

	parent := sess.ctx
	if c != nil {
		parent = c.ctx
	}
	q = request{s: s, w: w, conn: r.Context(), sess: sess, kind: kind, timeout: timeout}
	q.ctx, q.cancel = context.WithTimeout(parent, timeout)
	q.stop = context.AfterFunc(q.conn, q.cancel)
	sess.begin()
	q.start = time.Now()
	if err := q.take(q.ctx, c); err != nil {
		q.fail(err)
		return q, false
	}
	return q, true
}

// take admits one engine step, waiting under ctx: c's lock first when the
// step is on a cursor — requests queued behind a slow pull on one cursor
// must not pin worker slots other sessions need — then a worker slot. On
// nil the step holds both until release.
func (q *request) take(ctx context.Context, c *serverCursor) error {
	if c != nil {
		if err := c.lock(ctx); err != nil {
			return err
		}
		if c.finished.Load() {
			c.mu.Unlock() // closed or expired while the step waited
			return errCursorExpired
		}
		q.locked = c
	}
	if err := q.s.adm.acquire(ctx); err != nil {
		q.release()
		return err
	}
	q.held = true
	return nil
}

// release ends the current step: the worker slot, which also ends the
// latency span, then the cursor lock. Idempotent.
func (q *request) release() {
	if q.held {
		q.held = false
		q.s.adm.release()
		q.end = time.Now()
	}
	if q.locked != nil {
		q.locked.mu.Unlock()
		q.locked = nil
	}
}

// exit ends the request; a panicking handler leaks no slot or lock.
func (q *request) exit() {
	q.release()
	q.sess.end()
	q.stop()
	q.cancel()
}

// elapsed is the latency span: from before the first slot wait to the end
// of engine work — the last slot release, or now while none has happened.
func (q *request) elapsed() time.Duration {
	if q.end.IsZero() {
		return time.Since(q.start)
	}
	return q.end.Sub(q.start)
}

// observe records the request's outcome under its latency family.
func (q *request) observe(label string) {
	if q.kind != "" {
		q.s.met.observeQuery(q.kind, label, q.elapsed())
	}
}

// fail is the one error path: answer with err's status and record the
// outcome. A 503 — saturated queue, degraded instance, quorum timeout —
// tells the client how long to back off and, for a write a replica
// refused, where the leader is.
func (q *request) fail(err error) {
	status, label := classifyErr(err)
	q.observe(label)
	if status == http.StatusServiceUnavailable {
		q.s.setRetryAfter(q.w)
		q.s.setLeaderHint(q.w, err)
	}
	writeError(q.w, status, err)
}

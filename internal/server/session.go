package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// session is one authenticated client. Its context descends from the
// server's base context, and every query context descends from it, so the
// cancellation tree is: shutdown -> session close -> query deadline.
type session struct {
	id       string
	user     string
	created  time.Time
	lastUsed atomic.Int64 // unix nanos
	inflight atomic.Int64 // queries currently executing on this session
	// cursors counts open server-side cursors owned by this session. A
	// session holding cursors is never TTL-reaped: the cursor store's own
	// (shorter) TTL expires abandoned cursors first, which re-arms the
	// session for expiry.
	cursors atomic.Int64
	ctx     context.Context
	cancel  context.CancelFunc
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// begin/end bracket one in-flight query: a session is idle — and thus
// TTL-expirable — only between requests, never while a long query (whose
// runtime may legitimately exceed the TTL) is still executing.
func (s *session) begin() { s.inflight.Add(1) }
func (s *session) end()   { s.inflight.Add(-1); s.touch() }

// sessionStore holds live sessions and expires idle ones after the TTL.
type sessionStore struct {
	mu  sync.Mutex
	m   map[string]*session
	ttl time.Duration
	// maxLife is the hard lifetime cap: past it a session expires even
	// while holding cursors or with queries in flight. The cursor
	// exemption from the idle TTL is bounded, not a pin-forever lease.
	maxLife time.Duration
	// onExpire runs (outside the lock) for each swept session — the hook
	// that tombstones its open cursors so later fetches get the 410.
	onExpire func(*session)
	base     context.Context
	stop     chan struct{}
	stopOnce sync.Once
}

func newSessionStore(base context.Context, ttl, maxLife time.Duration, onExpire func(*session)) *sessionStore {
	st := &sessionStore{m: map[string]*session{}, ttl: ttl, maxLife: maxLife, onExpire: onExpire, base: base, stop: make(chan struct{})}
	go st.sweep()
	return st
}

func (st *sessionStore) create(user string) (*session, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("server: session id: %w", err)
	}
	ctx, cancel := context.WithCancel(st.base)
	s := &session{
		id: hex.EncodeToString(buf[:]), user: user,
		created: time.Now(), ctx: ctx, cancel: cancel,
	}
	s.touch()
	st.mu.Lock()
	st.m[s.id] = s
	st.mu.Unlock()
	return s, nil
}

// get resolves and touches a session.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	s, ok := st.m[id]
	st.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// close cancels a session's context (aborting its in-flight queries at the
// next batch boundary) and forgets it.
func (st *sessionStore) close(id string) bool {
	st.mu.Lock()
	s, ok := st.m[id]
	delete(st.m, id)
	st.mu.Unlock()
	if ok {
		s.cancel()
	}
	return ok
}

func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// closeAll cancels every session (server shutdown).
func (st *sessionStore) closeAll() {
	st.mu.Lock()
	sessions := make([]*session, 0, len(st.m))
	for _, s := range st.m {
		sessions = append(sessions, s)
	}
	st.m = map[string]*session{}
	st.mu.Unlock()
	for _, s := range sessions {
		s.cancel()
	}
}

func (st *sessionStore) stopSweeper() { st.stopOnce.Do(func() { close(st.stop) }) }

// sweep expires sessions idle past the TTL, and — regardless of open
// cursors or in-flight queries — any session older than the hard
// max-lifetime cap. Without the cap, a session holding one abandoned
// cursor would pin server state forever (the cursor exempts it from the
// idle TTL); with it, expiry cancels the session context, the onExpire
// hook retires its cursors, and later fetches get the 410 tombstone.
func (st *sessionStore) sweep() {
	interval := st.ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-t.C:
			now := time.Now()
			cutoff := now.Add(-st.ttl).UnixNano()
			born := now.Add(-st.maxLife)
			st.mu.Lock()
			var expired []*session
			for id, s := range st.m {
				tooOld := st.maxLife > 0 && s.created.Before(born)
				idle := s.inflight.Load() == 0 && s.cursors.Load() == 0 && s.lastUsed.Load() < cutoff
				if tooOld || idle {
					expired = append(expired, s)
					delete(st.m, id)
				}
			}
			st.mu.Unlock()
			for _, s := range expired {
				s.cancel()
				if st.onExpire != nil {
					st.onExpire(s)
				}
			}
		}
	}
}

package onnx

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Circuit breaker for remote scoring endpoints. Without one, a dead
// backend turns every PREDICT into a full client-timeout wait — each
// burning a server worker slot for the duration — before failing. The
// breaker converts that into a fast, typed failure: after threshold
// consecutive failures the circuit opens and calls fail immediately; once
// the cooldown elapses a single half-open probe is let through, and its
// outcome either closes the circuit or re-opens it for another cooldown.

// ErrBreakerOpen is wrapped by the error breaker-rejected calls receive
// (match with errors.Is).
var ErrBreakerOpen = errors.New("onnx: circuit breaker open")

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a per-endpoint circuit breaker; safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	endpoint  string
	threshold int
	cooldown  time.Duration

	state       int
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // when the circuit last opened
	probing     bool      // the single half-open probe is in flight
	opens       int64     // times the circuit opened (metrics)
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures (default 5) and half-opens after cooldown (default 5s).
func NewBreaker(endpoint string, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{endpoint: endpoint, threshold: threshold, cooldown: cooldown}
}

// Allow gates one call: nil means proceed (and report the outcome via
// Success/Failure); a non-nil *ScoreError means the circuit is open and the
// call must fail fast without touching the backend. At most one caller per
// cooldown window is admitted as the half-open probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return b.openErrLocked()
		}
		// Cooldown elapsed: this caller becomes the probe.
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return b.openErrLocked()
		}
		b.probing = true
		return nil
	}
}

func (b *Breaker) openErrLocked() error {
	return &ScoreError{
		Kind:     KindBreaker,
		Endpoint: b.endpoint,
		Err: fmt.Errorf("%w after %d consecutive failures; next probe in %s",
			ErrBreakerOpen, b.threshold, (b.cooldown - time.Since(b.openedAt)).Round(time.Millisecond)),
	}
}

// Success reports a call that completed: the probe (or any closed-state
// success) closes the circuit and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
}

// Failure reports a backend-health failure (transient transport errors and
// 5xx — the caller filters out request-shaped 4xx): the probe failing
// re-opens the circuit for another cooldown; a closed-state streak reaching
// the threshold opens it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.probing = false
		b.opens++
	case breakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.opens++
		}
	}
}

// State reports the breaker state as a gauge value: 0 closed, 1 open, 2
// half-open.
func (b *Breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && time.Since(b.openedAt) >= b.cooldown {
		return breakerHalfOpen // the next Allow will admit a probe
	}
	return b.state
}

// ---- shared per-endpoint registry ----

// The engine rebuilds its UDF scorer per compiled query (see
// SetUDFScorerFactory), so breakers must outlive any one scorer: the
// registry keys them by endpoint, and every scorer built for that endpoint
// shares the same circuit state.
var (
	breakerMu  sync.Mutex
	breakers   = map[string]*Breaker{}
	breakerSeq []string // insertion order, for stable gauge output
)

// SharedBreaker returns the process-wide breaker for endpoint, creating it
// with the given tuning on first use (later calls reuse the existing
// breaker and ignore the tuning).
func SharedBreaker(endpoint string, threshold int, cooldown time.Duration) *Breaker {
	breakerMu.Lock()
	defer breakerMu.Unlock()
	if b, ok := breakers[endpoint]; ok {
		return b
	}
	b := NewBreaker(endpoint, threshold, cooldown)
	breakers[endpoint] = b
	breakerSeq = append(breakerSeq, endpoint)
	return b
}

// ResetBreakers clears the shared registry (test isolation).
//
//flockvet:ignore deadexport test isolation for the process-wide breaker registry in the onnx and server tests
func ResetBreakers() {
	breakerMu.Lock()
	defer breakerMu.Unlock()
	breakers = map[string]*Breaker{}
	breakerSeq = nil
}

// BreakerGauges exports per-endpoint breaker state plus the process-wide
// retry/fallback counters for /metrics (the server exports them natively).
func BreakerGauges() map[string]float64 {
	breakerMu.Lock()
	defer breakerMu.Unlock()
	out := map[string]float64{
		"flock_scorer_retries_total":   float64(scorerRetries.Load()),
		"flock_scorer_fallbacks_total": float64(scorerFallbacks.Load()),
	}
	for _, ep := range breakerSeq {
		b := breakers[ep]
		state := b.State()
		b.mu.Lock()
		opens := b.opens
		b.mu.Unlock()
		out[fmt.Sprintf(`flock_scorer_breaker_state{endpoint=%q}`, ep)] = float64(state)
		out[fmt.Sprintf(`flock_scorer_breaker_opens_total{endpoint=%q}`, ep)] = float64(opens)
	}
	return out
}

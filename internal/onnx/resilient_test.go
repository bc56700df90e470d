package onnx

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ml"
)

// flakyScorer fails its first `failures` calls with the given error, then
// succeeds, counting attempts.
type flakyScorer struct {
	failures int
	err      error
	calls    atomic.Int64
}

func (f *flakyScorer) Score(b *Batch) ([]float64, error) {
	n := f.calls.Add(1)
	if int(n) <= f.failures {
		return nil, f.err
	}
	return []float64{0.5}, nil
}

func transientErr(ep string) *ScoreError {
	return &ScoreError{Kind: KindConnect, Endpoint: ep, Err: errors.New("connection refused")}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	br := NewBreaker("ep1", 2, time.Hour)
	if err := br.Allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	br.Failure()
	if err := br.Allow(); err != nil {
		t.Fatalf("one failure under threshold=2 opened the breaker: %v", err)
	}
	br.Failure()
	err := br.Allow()
	if err == nil {
		t.Fatal("breaker did not open after threshold failures")
	}
	var se *ScoreError
	if !errors.As(err, &se) || se.Kind != KindBreaker {
		t.Fatalf("open-breaker error = %v, want *ScoreError{Kind: KindBreaker}", err)
	}
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker error does not wrap ErrBreakerOpen: %v", err)
	}
	// A success after reclose wipes the streak.
	br.Success()
	if err := br.Allow(); err != nil {
		t.Fatalf("Success did not reclose: %v", err)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	br := NewBreaker("ep2", 1, 30*time.Millisecond)
	br.Failure() // threshold 1: open immediately
	if err := br.Allow(); err == nil {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	time.Sleep(40 * time.Millisecond)
	// Cooldown elapsed: exactly one probe goes through.
	if err := br.Allow(); err != nil {
		t.Fatalf("half-open breaker refused the probe: %v", err)
	}
	if err := br.Allow(); err == nil {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Failed probe reopens and restarts the cooldown.
	br.Failure()
	if err := br.Allow(); err == nil {
		t.Fatal("breaker closed after a failed probe")
	}
	time.Sleep(40 * time.Millisecond)
	if err := br.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	br.Success()
	if err := br.Allow(); err != nil {
		t.Fatalf("successful probe did not reclose the breaker: %v", err)
	}
	if st := br.State(); st != breakerClosed {
		t.Fatalf("state = %d, want closed", st)
	}
}

func TestResilientScorerRetriesTransient(t *testing.T) {
	fs := &flakyScorer{failures: 2, err: transientErr("ep")}
	rs := &ResilientScorer{S: fs, MaxRetries: 2, BaseBackoff: time.Millisecond}
	scores, err := rs.Score(nil)
	if err != nil {
		t.Fatalf("retries should have absorbed 2 transient failures: %v", err)
	}
	if len(scores) != 1 || scores[0] != 0.5 {
		t.Fatalf("scores = %v", scores)
	}
	if got := fs.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestResilientScorerNoRetryOnClientError(t *testing.T) {
	bad := &ScoreError{Kind: KindHTTP, Status: http.StatusBadRequest, Endpoint: "ep",
		Err: errors.New("400 Bad Request")}
	fs := &flakyScorer{failures: 10, err: bad}
	rs := &ResilientScorer{S: fs, MaxRetries: 3, BaseBackoff: time.Millisecond}
	_, err := rs.Score(nil)
	if err == nil {
		t.Fatal("4xx should surface, not succeed")
	}
	if got := fs.calls.Load(); got != 1 {
		t.Fatalf("attempts = %d for a non-transient failure, want 1", got)
	}
	var se *ScoreError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("error = %v, want the 400 ScoreError", err)
	}
}

func TestResilientScorerFallbackAndFastFail(t *testing.T) {
	dead := &flakyScorer{failures: 1 << 30, err: transientErr("ep")}
	br := NewBreaker("ep3", 2, time.Hour)
	rs := &ResilientScorer{S: dead, Breaker: br, MaxRetries: 1,
		BaseBackoff: time.Millisecond, Fallback: &flakyScorer{}}
	scores, err := rs.Score(nil)
	if err != nil {
		t.Fatalf("fallback should serve when the primary is down: %v", err)
	}
	if len(scores) != 1 {
		t.Fatalf("scores = %v", scores)
	}
	// The two failed attempts tripped the breaker; the next call must not
	// touch the primary at all — straight to fallback.
	before := dead.calls.Load()
	if _, err := rs.Score(nil); err != nil {
		t.Fatalf("fast-fail fallback: %v", err)
	}
	if got := dead.calls.Load(); got != before {
		t.Fatalf("open breaker still sent %d calls to the dead primary", got-before)
	}
}

func TestResilientScorerCallerCancelWins(t *testing.T) {
	dead := &flakyScorer{failures: 1 << 30, err: transientErr("ep")}
	fallback := &flakyScorer{}
	rs := &ResilientScorer{S: dead, MaxRetries: 5, BaseBackoff: 50 * time.Millisecond,
		Fallback: fallback}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rs.ScoreContext(ctx, nil)
	if err == nil {
		t.Fatal("canceled context should not be masked by the fallback")
	}
	if got := dead.calls.Load(); got > 1 {
		t.Fatalf("canceled call kept retrying: %d calls to the dead primary", got)
	}
	if got := fallback.calls.Load(); got != 0 {
		t.Fatalf("canceled call reached the fallback %d times", got)
	}
}

func TestSharedBreakerSurvivesRebuilds(t *testing.T) {
	t.Cleanup(ResetBreakers)
	a := SharedBreaker("http://ep4/score", 1, time.Hour)
	a.Failure()
	// A "rebuilt scorer" asking for the same endpoint gets the same (open)
	// breaker, regardless of config values.
	b := SharedBreaker("http://ep4/score", 99, time.Second)
	if a != b {
		t.Fatal("SharedBreaker returned a fresh breaker for a known endpoint")
	}
	if err := b.Allow(); err == nil {
		t.Fatal("breaker state was lost across the rebuild")
	}
	gauges := BreakerGauges()
	found := false
	for k := range gauges {
		if strings.Contains(k, "flock_scorer_breaker_state") && strings.Contains(k, "ep4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("breaker state missing from gauges: %v", gauges)
	}
}

// TestHTTPScorerErrorKinds pins the transport-error taxonomy: a dead
// endpoint classifies as connect, a 5xx as http (transient), a slow backend
// under the chunk safety timeout as timeout.
func TestHTTPScorerErrorKinds(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.LinearRegression{}, 50)
	g, _ := Export(p)
	b, _ := BatchFromFrame(g, f)

	var se *ScoreError

	// Connection refused.
	dead := NewHTTPScorer(g, "http://127.0.0.1:1/score", 0)
	_, err := dead.Score(b)
	if !errors.As(err, &se) || se.Kind != KindConnect {
		t.Fatalf("dead endpoint error = %v, want KindConnect", err)
	}
	if !se.Transient() {
		t.Fatal("connect failure should be transient")
	}

	// HTTP 500.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "model exploded", http.StatusInternalServerError)
	}))
	defer srv.Close()
	broken := NewHTTPScorer(g, srv.URL, 0)
	_, err = broken.Score(b)
	if !errors.As(err, &se) || se.Kind != KindHTTP || se.Status != http.StatusInternalServerError {
		t.Fatalf("500 endpoint error = %v, want KindHTTP/500", err)
	}
	if !se.Transient() {
		t.Fatal("5xx should be transient")
	}

	// HTTP 400 is not transient.
	srv400 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad batch", http.StatusBadRequest)
	}))
	defer srv400.Close()
	rejecting := NewHTTPScorer(g, srv400.URL, 0)
	_, err = rejecting.Score(b)
	if !errors.As(err, &se) || se.Kind != KindHTTP || se.Transient() {
		t.Fatalf("400 endpoint error = %v, want non-transient KindHTTP", err)
	}

	// Chunk safety timeout on a hung backend.
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer hang.Close()
	slow := NewHTTPScorer(g, hang.URL, 0)
	slow.SetTimeout(30 * time.Millisecond)
	_, err = slow.Score(b)
	if !errors.As(err, &se) || se.Kind != KindTimeout {
		t.Fatalf("hung endpoint error = %v, want KindTimeout", err)
	}

	// The caller's own cancellation surfaces as-is, not as a ScoreError.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hung := NewHTTPScorer(g, hang.URL, 0)
	_, err = hung.ScoreContext(ctx, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v, want context.Canceled", err)
	}
}

// TestChaosScorerHTTP drives concurrent scoring through a real loopback
// scoring service while the scorer.http failpoint injects random connect
// failures: the retry + fallback ladder must absorb every fault and return
// exactly the scores the native session produces.
func TestChaosScorerHTTP(t *testing.T) {
	p, f, _ := trainedPipeline(t, &ml.GradientBoosting{NTrees: 5, Loss: ml.LossLogistic}, 200)
	g, err := Export(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeGraph(g)
	if err != nil {
		t.Skipf("loopback listener unavailable: %v", err)
	}
	defer srv.Close()

	sess, _ := NewSession(g)
	b, _ := BatchFromFrame(g, f)
	want, _ := sess.Run(b)

	local, err := NewLocalScorer(g)
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	fault.Seed(7)
	fault.Enable("scorer.http", fault.Spec{Prob: 0.3})
	defer fault.Reset()

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := &ResilientScorer{
				S:           NewHTTPScorer(g, srv.URL, 50), // several chunks per call
				Breaker:     NewBreaker(srv.URL, 1000, time.Second),
				MaxRetries:  4,
				BaseBackoff: time.Millisecond,
				Fallback:    local,
			}
			got, err := rs.Score(b)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- errors.New("short score vector")
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- errors.New("scores diverged under fault injection")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if fault.Triggered("scorer.http") == 0 {
		t.Fatal("chaos schedule never fired — the run proved nothing")
	}
}

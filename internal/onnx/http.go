package onnx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/fault"
)

// Scorer is anything that can score a batch; implemented by Session-backed
// wrappers, the in-memory RemoteScorer, and the HTTP-backed HTTPScorer.
type Scorer interface {
	Score(b *Batch) ([]float64, error)
}

// ContextScorer is a Scorer whose requests can be canceled. Scorers backed
// by a network service implement it so a hung endpoint cannot wedge the
// calling query.
type ContextScorer interface {
	Scorer
	ScoreContext(ctx context.Context, b *Batch) ([]float64, error)
}

// ScoreWithContext scores through ScoreContext when the scorer supports
// cancellation, falling back to plain Score. A nil context means no
// cancellation.
func ScoreWithContext(ctx context.Context, s Scorer, b *Batch) ([]float64, error) {
	if cs, ok := s.(ContextScorer); ok && ctx != nil {
		return cs.ScoreContext(ctx, b)
	}
	return s.Score(b)
}

// ServerOptions tunes a ScoringServer's request handling.
type ServerOptions struct {
	// ReadTimeout bounds reading one request (header + body); defaults to
	// 10s. A stalled client cannot pin a connection forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response; defaults to 30s.
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight requests to
	// finish before force-closing connections; defaults to 5s.
	DrainTimeout time.Duration
}

func (o *ServerOptions) withDefaults() ServerOptions {
	out := ServerOptions{ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, DrainTimeout: 5 * time.Second}
	if o == nil {
		return out
	}
	if o.ReadTimeout > 0 {
		out.ReadTimeout = o.ReadTimeout
	}
	if o.WriteTimeout > 0 {
		out.WriteTimeout = o.WriteTimeout
	}
	if o.DrainTimeout > 0 {
		out.DrainTimeout = o.DrainTimeout
	}
	return out
}

// ScoringServer is a real HTTP scoring service on the loopback interface —
// the containerized model deployment of §4.1, minus the container: requests
// pay genuine TCP, HTTP and JSON costs.
type ScoringServer struct {
	URL   string
	sess  *Session
	ln    net.Listener
	srv   *http.Server
	drain time.Duration
}

// ServeGraph starts a scoring service for g on 127.0.0.1:0 with default
// request timeouts and returns once it accepts connections. Close it when
// done.
func ServeGraph(g *Graph) (*ScoringServer, error) {
	return ServeGraphOpts(g, nil)
}

// ServeGraphOpts is ServeGraph with explicit request-timeout and drain
// options (nil means defaults).
func ServeGraphOpts(g *Graph, opts *ServerOptions) (*ScoringServer, error) {
	o := opts.withDefaults()
	sess, err := NewSession(g)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("onnx: scoring server: %w", err)
	}
	s := &ScoringServer{sess: sess, ln: ln, drain: o.DrainTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/score", s.handleScore)
	s.srv = &http.Server{
		Handler:      mux,
		ReadTimeout:  o.ReadTimeout,
		WriteTimeout: o.WriteTimeout,
	}
	s.URL = "http://" + ln.Addr().String() + "/score"
	go func() {
		// Serve exits with ErrServerClosed on Close; nothing to do.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *ScoringServer) handleScore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := decodeBatchJSON(s.sess.graph, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scores, err := s.sess.Run(batch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(scoreResponse{Scores: scores}); err != nil {
		// The client will observe the truncated body.
		return
	}
}

// Close shuts the service down gracefully: it stops accepting connections,
// waits up to the drain timeout for in-flight requests to complete, then
// force-closes whatever remains.
func (s *ScoringServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// HTTPScorer scores batches against a ScoringServer endpoint, chunking
// rows per request like a REST client would.
type HTTPScorer struct {
	url        string
	graph      *Graph
	chunkRows  int
	client     *http.Client
	reqTimeout time.Duration
}

// NewHTTPScorer builds a client for the given endpoint. chunkRows defaults
// to 1000. Each chunk request carries a 60s safety timeout layered UNDER
// the caller's context (the per-query deadline always propagates; the
// safety timeout only catches hung backends when the query has no deadline
// of its own) — tune or clear it with SetTimeout.
func NewHTTPScorer(g *Graph, url string, chunkRows int) *HTTPScorer {
	if chunkRows <= 0 {
		chunkRows = 1000
	}
	return &HTTPScorer{url: url, graph: g, chunkRows: chunkRows,
		client: &http.Client{}, reqTimeout: 60 * time.Second}
}

// setTimeout replaces the per-chunk safety timeout (0 disables it;
// cancellation then comes only from ScoreContext's context).
func (hs *HTTPScorer) setTimeout(d time.Duration) { hs.reqTimeout = d }

// Score POSTs the batch chunk by chunk and collects the scores.
func (hs *HTTPScorer) Score(b *Batch) ([]float64, error) {
	return hs.ScoreContext(context.Background(), b)
}

// ScoreContext is Score under a cancellation context: an in-flight request
// aborts as soon as ctx is done, so a hung scoring service cannot wedge the
// calling query. Each chunk request runs under the caller's context plus
// the per-chunk safety timeout, and failures come back as typed
// *ScoreError values (connect vs timeout vs HTTP status) so breakers and
// metrics can tell a dead backend from a slow one.
func (hs *HTTPScorer) ScoreContext(ctx context.Context, b *Batch) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]float64, 0, b.N)
	for lo := 0; lo < b.N; lo += hs.chunkRows {
		hi := lo + hs.chunkRows
		if hi > b.N {
			hi = b.N
		}
		if err := fault.Inject("scorer.http"); err != nil {
			return nil, &ScoreError{Kind: KindConnect, Endpoint: hs.url, Err: err}
		}
		wire, err := encodeBatchJSON(hs.graph, sliceBatch(b, lo, hi))
		if err != nil {
			return nil, err
		}
		cctx, cancel := ctx, context.CancelFunc(func() {})
		if hs.reqTimeout > 0 {
			cctx, cancel = context.WithTimeout(ctx, hs.reqTimeout)
		}
		scores, err := hs.scoreChunk(cctx, wire)
		cancel()
		if err != nil {
			// The caller's own cancellation/deadline surfaces as-is (it is
			// not a backend fault); everything else is classified.
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		out = append(out, scores...)
	}
	return out, nil
}

// scoreChunk POSTs one encoded chunk and decodes the scores; transport and
// status failures come back as *ScoreError.
func (hs *HTTPScorer) scoreChunk(ctx context.Context, wire []byte) ([]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.url, bytes.NewReader(wire))
	if err != nil {
		return nil, fmt.Errorf("onnx: http scorer: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hs.client.Do(req)
	if err != nil {
		return nil, classifyTransport(hs.url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, classifyTransport(hs.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &ScoreError{Kind: KindHTTP, Status: resp.StatusCode, Endpoint: hs.url,
			Err: fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))}
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("onnx: http scorer: decoding response: %w", err)
	}
	return sr.Scores, nil
}

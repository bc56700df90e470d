package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The traced phase measures the layers from outside the program: a span
// around every SDK call and every HTTP round trip under it, a raw replay
// of every eighth repeatable read, and the server's own /metrics before, during
// and after. Spans inside flock-serve are ROADMAP item 1, a later change.

// shadowEvery is how often a successful, repeatable read is replayed raw.
// The replays are extra load and show in the server's own counters, so
// they are kept to an eighth.
const shadowEvery = 8

// sampleInterval is the /metrics scrape period during the traced phase.
const sampleInterval = 100 * time.Millisecond

// span is one timed interval. Op spans have Parent 0; the HTTP round trips
// an SDK call makes are its children. Times are microseconds since the
// client's trace began.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	Write   bool   `json:"write,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// rawSample is one raw replay of a read: the same request bodies the SDK
// sent, posted with net/http and drained without decoding.
type rawSample struct {
	totalUS  float64
	serverUS float64 // the response's own elapsed_ms; -1 when it carries none
	sdkUS    float64 // the SDK call being shadowed
}

// clientTrace collects one client's spans. A client is one goroutine in a
// closed loop, and net/http calls RoundTrip and the body's Close on the
// caller's goroutine, so no lock is needed and "the current op" is a field.
type clientTrace struct {
	client int
	base   string
	// pageRows is the page size raw cursor replays ask for: the clients'.
	pageRows int
	t0       time.Time
	spans    []span
	nextID   uint64
	cur      int // index of the open op span, -1 when none
	// lastOpUS is the duration of the op span closed last.
	lastOpUS float64
	reads    int
	raw      []rawSample
	// rawStmts maps SQL to a handle prepared over raw HTTP: the SDK does
	// not expose the handle behind a Stmt.
	rawStmts map[string]string
	buf      bytes.Buffer
}

func newClientTrace(client int, base string, pageRows int) *clientTrace {
	if pageRows <= 0 {
		pageRows = 4096 // the SDK's default
	}
	return &clientTrace{client: client, base: base, pageRows: pageRows, t0: time.Now(), cur: -1, rawStmts: map[string]string{}}
}

// reset drops what warm-up recorded.
func (t *clientTrace) reset() {
	t.spans, t.raw, t.reads, t.cur = nil, nil, 0, -1
	t.t0 = time.Now()
}

func (t *clientTrace) now() int64 { return time.Since(t.t0).Microseconds() }

func (t *clientTrace) begin(name string, parent uint64, write bool) int {
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Client: t.client, Name: name, Write: write, StartUS: t.now()})
	return len(t.spans) - 1
}

func (t *clientTrace) beginOp(o *op) { t.cur = t.begin("op:"+o.template, 0, o.write) }

func (t *clientTrace) endOp() {
	s := &t.spans[t.cur]
	s.EndUS = t.now()
	t.lastOpUS = float64(s.EndUS - s.StartUS)
	t.cur = -1
}

// tracingTransport records one child span per HTTP round trip, from the
// request leaving to the response body being closed.
type tracingTransport struct {
	base http.RoundTripper
	tr   *clientTrace
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.tr
	if t.cur < 0 { // session dial and close happen outside any op
		return tt.base.RoundTrip(req)
	}
	i := t.begin("http:"+req.URL.Path, t.spans[t.cur].ID, false)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		t.spans[i].EndUS = t.now()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.spans[i].EndUS = t.now() }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	end  func()
	done bool
}

func (b *spanBody) Close() error {
	if !b.done {
		b.done = true
		b.end()
	}
	return b.ReadCloser.Close()
}

// shadow replays every shadowEvery-th successful read raw, outside the
// op's span.
func (t *clientTrace) shadow(ctx context.Context, c *benchClient, o *op) {
	if o.write || o.fresh {
		return
	}
	t.reads++
	if t.reads%shadowEvery != 0 {
		return
	}
	s, err := t.rawReplay(ctx, c.cl.Session(), o)
	if err != nil {
		return // the SDK call succeeded; a failed replay only loses a sample
	}
	s.sdkUS = t.lastOpUS
	t.raw = append(t.raw, s)
}

// rawPost posts body and drains the response into t.buf.
func (t *clientTrace) rawPost(ctx context.Context, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	t.buf.Reset()
	if _, err := t.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("raw %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return b
}

// rawReplay sends what the SDK sent for o — one /v1/query or /v1/exec, or
// a cursor open plus its page fetches — and times it to the last byte.
func (t *clientTrace) rawReplay(ctx context.Context, session string, o *op) (rawSample, error) {
	switch o.mode {
	case modeCursor:
		open := mustJSON(map[string]any{"session": session, "sql": o.sql, "cursor": true})
		t0 := time.Now()
		if err := t.rawPost(ctx, "/v1/query", open); err != nil {
			return rawSample{}, err
		}
		var out struct {
			Cursor string `json:"cursor"`
		}
		if err := json.Unmarshal(t.buf.Bytes(), &out); err != nil || out.Cursor == "" {
			return rawSample{}, errors.New("raw cursor open returned no cursor")
		}
		fetch := mustJSON(map[string]any{"session": session, "cursor": out.Cursor, "max_rows": t.pageRows})
		for {
			if err := t.rawPost(ctx, "/v1/cursor/fetch", fetch); err != nil {
				return rawSample{}, err
			}
			if bytes.Contains(t.buf.Bytes(), []byte(`"done":true`)) {
				break
			}
		}
		return rawSample{totalUS: float64(time.Since(t0).Nanoseconds()) / 1e3, serverUS: -1}, nil
	case modePrepared:
		handle := t.rawStmts[o.sql]
		if handle == "" {
			if err := t.rawPost(ctx, "/v1/prepare", mustJSON(map[string]any{"session": session, "sql": o.sql})); err != nil {
				return rawSample{}, err
			}
			var out struct {
				Stmt string `json:"stmt"`
			}
			if err := json.Unmarshal(t.buf.Bytes(), &out); err != nil || out.Stmt == "" {
				return rawSample{}, errors.New("raw prepare returned no handle")
			}
			handle = out.Stmt
			t.rawStmts[o.sql] = handle
		}
		return t.rawTimed(ctx, "/v1/exec", mustJSON(map[string]any{"session": session, "stmt": handle}))
	default:
		return t.rawTimed(ctx, "/v1/query", mustJSON(map[string]any{"session": session, "sql": o.sql}))
	}
}

func (t *clientTrace) rawTimed(ctx context.Context, path string, body []byte) (rawSample, error) {
	t0 := time.Now()
	if err := t.rawPost(ctx, path, body); err != nil {
		return rawSample{}, err
	}
	s := rawSample{totalUS: float64(time.Since(t0).Nanoseconds()) / 1e3, serverUS: -1}
	const key = `"elapsed_ms":`
	if i := bytes.LastIndex(t.buf.Bytes(), []byte(key)); i >= 0 {
		rest := t.buf.Bytes()[i+len(key):]
		end := bytes.IndexAny(rest, ",}")
		if end > 0 {
			if ms, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64); err == nil {
				s.serverUS = ms * 1000
			}
		}
	}
	return s, nil
}

// tracedPhase is the outcome of the traced phase.
type tracedPhase struct {
	phase     phaseResult
	clients   []*benchClient
	followers int
	leader    promDelta
	// Sampled while the phase ran.
	cursorsOpenMax float64
	lagFramesMax   float64
	workersSum     float64
	inflightSum    float64
}

// runTracedPhase drives the clients for d with spans on, scraping the
// leader's /metrics before, every sampleInterval during, and after.
func runTracedPhase(ctx context.Context, cl *cluster, cs []*benchClient, d time.Duration, hc *http.Client) (*tracedPhase, error) {
	tp := &tracedPhase{clients: cs, followers: len(cl.followers)}
	before, err := scrape(ctx, hc, cl.leader.url)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			m, err := scrape(ctx, hc, cl.leader.url)
			if err != nil {
				continue // a missed sample is not a failed run
			}
			tp.cursorsOpenMax = max(tp.cursorsOpenMax, m["flock_cursors_open"])
			tp.lagFramesMax = max(tp.lagFramesMax, m.maxWithPrefix("flock_repl_follower_lag_frames"))
			tp.workersSum += m["flock_exec_workers"]
			tp.inflightSum += m["flock_admission_inflight"]
		}
	}()
	tp.phase = runPhase(ctx, cs, d, 0)
	close(stop)
	wg.Wait()
	after, err := scrape(ctx, hc, cl.leader.url)
	if err != nil {
		return nil, err
	}
	tp.leader = promDelta{before, after}
	return tp, nil
}

// metrics turns spans, raw replays and the /metrics delta into the S and M
// per-layer metrics.
func (tp *tracedPhase) metrics() map[string]float64 {
	var all, reads, writes, execs, fetches, rawTotal, rawOverhead, decode []float64
	var queries, pages float64
	for _, c := range tp.clients {
		kids := map[uint64][]span{}
		for _, s := range c.trace.spans {
			if s.Parent != 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for _, s := range c.trace.spans {
			if s.Parent != 0 || s.EndUS == 0 {
				continue
			}
			ms := float64(s.EndUS-s.StartUS) / 1000
			all = append(all, ms)
			if s.Write {
				writes = append(writes, ms)
			} else {
				reads = append(reads, ms)
			}
			cursor := false
			for _, k := range kids[s.ID] {
				if k.Name == "http:/v1/cursor/fetch" {
					cursor = true
					pages++
					fetches = append(fetches, float64(k.EndUS-k.StartUS)/1000)
				}
			}
			if cursor {
				queries++
			} else {
				execs = append(execs, ms)
			}
		}
		for _, r := range c.trace.raw {
			rawTotal = append(rawTotal, r.totalUS)
			decode = append(decode, r.sdkUS-r.totalUS) // paired: the same statement both ways
			if r.serverUS >= 0 {
				rawOverhead = append(rawOverhead, r.totalUS-r.serverUS)
			}
		}
	}
	for _, xs := range [][]float64{all, reads, writes, execs, fetches, rawTotal, rawOverhead, decode} {
		sort.Float64s(xs)
	}
	d := tp.leader
	qSum := func(kind string) float64 { return d.of(`flock_query_seconds_sum{kind="` + kind + `"}`) }
	qCount := func(kind string) float64 { return d.of(`flock_query_seconds_count{kind="` + kind + `"}`) }
	meanMS := func(kinds ...string) float64 {
		var s, n float64
		for _, k := range kinds {
			s += qSum(k)
			n += qCount(k)
		}
		if n == 0 {
			return 0
		}
		return s / n * 1000
	}
	m := map[string]float64{
		"trace.ops_per_s":        float64(len(tp.phase.ops)) / tp.phase.elapsed.Seconds(),
		"sdk.exec_p50_ms":        percentile(execs, 0.5),
		"sdk.exec_mean_ms":       mean(execs),
		"sdk.fetch_page_p50_ms":  percentile(fetches, 0.5),
		"sdk.read_p50_ms":        percentile(reads, 0.5),
		"sdk.write_p50_ms":       percentile(writes, 0.5),
		"sdk.latency_p99_ms":     percentile(all, 0.99),
		"sdk.decode_overhead_us": percentile(decode, 0.5),

		"server.query_ms_mean":          meanMS("select", "dml", "fetch", "other"),
		"server.query_ms_mean.select":   meanMS("select"),
		"server.query_ms_mean.dml":      meanMS("dml"),
		"server.query_ms_mean.fetch":    meanMS("fetch"),
		"server.admission_wait_us_mean": d.ratio("flock_admission_wait_seconds_sum", "flock_admission_wait_seconds_count") * 1e6,
		"server.admission_rejected":     d.of("flock_admission_rejected_total"),
		"server.plancache_evictions":    d.of(`flock_plan_cache_events_total{event="eviction"}`),
		"server.cursors_open_max":       tp.cursorsOpenMax,

		"checkpoint.count": d.of("flock_checkpoints_total"),

		"infer.cache_stale":           d.of("flock_infer_cache_stale_total"),
		"infer.coalesced":             d.of("flock_infer_coalesced_total"),
		"infer.direct":                d.of("flock_infer_direct_total"),
		"infer.degraded":              d.of("flock_infer_degraded_total"),
		"infer.rows_per_backend_call": d.ratio("flock_infer_batch_rows_total", "flock_infer_batch_calls_total"),

		"repl.frames_per_batch":        d.ratio("flock_repl_ship_frames_total", "flock_repl_ship_batches_total"),
		"repl.bytes_per_frame":         d.ratio("flock_repl_ship_bytes_total", "flock_repl_ship_frames_total"),
		"repl.commit_gate_waits":       d.of("flock_repl_commit_gate_waits_total"),
		"repl.quorum_timeouts":         d.of("flock_repl_quorum_timeouts_total"),
		"repl.follower_lag_frames_max": tp.lagFramesMax,
	}
	if queries > 0 {
		m["sdk.pages_per_query"] = pages / queries
	}
	// HTTP overhead is what a raw round trip costs beyond the server's own
	// account of the query. Exec responses carry elapsed_ms; page fetches
	// do not, so for cursor reads the server's share comes from the
	// flock_query_seconds means instead.
	if len(rawOverhead) > 0 {
		m["server.http_overhead_us"] = percentile(rawOverhead, 0.5)
	} else if len(rawTotal) > 0 {
		serverUS := (meanMS("select") + m["sdk.pages_per_query"]*meanMS("fetch")) * 1000
		m["server.http_overhead_us"] = percentile(rawTotal, 0.5) - serverUS
	}
	hit, miss := d.of(`flock_plan_cache_events_total{event="hit"}`), d.of(`flock_plan_cache_events_total{event="miss"}`)
	if hit+miss > 0 {
		m["server.plancache_hit_ratio"] = hit / (hit + miss)
	}
	// A stale entry counts among the misses too.
	if ch, cm := d.of("flock_infer_cache_hits_total"), d.of("flock_infer_cache_misses_total"); ch+cm > 0 {
		m["infer.cache_hit_ratio"] = ch / (ch + cm)
	}
	if tp.inflightSum > 0 {
		m["engine.workers_per_query"] = tp.workersSum / tp.inflightSum
	}
	// flock_wal_group_commit_batch is records/syncs since boot; recover the
	// record count at both scrapes to get the phase's own ratio.
	records := func(s promSample) float64 {
		return s["flock_wal_group_commit_batch"] * s["flock_wal_group_commit_syncs"]
	}
	if syncs := d.of("flock_wal_group_commit_syncs"); syncs > 0 {
		m["wal.records_per_fsync"] = (records(d.after) - records(d.before)) / syncs
	}
	// flock_wal_bytes shrinks at every checkpoint, so write amplification
	// is read off the bytes shipped to one follower, which are the same
	// frames the leader appended.
	if commits := qCount("dml"); commits > 0 && tp.followers > 0 {
		m["wal.bytes_per_commit"] = d.of("flock_repl_ship_bytes_total") / float64(tp.followers) / commits
	}
	return m
}

// writeSpans writes every client's spans as JSON lines.
func writeSpans(path string, cs []*benchClient) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range cs {
		for _, s := range c.trace.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

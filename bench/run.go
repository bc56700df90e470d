package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/pkg/flockclient"
)

const (
	// warmUp is the least time clients run before anything is measured.
	// The server's heap and caches take a few seconds to reach their
	// working size; what is left of that ramp the slices below absorb.
	warmUp = 2 * time.Second
	// sliceLen is the length of one slice of the measured window. Each
	// end-to-end timing is taken per slice and the best slice reported:
	// the box is a few cores of a shared host, whose other guests only ever
	// slow the program down, for seconds at a time, so the quietest slice
	// repeats from run to run where the median slice does not (README,
	// Calibration).
	sliceLen = 2 * time.Second
	// setupRounds boots and loads the cluster this many times in an
	// end-to-end run; setup_s is the median, the last cluster is measured.
	setupRounds = 3
	// minWindowOps is the fewest operations a window may complete: below
	// it fewer than ten samples lie beyond the reported 95th percentile.
	minWindowOps = 200
	// floatTolerance is the relative error allowed between a float the
	// server returned and its expected value; ints and strings are exact.
	floatTolerance = 1e-9
	// maxReportedErrors bounds the failure messages kept per run.
	maxReportedErrors = 5
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Clients   int    `json:"clients"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Samples is the number of latency samples in the window; BeyondP95 is
	// how many samples of the slice latency_p95_ms comes from lie beyond it.
	Samples   int               `json:"samples"`
	BeyondP95 int               `json:"samples_beyond_p95"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Argv is the exact command line of every flock-serve child.
	Argv   [][]string `json:"flock_serve_argv"`
	Errors []string   `json:"errors,omitempty"`
}

// runConfig is what a run needs besides the workload.
type runConfig struct {
	seed     uint64
	window   time.Duration
	e2e      bool // measure the end-to-end window, tracing off
	trace    bool // run the traced phase and the in-process probes
	serveBin string
	workDir  string
	spansOut string // file for the traced phase's spans; "" keeps them in memory only
}

// clientCount is the closed loop's size unless the workload scales it:
// callers of a database SDK wait for their reply, and more clients than
// cores would measure the scheduler.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// clients is the closed loop's size for w.
func (w *workload) clients() int { return max(w.clientsPerCore, 1) * clientCount() }

// benchClient is one closed-loop caller: a session, its prepared
// statements, and its schedule.
type benchClient struct {
	cl    *flockclient.Client
	stmts map[string]*flockclient.Stmt
	next  func() *op
	trace *clientTrace // nil while tracing is off
}

func (c *benchClient) do(ctx context.Context, o *op) error {
	var res *flockclient.Result
	var err error
	switch o.mode {
	case modeCursor:
		rows, err := c.cl.Query(ctx, o.sql)
		if err != nil {
			return err
		}
		defer rows.Close()
		return o.scan(rows)
	case modePrepared:
		st := c.stmts[o.sql]
		if st == nil {
			if st, err = c.cl.Prepare(ctx, o.sql); err != nil {
				return err
			}
			c.stmts[o.sql] = st
		}
		res, err = st.Exec(ctx)
	default:
		res, err = c.cl.Exec(ctx, o.sql)
	}
	if err != nil {
		return err
	}
	if o.write {
		if res.Affected != 1 {
			return fmt.Errorf("%s: affected %d rows, want 1", o.sql, res.Affected)
		}
		if o.acked != nil {
			o.acked()
		}
		return nil
	}
	if err := compareRows(res.Rows, o.want); err != nil {
		return fmt.Errorf("%s: %w", o.sql, err)
	}
	return nil
}

// compareRows checks a result against its expected rows, in order.
func compareRows(got, want [][]any) error {
	if want == nil {
		return errors.New("no expected answer for this statement")
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !cellEqual(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d column %d: got %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// cellEqual compares two decoded cells. The SDK decodes an integral JSON
// number as int64 even when the column is a float, so numbers compare by
// value: exactly when both are ints, within floatTolerance otherwise.
func cellEqual(a, b any) bool {
	ai, aInt := a.(int64)
	bi, bInt := b.(int64)
	if aInt && bInt {
		return ai == bi
	}
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		return floatsEqual(af, bf)
	}
	return !aNum && !bNum && a == b
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func floatsEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= floatTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// opSample is one operation that succeeded.
type opSample struct {
	done  time.Duration // completion, since the phase began
	latMS float64
}

// phaseResult is what a set of clients did during one phase.
type phaseResult struct {
	ops       []opSample // ordered by completion
	attempted int64
	failed    int64
	errs      []string
	elapsed   time.Duration
}

// runPhase drives every client in a closed loop until d has passed and
// each has completed at least minOps operations.
func runPhase(ctx context.Context, clients []*benchClient, d time.Duration, minOps int) phaseResult {
	type clientOut struct {
		ops               []opSample
		attempted, failed int64
		errs              []string
	}
	outs := make([]clientOut, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(out *clientOut, c *benchClient) {
			defer wg.Done()
			defer func() {
				// A schedule panics when it cannot continue (ids used up);
				// report that as a failed run, not as a crashed harness
				// that leaves children behind.
				if r := recover(); r != nil {
					out.failed++
					out.attempted++
					out.errs = append(out.errs, fmt.Sprint("panic: ", r))
				}
			}()
			for n := 0; n < minOps || time.Since(start) < d; n++ {
				if ctx.Err() != nil {
					return
				}
				o := c.next()
				t0 := time.Now()
				if c.trace != nil {
					c.trace.beginOp(o)
				}
				err := c.do(ctx, o)
				if c.trace != nil {
					c.trace.endOp()
				}
				lat := time.Since(t0)
				out.attempted++
				if err != nil {
					out.failed++
					if len(out.errs) < maxReportedErrors {
						out.errs = append(out.errs, err.Error())
					}
					continue
				}
				out.ops = append(out.ops, opSample{done: time.Since(start), latMS: float64(lat.Nanoseconds()) / 1e6})
				if c.trace != nil {
					c.trace.shadow(ctx, c, o)
				}
			}
		}(&outs[i], c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for _, o := range outs {
		res.ops = append(res.ops, o.ops...)
		res.attempted += o.attempted
		res.failed += o.failed
		res.errs = append(res.errs, o.errs...)
	}
	sort.Slice(res.ops, func(i, j int) bool { return res.ops[i].done < res.ops[j].done })
	return res
}

// windowStats are the end-to-end timings of one measured window.
type windowStats struct {
	opsPerS, p50MS, p95MS, cpuMSPerOp float64
	p95Samples                        int // operations in the slice p95MS comes from
}

// sliceMark is one slice boundary of the measured window: when it was
// taken and the children's CPU time (in clock ticks) up to then.
type sliceMark struct {
	at    time.Duration
	ticks int64
}

// measureWindow runs the measured window: the clients in a closed loop,
// and beside them a sampler that reads the children's CPU time from /proc
// at every slice boundary (it does not touch the servers).
func measureWindow(ctx context.Context, cl *cluster, cs []*benchClient, window time.Duration) (phaseResult, windowStats, error) {
	slices := max(1, int(window/sliceLen))
	marks := make([]sliceMark, 0, slices+1)
	var sampleErr error
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for i := 0; i <= slices; i++ {
			if wait := time.Until(start.Add(window * time.Duration(i) / time.Duration(slices))); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					sampleErr = ctx.Err()
					return
				}
			}
			ticks, err := cl.cpuTicks()
			if err != nil {
				sampleErr = err
				return
			}
			marks = append(marks, sliceMark{time.Since(start), ticks})
		}
	}()
	ph := runPhase(ctx, cs, window, 0)
	<-done
	if sampleErr != nil {
		return ph, windowStats{}, sampleErr
	}
	// The clients' clock starts a few microseconds after the sampler's; at
	// slice lengths of seconds the two count as one.
	return ph, bestSlices(ph.ops, marks), nil
}

// bestSlices computes throughput, latency percentiles and CPU per operation
// per slice, over the operations (ordered by completion) that completed in
// it, and returns for each of the four its best slice, which need not be
// the same slice. A slice in which nothing completed is passed over; the
// window-wide floor on operations reports a window of such slices.
func bestSlices(ops []opSample, marks []sliceMark) windowStats {
	best := windowStats{p50MS: math.Inf(1), p95MS: math.Inf(1), cpuMSPerOp: math.Inf(1)}
	next := 0
	for i := 0; i+1 < len(marks); i++ {
		var lat []float64
		for next < len(ops) && ops[next].done < marks[i+1].at {
			if ops[next].done >= marks[i].at {
				lat = append(lat, ops[next].latMS)
			}
			next++
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		n := float64(len(lat))
		best.opsPerS = max(best.opsPerS, n/(marks[i+1].at-marks[i].at).Seconds())
		best.p50MS = min(best.p50MS, percentile(lat, 0.50))
		if p95 := percentile(lat, 0.95); p95 < best.p95MS {
			best.p95MS, best.p95Samples = p95, len(lat)
		}
		best.cpuMSPerOp = min(best.cpuMSPerOp, float64(marks[i+1].ticks-marks[i].ticks)*(1000/clockTicksPerSecond)/n)
	}
	return best
}

// setUp boots the cluster, loads the workload's tables over SQL and waits
// for the followers to catch up. The returned duration is setup_s.
func setUp(ctx context.Context, w *workload, cfg runConfig, load []string, hc *http.Client) (*cluster, time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster(ctx, w, cfg.serveBin, cfg.workDir, hc)
	if err != nil {
		return nil, 0, err
	}
	loader, err := flockclient.Dial(ctx, cl.leader.url, "bench-loader")
	if err != nil {
		cl.stop()
		return nil, 0, fmt.Errorf("dialing leader: %w", err)
	}
	for _, stmt := range load {
		if _, err := loader.Exec(ctx, stmt); err != nil {
			cl.stop()
			return nil, 0, fmt.Errorf("loading tables: %.80s...: %w", stmt, err)
		}
	}
	_ = loader.Close(ctx) // the session would expire with the process anyway
	if _, err := waitCaughtUp(ctx, cl, hc); err != nil {
		cl.stop()
		return nil, 0, err
	}
	return cl, time.Since(t0), nil
}

// waitCaughtUp blocks until every follower has applied the leader's
// durable log, and reports how long that took.
func waitCaughtUp(ctx context.Context, cl *cluster, hc *http.Client) (time.Duration, error) {
	if len(cl.followers) == 0 {
		return 0, nil
	}
	t0 := time.Now()
	lm, err := scrape(ctx, hc, cl.leader.url)
	if err != nil {
		return 0, err
	}
	target := lm["flock_wal_durable_lsn"]
	for _, f := range cl.followers {
		for {
			fm, err := scrape(ctx, hc, f.url)
			if err != nil {
				return 0, err
			}
			if fm["flock_repl_apply_lsn"] >= target {
				break
			}
			if err := cl.dead(); err != nil {
				return 0, err
			}
			select {
			case <-ctx.Done():
				return 0, fmt.Errorf("%s stuck at LSN %.0f of %.0f: %w", f.name, fm["flock_repl_apply_lsn"], target, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return time.Since(t0), nil
}

// runWorkload runs one workload once: set-up, reference pass, warm-up, the
// measured window and/or the traced phase, verification, teardown, probes.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	clients := w.clients()
	res := &runResult{Workload: w.name, Seed: cfg.seed, Clients: clients}
	hc := &http.Client{}

	// Everything derived from the seed is made before any clock starts.
	t, err := loadTruth(w.needsModel || cfg.trace) // the probes deploy the model too
	if err != nil {
		return nil, err
	}
	load := w.loadSQL(cfg.seed)
	pl := w.plan(cfg.seed, clients, t)

	var cl *cluster
	var setups []float64
	rounds := 1
	if cfg.e2e {
		rounds = setupRounds
	}
	for i := 0; i < rounds; i++ {
		if cl != nil {
			cl.stop()
		}
		var d time.Duration
		if cl, d, err = setUp(ctx, w, cfg, load, hc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer cl.stop()
	for _, n := range cl.nodes() {
		res.Argv = append(res.Argv, n.argv)
	}

	// Reference pass: the udf route answers every distinct instance (or,
	// for the PREDICT workloads, a narrow sample) before the window.
	udf, err := flockclient.Dial(ctx, cl.leader.url, "bench-udf", flockclient.WithLevel("udf"))
	if err != nil {
		return nil, fmt.Errorf("dialing udf client: %w", err)
	}
	for _, o := range pl.refs {
		if err := referenceOp(ctx, udf, o); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "reference: "+err.Error())
		}
		res.Attempted++
	}

	dial := func(traced bool) ([]*benchClient, error) {
		out := make([]*benchClient, clients)
		for i := range out {
			c := &benchClient{stmts: map[string]*flockclient.Stmt{}, next: pl.clients[i]}
			var opts []flockclient.Option
			if w.pageRows > 0 {
				opts = append(opts, flockclient.WithBatchRows(w.pageRows))
			}
			if traced {
				c.trace = newClientTrace(i, cl.leader.url, w.pageRows)
				opts = append(opts, flockclient.WithHTTPClient(&http.Client{Transport: &tracingTransport{base: http.DefaultTransport, tr: c.trace}}))
			}
			if c.cl, err = flockclient.Dial(ctx, cl.leader.url, fmt.Sprintf("bench-%d", i), opts...); err != nil {
				return nil, fmt.Errorf("dialing client %d: %w", i, err)
			}
			out[i] = c
		}
		return out, nil
	}
	note := func(ph phaseResult) {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			if len(res.Errors) < maxReportedErrors {
				res.Errors = append(res.Errors, e)
			}
		}
	}
	warmOps := (w.warmOps + clients - 1) / clients

	if cfg.e2e {
		cs, err := dial(false)
		if err != nil {
			return nil, err
		}
		note(runPhase(ctx, cs, warmUp, warmOps))
		warmOps = 0
		ph, ws, err := measureWindow(ctx, cl, cs, cfg.window)
		if err != nil {
			return nil, err
		}
		rssKB, err := cl.peakRSSKB()
		if err != nil {
			return nil, err
		}
		if err := cl.dead(); err != nil {
			return nil, fmt.Errorf("during the window: %w", err)
		}
		note(ph)
		if len(ph.ops) < minWindowOps {
			return nil, fmt.Errorf("the window completed %d correct operations (%d attempted, %d failed), fewer than the %d that latency_p95_ms needs; first errors: %v",
				len(ph.ops), ph.attempted, ph.failed, minWindowOps, ph.errs)
		}
		res.Samples = len(ph.ops)
		res.BeyondP95 = samplesBeyond(ws.p95Samples, 0.95)
		res.EndToEnd = map[string]metric{
			"ops_per_s":            {ws.opsPerS, "1/s"},
			"latency_p50_ms":       {ws.p50MS, "ms"},
			"latency_p95_ms":       {ws.p95MS, "ms"},
			"server_cpu_ms_per_op": {ws.cpuMSPerOp, "ms"},
			"server_peak_rss_mb":   {float64(rssKB) / 1024, "MB"},
			"setup_s":              {median(setups), "s"},
		}
		for _, c := range cs {
			_ = c.cl.Close(ctx) // the sessions die with the server
		}
	}

	var layer map[string]float64
	if cfg.trace {
		cs, err := dial(true)
		if err != nil {
			return nil, err
		}
		note(runPhase(ctx, cs, warmUp, warmOps))
		for _, c := range cs {
			c.trace.reset()
		}
		tp, err := runTracedPhase(ctx, cl, cs, cfg.window, hc)
		if err != nil {
			return nil, err
		}
		note(tp.phase)
		if err := cl.dead(); err != nil {
			return nil, fmt.Errorf("during the traced phase: %w", err)
		}
		layer = tp.metrics()
		if cfg.spansOut != "" {
			if err := writeSpans(cfg.spansOut, cs); err != nil {
				return nil, err
			}
		}
	}

	// Verification of server state (write_mixed: acked rows exactly once,
	// leader and followers row for row).
	if pl.verify != nil {
		v := &verifier{ctx: ctx, cl: cl, hc: hc, leader: udf}
		res.Attempted++
		if err := pl.verify(v); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "verify: "+err.Error())
		}
		if layer != nil {
			layer["repl.catchup_ms"] = float64(v.catchUp.Nanoseconds()) / 1e6
		}
	}
	cl.stop()

	if cfg.trace {
		// In-process probes run after every child has exited, so they do
		// not share the cores with a server.
		stmts := probeStatements(w, cfg.seed, clients, t)
		pm, err := runProbes(w, cfg, load, stmts, t)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for k, v := range pm {
			layer[k] = v
		}
		res.PerLayer = map[string]metric{}
		for _, d := range perLayerMetrics {
			res.PerLayer[d.name] = metric{layer[d.name], d.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// referenceOp answers o through the udf-level client. An op that already
// carries an expected answer (computed in Go) is checked against the
// route; one that does not takes the route's answer as its expectation.
func referenceOp(ctx context.Context, udf *flockclient.Client, o *op) error {
	if o.mode == modeCursor {
		rows, err := udf.Query(ctx, o.sql)
		if err != nil {
			return err
		}
		defer rows.Close()
		return o.scan(rows)
	}
	got, err := udf.Exec(ctx, o.sql)
	if err != nil {
		return fmt.Errorf("%s: %w", o.sql, err)
	}
	if o.want == nil {
		o.want = got.Rows
		return nil
	}
	if err := compareRows(got.Rows, o.want); err != nil {
		return fmt.Errorf("%s: %w", o.sql, err)
	}
	return nil
}

// verifier gives a plan's verify step access to the cluster.
type verifier struct {
	ctx     context.Context
	cl      *cluster
	hc      *http.Client
	leader  *flockclient.Client // udf level
	catchUp time.Duration
}

// verifyWriteMixed checks, on the leader, that every acknowledged ledger
// row is present exactly once with its values, that no row appears that
// nobody sent, and that every owned balance equals the client's model;
// then that both followers hold the same rows as the leader.
func verifyWriteMixed(v *verifier, models []*writeModel) error {
	const ledgerQ = "SELECT id, account, amount FROM ledger ORDER BY id"
	const accountsQ = "SELECT id, balance FROM accounts ORDER BY id"
	var err error
	if v.catchUp, err = waitCaughtUp(v.ctx, v.cl, v.hc); err != nil {
		return err
	}
	ledger, err := v.leader.Exec(v.ctx, ledgerQ)
	if err != nil {
		return err
	}
	accounts, err := v.leader.Exec(v.ctx, accountsQ)
	if err != nil {
		return err
	}

	seen := map[int64][]any{}
	for _, row := range ledger.Rows {
		id, ok := row[0].(int64)
		if !ok {
			return fmt.Errorf("ledger id %v is not an integer", row[0])
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("ledger row %d is present more than once", id)
		}
		seen[id] = row
	}
	sent := map[int64]bool{}
	allAcked := true
	for _, m := range models {
		for _, r := range m.sent {
			sent[r.id] = true
		}
		allAcked = allAcked && len(m.acked) == len(m.sent)
		for _, r := range m.acked {
			row, ok := seen[r.id]
			if !ok {
				return fmt.Errorf("acknowledged ledger row %d is missing", r.id)
			}
			if !cellEqual(row[1], r.account) || !cellEqual(row[2], r.amount) {
				return fmt.Errorf("ledger row %d is %v, want account %d amount %v", r.id, row, r.account, r.amount)
			}
		}
	}
	for id := range seen {
		if id > accountRows && !sent[id] {
			return fmt.Errorf("ledger row %d was never sent", id)
		}
	}
	// A write whose ack was lost may or may not have applied, so balances
	// are only pinned when every write was acknowledged.
	if allAcked {
		for _, row := range accounts.Rows {
			id, _ := row[0].(int64)
			m := models[int(id-1)%len(models)]
			if !cellEqual(row[1], m.balance[id]) {
				return fmt.Errorf("account %d has balance %v, want %v", id, row[1], m.balance[id])
			}
		}
	}

	for _, f := range v.cl.followers {
		fc, err := flockclient.Dial(v.ctx, f.url, "bench-verify", flockclient.WithLevel("udf"))
		if err != nil {
			return fmt.Errorf("dialing %s: %w", f.name, err)
		}
		for q, want := range map[string]*flockclient.Result{ledgerQ: ledger, accountsQ: accounts} {
			got, err := fc.Exec(v.ctx, q)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
			if err := compareRows(got.Rows, want.Rows); err != nil {
				return fmt.Errorf("%s differs from the leader on %q: %w", f.name, q, err)
			}
		}
		_ = fc.Close(v.ctx) // the session dies with the follower
	}
	return nil
}

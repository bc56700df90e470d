package infer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/onnx"
)

// linGraph builds a one-input linear graph scoring coeff*x + intercept —
// distinct parameters stand in for distinct model versions.
func linGraph(coeff, intercept float64) *onnx.Graph {
	g := &onnx.Graph{
		Name:   "m",
		Inputs: []onnx.InputSpec{{Name: "x", Kind: ml.KindNumeric}},
		Feats:  []onnx.FeatNode{{Op: onnx.OpScaler, Input: "x", Mean: 0, Scale: 1}},
		Model:  onnx.ModelNode{Op: onnx.OpLinear, Coeff: []float64{coeff}, Intercept: intercept},
		Output: "score",
	}
	g.Relayout()
	return g
}

// fakeRegistry is a test registry: versioned graphs, a bumpable generation,
// and a swappable serving graph.
type fakeRegistry struct {
	mu       sync.Mutex
	gen      int64
	versions map[string]*onnx.Graph // "name@v" -> graph
	serving  map[string]*onnx.Graph // name -> production graph
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{gen: 1, versions: map[string]*onnx.Graph{}, serving: map[string]*onnx.Graph{}}
}

func (r *fakeRegistry) Generation() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

func (r *fakeRegistry) GraphFor(ref string) (*onnx.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.versions[ref]; ok {
		return g, nil
	}
	if g, ok := r.serving[ref]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("no model %q", ref)
}

func (r *fakeRegistry) addVersion(name string, v int, g *onnx.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versions[fmt.Sprintf("%s@%d", name, v)] = g
}

// redeploy swaps the serving graph and bumps the generation, like a
// registry Promote.
func (r *fakeRegistry) redeploy(name string, g *onnx.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serving[name] = g
	r.gen++
}

func oneRow(v float64) *onnx.Batch {
	return &onnx.Batch{N: 1, Cols: []onnx.Column{{Nums: []float64{v}}}}
}

func batchOf(vals ...float64) *onnx.Batch {
	return &onnx.Batch{N: len(vals), Cols: []onnx.Column{{Nums: vals}}}
}

func TestPlaneScoreMatchesDirect(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(2, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{})
	defer p.Close()

	b := batchOf(1, 2, 3, 4)
	out := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out); err != nil {
		t.Fatal(err)
	}
	for i, x := range []float64{1, 2, 3, 4} {
		if want := 2*x + 1; out[i] != want {
			t.Fatalf("row %d: got %v want %v", i, out[i], want)
		}
	}
	// Same batch again: every row must come from the cache.
	hits0, _, _ := p.cache.stats()
	out2 := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out2); err != nil {
		t.Fatal(err)
	}
	hits1, _, _ := p.cache.stats()
	if hits1-hits0 != int64(b.N) {
		t.Fatalf("expected %d cache hits, got %d", b.N, hits1-hits0)
	}
	for i := range out {
		if out2[i] != out[i] {
			t.Fatalf("cached score diverged at row %d", i)
		}
	}
}

// gatedBackend is a Config.Remote scorer over the native session that
// records the rows of every backend call and, until opened, holds each call
// in flight — the overlap a slow backend creates, without a clock.
type gatedBackend struct {
	sess    *onnx.Session
	entered chan struct{} // one token per call that has reached the backend
	gate    chan struct{} // closed by open: calls stop being held

	mu    sync.Mutex
	calls []int // rows per backend call, in arrival order
}

func newGatedBackend(t *testing.T, g *onnx.Graph) *gatedBackend {
	t.Helper()
	sess, err := onnx.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	// entered is sized past the calls any test makes, so Score never blocks on it.
	return &gatedBackend{sess: sess, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (gb *gatedBackend) Score(b *onnx.Batch) ([]float64, error) {
	gb.mu.Lock()
	gb.calls = append(gb.calls, b.N)
	gb.mu.Unlock()
	gb.entered <- struct{}{}
	<-gb.gate
	return gb.sess.Run(b)
}

func (gb *gatedBackend) open() { close(gb.gate) }

func (gb *gatedBackend) callRows() []int {
	gb.mu.Lock()
	defer gb.mu.Unlock()
	return append([]int(nil), gb.calls...)
}

// gatedPlane builds a cache-less plane over a gated backend for g and parks
// one single-row request in flight. The returned channel yields that
// request's error once the gate opens.
func gatedPlane(t *testing.T, g *onnx.Graph) (*Plane, *gatedBackend, <-chan error) {
	t.Helper()
	reg := newFakeRegistry()
	reg.redeploy("m", g)
	gb := newGatedBackend(t, g)
	p := New(reg, Config{CacheSize: -1, Remote: func(*onnx.Graph) (onnx.Scorer, error) { return gb, nil }})
	t.Cleanup(p.Close)
	first := make(chan error, 1)
	go func() {
		first <- p.Score(context.Background(), "m", g, oneRow(-1), make([]float64, 1))
	}()
	<-gb.entered
	return p, gb, first
}

// awaitParked yields until n requests are parked behind g's in-flight call.
func awaitParked(t *testing.T, p *Plane, g *onnx.Graph, n int) {
	t.Helper()
	ba, _ := p.backends.Get(g.Fingerprint())
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		ba.mu.Lock()
		parked := len(ba.queue)
		ba.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) { // a hang guard, not a timing assertion
			t.Fatalf("%d requests parked, want %d", parked, n)
		}
	}
}

// scoreBehindParked submits one single-row request per value, waits until
// all are parked behind the plane's in-flight call, opens the gate, and
// returns each request's score once every request (the parked leader
// included) has succeeded.
func scoreBehindParked(t *testing.T, p *Plane, gb *gatedBackend, first <-chan error, g *onnx.Graph, vals []float64) []float64 {
	t.Helper()
	outs := make([]float64, len(vals))
	errs := make(chan error, len(vals))
	for i := range vals {
		go func(i int) {
			errs <- p.Score(context.Background(), "m", g, oneRow(vals[i]), outs[i:i+1])
		}(i)
	}
	awaitParked(t, p, g, len(vals))
	gb.open()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for range vals {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// TestPlaneCoalesces is the aggregation contract: requests that arrive
// while a backend call for their model is in flight are merged into exactly
// one further call, which returns what direct scoring returns.
func TestPlaneCoalesces(t *testing.T) {
	g := linGraph(3, 0.5)
	p, gb, first := gatedPlane(t, g)

	const n = 16
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) / 7
	}
	outs := scoreBehindParked(t, p, gb, first, g, vals)

	if calls := gb.callRows(); len(calls) != 2 || calls[0] != 1 || calls[1] != n {
		t.Fatalf("backend calls carried %v rows, want [1 %d]", calls, n)
	}
	want := make([]float64, 1)
	for i := range outs {
		if err := gb.sess.RunInto(oneRow(vals[i]), want); err != nil {
			t.Fatal(err)
		}
		if outs[i] != want[0] {
			t.Fatalf("request %d: coalesced score %v, direct %v", i, outs[i], want[0])
		}
	}
	gauges := p.Gauges()
	if gauges["flock_infer_degraded_total"] != 0 || gauges["flock_infer_coalesced_total"] != n+1 {
		t.Fatalf("degraded=%v coalesced=%v, want 0/%d",
			gauges["flock_infer_degraded_total"], gauges["flock_infer_coalesced_total"], n+1)
	}
	if gauges["flock_infer_batch_calls_total"] != 2 || gauges["flock_infer_batch_rows_total"] != n+1 {
		t.Fatalf("batch calls=%v rows=%v, want 2/%d",
			gauges["flock_infer_batch_calls_total"], gauges["flock_infer_batch_rows_total"], n+1)
	}
}

// TestPlaneLoneRequestScoresAtOnce: with nothing in flight there is nothing
// to wait for — one request is one 1-row backend call. A nil ctx is
// tolerated here as everywhere else in the engine.
func TestPlaneLoneRequestScoresAtOnce(t *testing.T) {
	g := linGraph(2, 1)
	reg := newFakeRegistry()
	reg.redeploy("m", g)
	gb := newGatedBackend(t, g)
	gb.open()
	p := New(reg, Config{CacheSize: -1, Remote: func(*onnx.Graph) (onnx.Scorer, error) { return gb, nil }})
	defer p.Close()

	var nilCtx context.Context
	for i, ctx := range []context.Context{context.Background(), nilCtx} {
		out := make([]float64, 1)
		if err := p.Score(ctx, "m", g, oneRow(4), out); err != nil || out[0] != 9 {
			t.Fatalf("score %d: %v, err %v", i, out[0], err)
		}
	}
	if calls := gb.callRows(); len(calls) != 2 || calls[0] != 1 || calls[1] != 1 {
		t.Fatalf("backend calls carried %v rows, want [1 1]", calls)
	}
	if got := p.Gauges()["flock_infer_coalesced_total"]; got != 2 {
		t.Fatalf("coalesced %v, want 2", got)
	}
}

// TestPlaneAbandonedParkedRequest: a parked request whose ctx dies returns
// at once, never has its out written, and does not wedge the batch it was
// queued into or the batcher after it.
func TestPlaneAbandonedParkedRequest(t *testing.T) {
	g := linGraph(1, 0)
	p, gb, first := gatedPlane(t, g)

	ctx, cancel := context.WithCancel(context.Background())
	abandonedOut := []float64{-99}
	abandoned := make(chan error, 1)
	go func() { abandoned <- p.Score(ctx, "m", g, oneRow(5), abandonedOut) }()
	awaitParked(t, p, g, 1)
	cancel()
	if err := <-abandoned; err != context.Canceled {
		t.Fatalf("abandoned request returned %v, want context.Canceled", err)
	}

	peerOut := make([]float64, 1)
	peer := make(chan error, 1)
	go func() { peer <- p.Score(context.Background(), "m", g, oneRow(6), peerOut) }()
	awaitParked(t, p, g, 2)
	gb.open()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-peer; err != nil || peerOut[0] != 6 {
		t.Fatalf("peer of the abandoned request: %v, err %v", peerOut[0], err)
	}
	// The batcher went idle again: a later request is served on its own.
	out := make([]float64, 1)
	if err := p.Score(context.Background(), "m", g, oneRow(7), out); err != nil || out[0] != 7 {
		t.Fatalf("request after the abandoned batch: %v, err %v", out[0], err)
	}
	if abandonedOut[0] != -99 {
		t.Fatalf("abandoned request's out was written: %v", abandonedOut[0])
	}
	if calls := gb.callRows(); len(calls) != 3 || calls[1] != 2 || calls[2] != 1 {
		t.Fatalf("backend calls carried %v rows, want [1 2 1]", calls)
	}
}

// TestPlaneFlushFaultDegradesEachRequest: infer.batch fires once per flush,
// and that one failure degrades every request merged into the flush to its
// own direct call.
func TestPlaneFlushFaultDegradesEachRequest(t *testing.T) {
	defer fault.Reset()
	// After: 1 lets the parked leader's own evaluation pass; the flush behind
	// it is the one trigger.
	fault.Enable("infer.batch", fault.Spec{After: 1, Count: 1})

	g := linGraph(1, 0)
	p, gb, first := gatedPlane(t, g)
	const n = 3
	outs := scoreBehindParked(t, p, gb, first, g, []float64{0, 1, 2})
	for i := range outs {
		if outs[i] != float64(i) {
			t.Fatalf("degraded request %d scored %v", i, outs[i])
		}
	}
	gauges := p.Gauges()
	if gauges["flock_infer_degraded_total"] != n || gauges["flock_infer_direct_total"] != n {
		t.Fatalf("degraded=%v direct=%v, want %d/%d",
			gauges["flock_infer_degraded_total"], gauges["flock_infer_direct_total"], n, n)
	}
	if calls := gb.callRows(); len(calls) != 1+n {
		t.Fatalf("backend calls carried %v rows, want the leader plus %d direct calls", calls, n)
	}
}

// TestPlaneCacheAdmissionByBatchShape: a batch of BatchRows or more never
// touches the score cache (it would only evict what point queries hit),
// while small batches still hit on replay.
func TestPlaneCacheAdmissionByBatchShape(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(2, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchRows: 8})
	defer p.Close()

	scan := batchOf(1, 2, 3, 4, 5, 6, 7, 8)
	out := make([]float64, scan.N)
	for pass := 0; pass < 2; pass++ {
		if err := p.Score(context.Background(), "m", g, scan, out); err != nil {
			t.Fatal(err)
		}
		if out[7] != 17 {
			t.Fatalf("scan batch scored %v", out)
		}
	}
	if hits, misses, _ := p.cache.stats(); hits != 0 || misses != 0 || p.cache.len() != 0 {
		t.Fatalf("scan-shaped batch touched the cache: hits=%d misses=%d size=%d", hits, misses, p.cache.len())
	}

	point := batchOf(1, 2, 3, 4)
	for pass := 0; pass < 2; pass++ {
		if err := p.Score(context.Background(), "m", g, point, out[:point.N]); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses, _ := p.cache.stats(); hits != 4 || misses != 4 || p.cache.len() != 4 {
		t.Fatalf("small batch: hits=%d misses=%d size=%d, want 4/4/4", hits, misses, p.cache.len())
	}
}

// TestPlaneDoesNotPinPlanGraphs: the planner hands Score a fresh clone of
// the deployed graph per plan; the plane must not keep it alive once the
// plan is gone (the fingerprint rides on the graph, not in a plane-side map).
func TestPlaneDoesNotPinPlanGraphs(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(2, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{})
	defer p.Close()

	out := make([]float64, 1)
	// The deployed graph goes first: its session legitimately holds it.
	if err := p.Score(context.Background(), "m", g, oneRow(1), out); err != nil {
		t.Fatal(err)
	}
	planned := func() weak.Pointer[onnx.Graph] {
		clone := g.Clone()
		if err := p.Score(context.Background(), "m", clone, oneRow(2), out); err != nil || out[0] != 5 {
			t.Fatalf("clone scored %v, err %v", out[0], err)
		}
		return weak.Make(clone)
	}()
	runtime.GC()
	if planned.Value() != nil {
		t.Fatal("plane still references a planned graph clone after its plan is gone")
	}
}

// TestPlaneBackendsEvictLeastRecentlyScored: retrains and redeploys leave
// dead graph versions behind, so the plane bounds its per-graph batchers —
// but a graph still being scored keeps its one batcher (and with it its
// coalescing) however many other graphs come and go.
func TestPlaneBackendsEvictLeastRecentlyScored(t *testing.T) {
	reg := newFakeRegistry()
	a := linGraph(1, 0)
	reg.redeploy("m", a)
	p := New(reg, Config{CacheSize: -1})
	defer p.Close()

	out := make([]float64, 1)
	score := func(g *onnx.Graph) {
		t.Helper()
		if err := p.Score(context.Background(), "m", g, oneRow(1), out); err != nil {
			t.Fatal(err)
		}
	}
	score(a)
	first, ok := p.backends.Get(a.Fingerprint())
	if !ok {
		t.Fatal("no batcher for a scored graph")
	}
	for i := 0; i < maxBackends+1; i++ {
		score(linGraph(2, float64(i)))
		score(a)
		if ba, _ := p.backends.Get(a.Fingerprint()); ba != first {
			t.Fatalf("after %d other graphs, the hot graph's batcher was replaced", i+1)
		}
		if n := p.backends.Len(); n > maxBackends {
			t.Fatalf("after %d other graphs, the plane holds %d batchers, want at most %d", i+1, n, maxBackends)
		}
	}
}

// TestPlaneLargeBatchBypassesBatcher: a full window (>= BatchRows) must not
// queue behind the coalescer.
func TestPlaneLargeBatchBypassesBatcher(t *testing.T) {
	reg := newFakeRegistry()
	g := linGraph(1, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{BatchRows: 4, CacheSize: -1})
	defer p.Close()

	b := batchOf(1, 2, 3, 4, 5)
	out := make([]float64, b.N)
	if err := p.Score(context.Background(), "m", g, b, out); err != nil {
		t.Fatal(err)
	}
	gauges := p.Gauges()
	if gauges["flock_infer_direct_total"] != 1 || gauges["flock_infer_coalesced_total"] != 0 {
		t.Fatalf("direct=%v coalesced=%v, want 1/0",
			gauges["flock_infer_direct_total"], gauges["flock_infer_coalesced_total"])
	}
}

// TestPlaneBatcherFaultDegradesToDirect arms infer.batch and proves the
// query-never-fails contract: every Score succeeds with correct results,
// scored via the direct fallback.
func TestPlaneBatcherFaultDegradesToDirect(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.batch", fault.Spec{})

	reg := newFakeRegistry()
	g := linGraph(3, 0)
	reg.redeploy("m", g)
	p := New(reg, Config{CacheSize: -1})
	defer p.Close()

	for i := 0; i < 10; i++ {
		out := make([]float64, 1)
		if err := p.Score(context.Background(), "m", g, oneRow(float64(i)), out); err != nil {
			t.Fatalf("score %d failed under infer.batch fault: %v", i, err)
		}
		if out[0] != 3*float64(i) {
			t.Fatalf("score %d wrong under degradation: %v", i, out[0])
		}
	}
	if got := p.Gauges()["flock_infer_degraded_total"]; got != 10 {
		t.Fatalf("degraded_total %v, want 10", got)
	}
}

// TestPlaneCacheFaultRecomputes arms infer.cache: scoring must still
// succeed (bypassing the cache), never error.
func TestPlaneCacheFaultRecomputes(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.cache", fault.Spec{})

	reg := newFakeRegistry()
	g := linGraph(1, 1)
	reg.redeploy("m", g)
	p := New(reg, Config{})
	defer p.Close()

	for i := 0; i < 5; i++ {
		out := make([]float64, 1)
		if err := p.Score(context.Background(), "m", g, oneRow(2), out); err != nil {
			t.Fatal(err)
		}
		if out[0] != 3 {
			t.Fatalf("got %v want 3", out[0])
		}
	}
	gauges := p.Gauges()
	if gauges["flock_infer_cache_faults_total"] != 5 {
		t.Fatalf("cache_faults %v, want 5", gauges["flock_infer_cache_faults_total"])
	}
	if gauges["flock_infer_cache_hits_total"] != 0 {
		t.Fatalf("cache served %v hits while faulted", gauges["flock_infer_cache_hits_total"])
	}
}

// TestGenerationBumpInvalidates is the cache-generation safety contract: a
// redeploy that changes the model must never serve the old version's
// cached score to queries planned after the bump.
func TestGenerationBumpInvalidates(t *testing.T) {
	reg := newFakeRegistry()
	v1 := linGraph(1, 0) // score = x
	v2 := linGraph(1, 5) // score = x + 5
	reg.redeploy("m", v1)
	p := New(reg, Config{})
	defer p.Close()

	out := make([]float64, 1)
	if err := p.Score(context.Background(), "m", v1, oneRow(7), out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 {
		t.Fatalf("v1 score %v, want 7", out[0])
	}
	reg.redeploy("m", v2) // retrain: generation bump
	if err := p.Score(context.Background(), "m", v2, oneRow(7), out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 12 {
		t.Fatalf("served stale score %v after redeploy, want 12", out[0])
	}
	if _, _, stale := p.cache.stats(); stale == 0 {
		t.Fatal("stale entry was not detected and evicted")
	}
}

// TestConcurrentRedeployNeverServesStale hammers Score from many
// goroutines while another goroutine redeploys new model versions, under
// -race in CI. Every returned score must be explainable by a generation
// that was current at some point during the call — never a version two
// bumps back.
func TestConcurrentRedeployNeverServesStale(t *testing.T) {
	reg := newFakeRegistry()
	// Version k scores x + 1000*k: any stale-cache bleed is unmistakable.
	mkGraph := func(k int) *onnx.Graph { return linGraph(1, float64(1000*k)) }
	reg.redeploy("m", mkGraph(0))
	p := New(reg, Config{})
	defer p.Close()

	stop := make(chan struct{})
	// Version k is visible to workers from somewhere inside redeploy, so the
	// versions a call may legitimately see run from the highest k whose
	// redeploy had finished before the call to the highest k whose redeploy
	// had begun by its end.
	var begun, deployed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= 20; k++ {
			time.Sleep(2 * time.Millisecond)
			begun.Store(int64(k))
			reg.redeploy("m", mkGraph(k))
			deployed.Store(int64(k))
		}
		close(stop)
	}()

	var wrong atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The version that was current before the call started:
				// anything older returned after this point is stale.
				floor := deployed.Load()
				g, err := reg.GraphFor("m")
				if err != nil {
					wrong.Add(1)
					return
				}
				x := float64(i % 16)
				out := make([]float64, 1)
				if err := p.Score(context.Background(), "m", g, oneRow(x), out); err != nil {
					wrong.Add(1)
					return
				}
				k := int64((out[0] - x) / 1000)
				if ceil := begun.Load(); k < floor || k > ceil {
					t.Errorf("worker %d: score %v implies version %d, current window [%d,%d]",
						w, out[0], k, floor, ceil)
					wrong.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if wrong.Load() > 0 {
		t.Fatalf("%d stale or failed scores", wrong.Load())
	}
}

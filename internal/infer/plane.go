// Package infer is the production inference plane: the model-serving layer
// between the engine's PREDICT operator and the scorer backends. It adds
// the three capabilities a per-call scoring path lacks at production
// concurrency — a batcher that merges PREDICT calls from concurrent sessions
// and cursors that overlap a backend call into single vectorized calls, a
// score cache keyed on feature-vector hash and model generation (guarded,
// like the plan cache, by revalidation rather than eager invalidation), and
// versioned candidate deployments whose mirrored traffic feeds the
// internal/monitor PSI and agreement stats that gate automatic promotion or
// rollback — closing the observe-but-never-act loop.
//
// The plane is strictly an accelerator and a governor: a batcher failure
// (including an armed infer.batch failpoint) degrades that request to
// direct scoring, and a nil plane leaves the engine's original paths
// untouched, so PREDICT never wedges behind it.
package infer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/onnx"
)

// Registry is the slice of the model registry the plane depends on: the
// monotonic generation that keys cached state and graph resolution by
// "name" or "name@version".
type Registry interface {
	Generation() int64
	GraphFor(ref string) (*onnx.Graph, error)
}

// Config tunes the plane; zero values take the documented defaults.
type Config struct {
	// BatchRows bounds the rows merged into one coalesced backend call. It
	// is also the batch shape at or above which a request bypasses both
	// coalescing and the score cache: it is already a full vectorized
	// batch riding the morsel granularity, and a scan's rows would only
	// evict entries a point query might have hit. Default 256.
	BatchRows int
	// CacheSize is the score-cache capacity in entries; 0 takes the
	// default 65536, negative disables caching.
	CacheSize int
	// CanaryMinSamples is the mirrored traffic the canary gate requires
	// before acting. Default 500.
	CanaryMinSamples int64
	// CanaryMaxDisagreement is the largest mean |candidate - primary| the
	// gate tolerates when promoting. Default 0.05.
	CanaryMaxDisagreement float64
	// Promote is called when a canary passes its gate (and by manual
	// promotion); typically core wires it to ModelRegistry.Promote with
	// the production stage. The registry-generation bump it causes is what
	// invalidates cached scores of the displaced version.
	Promote func(model string, version int) error
	// Remote optionally builds a remote scorer per graph (e.g. the HTTP
	// scoring-service client flock-serve configures): when set, backend
	// calls go through it — one round trip per merged batch — instead of
	// the in-process native session.
	Remote func(g *onnx.Graph) (onnx.Scorer, error)
}

func (c Config) withDefaults() Config {
	if c.BatchRows == 0 {
		c.BatchRows = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 65536
	}
	if c.CanaryMinSamples == 0 {
		c.CanaryMinSamples = 500
	}
	if c.CanaryMaxDisagreement == 0 {
		c.CanaryMaxDisagreement = 0.05
	}
	return c
}

// maxBackends bounds the per-graph batchers left behind by retrains.
const maxBackends = 128

// Plane is the inference plane. It is safe for concurrent use; one Plane
// serves every session of a Flock instance.
type Plane struct {
	cfg Config
	reg Registry

	cache *scoreCache // nil when disabled
	batch batchStats

	// backends maps graph fingerprints to batchers; a request holding an
	// evicted batcher finishes through it.
	backends *lru.Cache[uint64, *batcher]
	mu       sync.RWMutex
	closed   bool
	deps     map[string]*deployment

	direct      atomic.Int64 // requests scored without coalescing
	coalesced   atomic.Int64 // requests routed through the batcher
	degraded    atomic.Int64 // batcher failures degraded to direct scoring
	cacheFaults atomic.Int64 // infer.cache failpoint trips
	promotions  atomic.Int64
	rollbacks   atomic.Int64
}

// New builds a plane over the registry.
func New(reg Registry, cfg Config) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:      cfg,
		reg:      reg,
		backends: lru.New[uint64, *batcher](maxBackends),
		deps:     map[string]*deployment{},
	}
	if cfg.CacheSize > 0 {
		p.cache = newScoreCache(cfg.CacheSize)
	}
	return p
}

// Close stops coalescing. In-flight and parked requests complete; later
// requests score directly.
func (p *Plane) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Score scores the batch for model through the plane — the engine's
// PredictPlane hook. g is the planned graph (possibly sparsity-pruned, so
// it is scored as given rather than re-resolved), b the columnar inputs,
// and out receives one score per row.
func (p *Plane) Score(ctx context.Context, model string, g *onnx.Graph, b *onnx.Batch, out []float64) error {
	n := b.N
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The generation is captured once per call: in-flight work planned
	// against this generation may serve and fill entries stamped with it,
	// while any later lookup that observes a bump treats them as stale.
	gen := p.reg.Generation()
	// The content fingerprint identifies "this model version" across the
	// per-plan graph clones the planner hands us — it keys cache entries
	// and the shared backend.
	fp := g.Fingerprint()

	p.mu.RLock()
	dep, closed := p.deps[model], p.closed
	p.mu.RUnlock()
	ba, ok := p.backends.Get(fp)
	if !ok {
		var err error
		if ba, err = p.addBackend(g, fp); err != nil {
			return err
		}
	}
	// A batch of BatchRows or more is scan-mode PREDICT: one direct
	// vectorized call, with neither batcher nor cache in the way.
	small := n < p.cfg.BatchRows
	coalesce := small && !closed

	cacheOK := small && p.cache != nil
	if cacheOK {
		if err := fault.Inject("infer.cache"); err != nil {
			// An unavailable cache costs recomputation, never correctness.
			p.cacheFaults.Add(1)
			cacheOK = false
		}
	}
	var (
		hashes   []uint64
		missRows []int
	)
	if cacheOK {
		hashes = make([]uint64, n)
		missRows = make([]int, 0, n)
		for i := 0; i < n; i++ {
			hashes[i] = b.HashRow(i)
			if s, ok := p.cache.lookup(model, hashes[i], gen, fp); ok {
				out[i] = s
			} else {
				missRows = append(missRows, i)
			}
		}
	}

	if !cacheOK || len(missRows) == n {
		if err := p.scoreBackend(ctx, ba, coalesce, b, out[:n]); err != nil {
			return err
		}
	} else if len(missRows) > 0 {
		sub := gatherBatch(b, missRows)
		subOut := make([]float64, len(missRows))
		if err := p.scoreBackend(ctx, ba, coalesce, sub, subOut); err != nil {
			return err
		}
		for k, i := range missRows {
			out[i] = subOut[k]
		}
	}
	if cacheOK {
		for _, i := range missRows {
			p.cache.store(model, hashes[i], gen, fp, out[i])
		}
	}
	if dep != nil {
		p.mirror(model, dep, b, out[:n])
	}
	return nil
}

// scoreFn is one graph's resolved backend: a vectorized native session or
// a remote scorer round trip.
type scoreFn func(b *onnx.Batch, out []float64) error

// scoreBackend makes the backend call for one (sub-)batch: through the
// graph's batcher when coalescing, and directly otherwise or when the
// batcher fails — injected or real, a batcher failure degrades the request
// rather than failing the query.
func (p *Plane) scoreBackend(ctx context.Context, ba *batcher, coalesce bool, b *onnx.Batch, out []float64) error {
	if coalesce {
		err := ba.scoreBatched(ctx, b, out)
		if err == nil {
			p.coalesced.Add(1)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p.degraded.Add(1)
	}
	p.direct.Add(1)
	return ba.score(b, out)
}

// addBackend resolves and registers the backend for a graph's content: its
// scorer and the batcher every concurrent session and cursor scoring that
// model version shares — which is what makes cross-query coalescing work.
// Deployed graphs are immutable and content-identical clones score
// identically, so fingerprint keying is sound.
func (p *Plane) addBackend(g *onnx.Graph, fp uint64) (*batcher, error) {
	var fn scoreFn
	if p.cfg.Remote != nil {
		scorer, err := p.cfg.Remote(g)
		if err != nil {
			return nil, err
		}
		fn = func(b *onnx.Batch, out []float64) error {
			scores, err := scorer.Score(b)
			if err != nil {
				return err
			}
			copy(out, scores)
			return nil
		}
	} else {
		sess, err := onnx.NewSession(g)
		if err != nil {
			return nil, err
		}
		fn = sess.RunInto
	}
	// p.mu makes check-then-put atomic, so concurrent first requests for
	// one graph share a single batcher.
	p.mu.Lock()
	defer p.mu.Unlock()
	if have, ok := p.backends.Get(fp); ok {
		return have, nil
	}
	ba := &batcher{maxRows: p.cfg.BatchRows, score: fn, stats: &p.batch}
	p.backends.Put(fp, ba)
	return ba, nil
}

// gatherBatch extracts the given rows of b into a dense batch.
func gatherBatch(b *onnx.Batch, rows []int) *onnx.Batch {
	sub := &onnx.Batch{N: len(rows), Cols: make([]onnx.Column, len(b.Cols))}
	for c := range b.Cols {
		if b.Cols[c].Nums != nil {
			nums := make([]float64, len(rows))
			for k, i := range rows {
				nums[k] = b.Cols[c].Nums[i]
			}
			sub.Cols[c].Nums = nums
		} else {
			strs := make([]string, len(rows))
			for k, i := range rows {
				strs[k] = b.Cols[c].Strs[i]
			}
			sub.Cols[c].Strs = strs
		}
	}
	return sub
}

// mirror feeds a scored batch to the model's candidate deployment and
// applies the gate's decision.
func (p *Plane) mirror(model string, d *deployment, b *onnx.Batch, primary []float64) {
	switch d.observe(b, primary, p.cfg.CanaryMinSamples, p.cfg.CanaryMaxDisagreement) {
	case +1:
		if p.cfg.Promote != nil {
			if err := p.cfg.Promote(model, d.version); err != nil {
				d.setStage(StageRolledBack, fmt.Sprintf("promotion failed: %v", err))
				p.rollbacks.Add(1)
				return
			}
		}
		p.promotions.Add(1)
	case -1:
		p.rollbacks.Add(1)
	}
}

// Deploy registers version as the candidate for model in the given stage
// (StageShadow or StageCanary), replacing any previous candidate.
func (p *Plane) Deploy(model string, version int, stage Stage) (DeploymentStatus, error) {
	if stage != StageShadow && stage != StageCanary {
		return DeploymentStatus{}, fmt.Errorf("infer: deploy stage must be shadow or canary, got %s", stage)
	}
	g, err := p.reg.GraphFor(fmt.Sprintf("%s@%d", model, version))
	if err != nil {
		return DeploymentStatus{}, err
	}
	sess, err := onnx.NewSession(g)
	if err != nil {
		return DeploymentStatus{}, err
	}
	d := &deployment{model: model, version: version, stage: stage, sess: sess}
	p.mu.Lock()
	p.deps[model] = d
	p.mu.Unlock()
	return d.status(), nil
}

// PromoteCandidate manually promotes the model's candidate, regardless of
// the gate's stats.
func (p *Plane) PromoteCandidate(model string) (DeploymentStatus, error) {
	d, err := p.candidateFor(model)
	if err != nil {
		return DeploymentStatus{}, err
	}
	if st := d.currentStage(); st != StageShadow && st != StageCanary {
		return d.status(), fmt.Errorf("infer: candidate for %s is %s, not promotable", model, st)
	}
	if p.cfg.Promote != nil {
		if err := p.cfg.Promote(model, d.version); err != nil {
			return d.status(), err
		}
	}
	d.setStage(StagePromoted, "manual promotion")
	p.promotions.Add(1)
	return d.status(), nil
}

// RollbackCandidate manually rolls the model's candidate back; mirrored
// scoring stops.
func (p *Plane) RollbackCandidate(model string) (DeploymentStatus, error) {
	d, err := p.candidateFor(model)
	if err != nil {
		return DeploymentStatus{}, err
	}
	d.setStage(StageRolledBack, "manual rollback")
	p.rollbacks.Add(1)
	return d.status(), nil
}

func (p *Plane) candidateFor(model string) (*deployment, error) {
	p.mu.RLock()
	d := p.deps[model]
	p.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("infer: no candidate deployment for model %q", model)
	}
	return d, nil
}

// Deployments returns the status of every candidate, sorted by model.
func (p *Plane) Deployments() []DeploymentStatus {
	p.mu.RLock()
	out := make([]DeploymentStatus, 0, len(p.deps))
	for _, d := range p.deps {
		out = append(out, d.status())
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Gauges exports the plane's metrics in the server's gauge-map convention.
// Canary state encodes the Stage enum: 1 shadow, 2 canary, 3 promoted,
// 4 rolled-back.
func (p *Plane) Gauges() map[string]float64 {
	m := map[string]float64{}
	calls, rows := p.batch.calls.Load(), p.batch.rows.Load()
	m["flock_infer_batch_calls_total"] = float64(calls)
	m["flock_infer_batch_rows_total"] = float64(rows)
	if calls > 0 {
		m["flock_infer_batch_occupancy"] = float64(rows) / float64(calls)
	} else {
		m["flock_infer_batch_occupancy"] = 0
	}
	if p.cache != nil {
		hits, misses, stale := p.cache.stats()
		m["flock_infer_cache_hits_total"] = float64(hits)
		m["flock_infer_cache_misses_total"] = float64(misses)
		m["flock_infer_cache_stale_total"] = float64(stale)
		m["flock_infer_cache_size"] = float64(p.cache.len())
	}
	m["flock_infer_direct_total"] = float64(p.direct.Load())
	m["flock_infer_coalesced_total"] = float64(p.coalesced.Load())
	m["flock_infer_degraded_total"] = float64(p.degraded.Load())
	m["flock_infer_cache_faults_total"] = float64(p.cacheFaults.Load())
	m["flock_infer_promotions_total"] = float64(p.promotions.Load())
	m["flock_infer_rollbacks_total"] = float64(p.rollbacks.Load())
	for _, st := range p.Deployments() {
		label := fmt.Sprintf("{model=%q}", st.Model)
		var stage Stage
		switch st.Stage {
		case StageShadow.String():
			stage = StageShadow
		case StageCanary.String():
			stage = StageCanary
		case StagePromoted.String():
			stage = StagePromoted
		case StageRolledBack.String():
			stage = StageRolledBack
		}
		m["flock_infer_canary_state"+label] = float64(stage)
		m["flock_infer_canary_psi"+label] = st.PSI
		m["flock_infer_canary_agreement"+label] = st.Agreement
	}
	return m
}

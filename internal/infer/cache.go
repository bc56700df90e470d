package infer

import (
	"sync"

	"repro/internal/lru"
)

// scoreCache memoizes model scores keyed on (model, feature-vector hash),
// with each entry stamped by the registry generation and the graph
// fingerprint it was computed under. Eviction is the shared lru.Cache; this
// wrapper adds only the score cache's own parts: the generation guard and
// its counters. Like the plan cache, the cache only ever amortizes:
// correctness comes from the generation guard on every read, not from
// eager invalidation — a retrain or redeploy bumps the registry generation,
// and the first lookup that observes the mismatch removes the entry instead
// of serving it (counted in stale). The cachegen flock-vet analyzer
// enforces that guard.
type scoreCache struct {
	// mu makes lookup's check-then-remove of a stale entry atomic with
	// respect to a concurrent store of a fresh one, and guards the counters.
	mu      sync.Mutex
	entries *lru.Cache[cacheKey, cacheEntry]

	hits, misses, stale int64
}

type cacheKey struct {
	model string
	hash  uint64
}

type cacheEntry struct {
	gen   int64
	fp    uint64 // fingerprint of the graph that produced the score
	score float64
}

func newScoreCache(capacity int) *scoreCache {
	return &scoreCache{entries: lru.New[cacheKey, cacheEntry](capacity)}
}

// lookup returns the cached score for (model, hash) if and only if it was
// computed under the given registry generation for the given graph
// content. The generation comparison removes entries orphaned by a retrain
// or redeploy; the fingerprint comparison closes the race where a redeploy
// lands between a caller resolving its graph and the plane stamping the
// entry — a score is only ever served against graph content identical to
// what produced it. (Fingerprints rather than pointer identity, because
// the planner clones the deployed graph into every plan.)
func (c *scoreCache) lookup(model string, hash uint64, gen int64, fp uint64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{model: model, hash: hash}
	e, ok := c.entries.Get(k)
	if !ok {
		c.misses++
		return 0, false
	}
	if e.gen != gen || e.fp != fp {
		// Stale generation (or a graph from the losing side of a redeploy
		// race): the model changed after this score was computed. Never
		// serve it.
		c.entries.Remove(k)
		c.stale++
		c.misses++
		return 0, false
	}
	c.hits++
	return e.score, true
}

// store records a score computed under gen for graph fingerprint fp,
// evicting the least recently used entry beyond capacity.
func (c *scoreCache) store(model string, hash uint64, gen int64, fp uint64, score float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(cacheKey{model: model, hash: hash}, cacheEntry{gen: gen, fp: fp, score: score})
}

// stats returns (hits, misses, stale evictions) so far.
func (c *scoreCache) stats() (int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale
}

// len reports current occupancy.
func (c *scoreCache) len() int { return c.entries.Len() }

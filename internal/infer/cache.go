package infer

import (
	"container/list"
	"sync"
)

// scoreCache memoizes model scores keyed on (model, feature-vector hash),
// with each entry stamped by the registry generation and the graph
// fingerprint it was computed under. Like the plan cache, the cache only
// ever amortizes: correctness comes from the generation guard on every
// read, not from eager invalidation — a retrain or redeploy bumps the
// registry generation, and the first lookup that observes the mismatch
// evicts the entry instead of serving it (counted in stale). The cachegen
// flock-vet analyzer enforces that guard.
type scoreCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits, misses, stale int64
}

type cacheKey struct {
	model string
	hash  uint64
}

type cacheEntry struct {
	key   cacheKey
	gen   int64
	fp    uint64 // fingerprint of the graph that produced the score
	score float64
}

func newScoreCache(capacity int) *scoreCache {
	return &scoreCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

// lookup returns the cached score for (model, hash) if and only if it was
// computed under the given registry generation for the given graph
// content. The generation comparison evicts entries orphaned by a retrain
// or redeploy; the fingerprint comparison closes the race where a redeploy
// lands between a caller resolving its graph and the plane stamping the
// entry — a score is only ever served against graph content identical to
// what produced it. (Fingerprints rather than pointer identity, because
// the planner clones the deployed graph into every plan.)
func (c *scoreCache) lookup(model string, hash uint64, gen int64, fp uint64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{model: model, hash: hash}]
	if !ok {
		c.misses++
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen || e.fp != fp {
		// Stale generation (or a graph from the losing side of a redeploy
		// race): the model changed after this score was computed. Never
		// serve it.
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.stale++
		c.misses++
		return 0, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return e.score, true
}

// store records a score computed under gen for graph fingerprint fp,
// evicting LRU entries beyond capacity.
func (c *scoreCache) store(model string, hash uint64, gen int64, fp uint64, score float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{model: model, hash: hash}
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		e.gen, e.fp, e.score = gen, fp, score
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: k, gen: gen, fp: fp, score: score})
	c.entries[k] = el
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// stats returns (hits, misses, stale evictions) so far.
func (c *scoreCache) stats() (int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale
}

// len reports current occupancy.
func (c *scoreCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

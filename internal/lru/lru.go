// Package lru is the one bounded map of the serving path: the server's
// plan cache and cursor tombstones and the inference plane's score cache
// and per-model batchers all evict through it, so they share one eviction
// rule — least recently used — and one implementation.
package lru

import "sync"

// Cache maps keys to values, holding at most a fixed number of entries;
// inserting past capacity evicts the least recently used entry. It is safe
// for concurrent use; a caller that must check and then act on an entry
// atomically holds its own lock around both calls.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*node[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root node[K, V]
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// New returns an empty cache holding at most capacity entries (none, if
// capacity is below one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*node[K, V], max(capacity, 0))}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry, overwriting any
// value already there, and reports whether it evicted another entry to
// stay within capacity.
func (c *Cache[K, V]) Put(k K, v V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[k]; ok {
		n.val = v
		c.unlink(n)
		c.pushFront(n)
		return false
	}
	n := &node[K, V]{key: k, val: v}
	c.items[k] = n
	c.pushFront(n)
	if len(c.items) <= c.cap {
		return false
	}
	last := c.root.prev
	c.unlink(last)
	delete(c.items, last.key)
	return true
}

// Remove deletes the entry under k, if any.
func (c *Cache[K, V]) Remove(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[k]; ok {
		c.unlink(n)
		delete(c.items, k)
	}
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

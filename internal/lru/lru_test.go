package lru

import (
	"slices"
	"sync"
	"testing"
)

// order lists the keys from most to least recently used.
func (c *Cache[K, V]) order() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []K
	for n := c.root.next; n != &c.root; n = n.next {
		ks = append(ks, n.key)
	}
	return ks
}

func TestCache(t *testing.T) {
	type op struct {
		kind    string // "put", "get", "remove"
		key     string
		val     int
		want    int  // get: the value expected
		present bool // get: whether the key is expected
		evicted bool // put: the eviction report expected
	}
	for _, tc := range []struct {
		name  string
		cap   int
		ops   []op
		order []string // most recently used first
	}{
		{
			name:  "insertion order is recency order",
			cap:   3,
			ops:   []op{{kind: "put", key: "a"}, {kind: "put", key: "b"}, {kind: "put", key: "c"}},
			order: []string{"c", "b", "a"},
		},
		{
			name: "get refreshes recency",
			cap:  3,
			ops: []op{
				{kind: "put", key: "a", val: 1}, {kind: "put", key: "b"}, {kind: "put", key: "c"},
				{kind: "get", key: "a", want: 1, present: true},
			},
			order: []string{"a", "c", "b"},
		},
		{
			name: "put past capacity evicts the least recently used",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a"}, {kind: "put", key: "b"},
				{kind: "get", key: "a", present: true},
				{kind: "put", key: "c", evicted: true},
				{kind: "get", key: "b"},
			},
			order: []string{"c", "a"},
		},
		{
			name: "overwrite does not evict and refreshes recency",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a", val: 1}, {kind: "put", key: "b", val: 2},
				{kind: "put", key: "a", val: 3},
				{kind: "get", key: "a", want: 3, present: true},
				{kind: "put", key: "c", evicted: true},
				{kind: "get", key: "b"},
			},
			order: []string{"c", "a"},
		},
		{
			name: "remove frees a slot",
			cap:  2,
			ops: []op{
				{kind: "put", key: "a"}, {kind: "put", key: "b"},
				{kind: "remove", key: "a"},
				{kind: "remove", key: "missing"},
				{kind: "get", key: "a"},
				{kind: "put", key: "c"},
			},
			order: []string{"c", "b"},
		},
		{
			name: "capacity one",
			cap:  1,
			ops: []op{
				{kind: "put", key: "a"},
				{kind: "put", key: "a"},
				{kind: "put", key: "b", evicted: true},
			},
			order: []string{"b"},
		},
		{
			name:  "capacity zero holds nothing",
			cap:   0,
			ops:   []op{{kind: "put", key: "a", evicted: true}, {kind: "get", key: "a"}},
			order: nil,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.cap)
			for i, o := range tc.ops {
				switch o.kind {
				case "put":
					if ev := c.Put(o.key, o.val); ev != o.evicted {
						t.Fatalf("op %d: Put(%q) evicted = %v, want %v", i, o.key, ev, o.evicted)
					}
				case "get":
					v, ok := c.Get(o.key)
					if ok != o.present || v != o.want {
						t.Fatalf("op %d: Get(%q) = %d, %v; want %d, %v", i, o.key, v, ok, o.want, o.present)
					}
				case "remove":
					c.Remove(o.key)
				}
			}
			if got := c.order(); !slices.Equal(got, tc.order) {
				t.Fatalf("recency order %v, want %v", got, tc.order)
			}
			if c.Len() != len(tc.order) {
				t.Fatalf("Len() = %d, want %d", c.Len(), len(tc.order))
			}
		})
	}
}

func TestGetAllocatesNothing(t *testing.T) {
	c := New[uint64, float64](4)
	c.Put(1, 0.5)
	c.Put(2, 0.25)
	if n := testing.AllocsPerRun(100, func() {
		c.Get(1)
		c.Get(2)
		c.Get(3)
	}); n != 0 {
		t.Fatalf("Get allocates %v times per run, want 0", n)
	}
}

// TestConcurrentGetPut is meant for -race: several goroutines share one
// small cache, so gets, overwrites and evictions interleave.
func TestConcurrentGetPut(t *testing.T) {
	const capacity, keys, workers, ops = 16, 64, 4, 2000
	c := New[int, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (i*7 + w*13) % keys
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				c.Put(k, k)
				if i%5 == 0 {
					c.Remove(k)
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len() = %d past capacity %d", n, capacity)
	}
	if got := len(c.order()); got != c.Len() {
		t.Fatalf("list holds %d entries, map %d", got, c.Len())
	}
}

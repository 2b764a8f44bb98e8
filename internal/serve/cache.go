package serve

import (
	"container/list"
	"sync"

	"subgraph/internal/kernel"
)

// Cache is the LRU result cache. Keys are the canonical job identity
// (graph digest, pattern digest, canonicalized options — seed included),
// values the finished *JobResult without a run report. The simulator is
// deterministic in the key, so serving a cached result is
// indistinguishable from re-running the engine untraced.
//
// Cached results are shared pointers and must be treated as immutable by
// every reader.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *JobResult
}

// NewCache returns a cache bounded to max entries; max ≤ 0 disables
// caching entirely (every lookup misses, every insert is dropped). Both
// sentinels disable — 0 is NOT "unbounded": an unbounded result cache in a
// long-running daemon is a memory leak, and the eviction loop in Put only
// runs for positive bounds, so a zero bound once meant exactly that leak.
// Callers wanting the server default should go through Config.CacheSize,
// whose zero value maps to the documented default instead.
func NewCache(max int) *Cache {
	return &Cache{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached result for key, touching its recency.
func (c *Cache) Get(key string) (*JobResult, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, true
	}
	return nil, false
}

// Put inserts (or refreshes) the result for key, evicting the least
// recently used entry beyond the bound.
func (c *Cache) Put(key string, res *JobResult) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, res: res})
	c.byKey[key] = el
	for c.max > 0 && c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counts lists the K_s counts cached for digest, by clique size: the
// parent counts a worker derives a child's from, and the ones a router
// carries with a delta.
func (c *Cache) Counts(digest string) CliqueCounts {
	out := make(CliqueCounts)
	for size := 2; size <= kernel.MaxCliqueSize; size++ {
		if res, ok := c.Get(countKey(digest, size)); ok && res.Count != nil {
			out[size] = *res.Count
		}
	}
	return out
}

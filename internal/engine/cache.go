package engine

import (
	"container/list"
	"context"
	"sync"

	"nwdec/internal/obs"
)

// cacheBackend serves requests from the bounded, content-addressed LRU
// and stores what the layers below compute. It sits inside the
// singleflight layer, so a computed result is cached before the flight
// lands — a request arriving the instant a flight completes either joins
// it or hits the cache, never recomputes.
type cacheBackend struct {
	cache *resultCache
	next  Backend
	stats layerStats
}

func newCacheBackend(maxEntries int, maxCost int64, next Backend) *cacheBackend {
	return &cacheBackend{
		cache: newResultCache(maxEntries, maxCost),
		next:  next,
		stats: layerStats{name: "cache"},
	}
}

// Stats reports the layer's lifetime counters.
func (b *cacheBackend) Stats() BackendStats { return b.stats.Stats() }

// len returns the number of cached responses.
func (b *cacheBackend) len() int { return b.cache.len() }

// Handle serves from the cache, or delegates and caches the computed
// original. The cached original never leaves the layer: hits return a
// caller-private clone, and the computed response is cloned on the way
// out for the same reason.
func (b *cacheBackend) Handle(ctx context.Context, req Request) (*Response, error) {
	b.stats.requests.Add(1)
	reg := obs.From(ctx)
	key := req.Key()
	if resp, ok := b.cache.get(key); ok {
		reg.Counter("engine/cache/hits").Add(1)
		b.stats.served.Add(1)
		return resp.clone(true), nil
	}
	reg.Counter("engine/cache/misses").Add(1)
	resp, err := b.next.Handle(ctx, req)
	if err != nil {
		b.stats.errors.Add(1)
		return nil, err
	}
	evicted := b.cache.add(key, resp, resp.cost())
	if evicted > 0 {
		reg.Counter("engine/cache/evictions").Add(int64(evicted))
	}
	reg.Gauge("engine/cache/entries").Set(float64(b.cache.len()))
	reg.Gauge("engine/cache/cost").Set(float64(b.cache.costNow()))
	return resp.clone(false), nil
}

// cacheEntry is one cached response with its content address and weight.
type cacheEntry struct {
	key  string
	resp *Response
	cost int64
}

// resultCache is a bounded LRU over content-addressed responses. Two caps
// apply together: a maximum entry count and a maximum total cost (the sum
// of Response.cost weights); exceeding either evicts from the
// least-recently-used end. The cache is safe for concurrent use and keeps
// no metrics of its own — the engine counts hits, misses and evictions in
// the request path, where the obs registry is at hand.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxCost    int64
	cost       int64
	ll         *list.List // front = most recently used; values are *cacheEntry
	items      map[string]*list.Element
}

func newResultCache(maxEntries int, maxCost int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxCost:    maxCost,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached response for key, refreshing its recency.
func (c *resultCache) get(key string) (*Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// add stores a response under key and returns how many entries were
// evicted to make room. A response whose cost alone exceeds the cost cap
// is not stored at all — admitting it would immediately evict everything
// else and then itself.
func (c *resultCache) add(key string, resp *Response, cost int64) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxCost {
		return 0
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.cost += cost - ent.cost
		ent.resp, ent.cost = resp, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp, cost: cost})
		c.cost += cost
	}
	for c.ll.Len() > c.maxEntries || c.cost > c.maxCost {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.cost -= ent.cost
		evicted++
	}
	return evicted
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// costNow returns the current total cost.
func (c *resultCache) costNow() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

package engine

import "container/list"

// lruCache is a plain (externally locked) LRU map from fingerprint to an
// arbitrary value. The Engine guards it with its own mutex, so the cache
// itself carries no locking. Eviction is bounded two ways: an entry-count
// cap, and (when maxBytes > 0) a byte budget over the caller-supplied
// per-entry size estimates — the budget is the primary bound for caches of
// memory-heavy values, the entry cap the secondary one.
type lruCache struct {
	cap       int
	maxBytes  int64
	bytes     int64
	order     *list.List // front = most recently used; values are *lruEntry
	items     map[string]*list.Element
	evictions uint64
}

type lruEntry struct {
	key   string
	value any
	size  int64
}

func newLRU(capacity int) *lruCache {
	return newLRUBytes(capacity, 0)
}

func newLRUBytes(capacity int, maxBytes int64) *lruCache {
	return &lruCache{cap: capacity, maxBytes: maxBytes, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// add inserts or refreshes a value, evicting the least recently used entry
// when over capacity.
func (c *lruCache) add(key string, value any) { c.addSized(key, value, 0) }

// addSized inserts or refreshes a value charged at size bytes against the
// byte budget, evicting least recently used entries while either bound is
// exceeded. An entry larger than the whole budget is rejected up front
// (removing any stale version) rather than admitted: the budget is a hard
// bound on what the cache pins, and admitting an uncacheable value would
// first flush every other entry only to evict the value itself.
func (c *lruCache) addSized(key string, value any, size int64) {
	if c.maxBytes > 0 && size > c.maxBytes {
		c.drop(key)
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.value = value
		e.size = size
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry{key: key, value: value, size: size})
		c.bytes += size
	}
	for c.order.Len() > 0 && (c.order.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.order.Back()
		c.remove(oldest)
		c.evictions++
	}
}

// drop removes key's entry, if present, without counting an eviction.
func (c *lruCache) drop(key string) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// each calls fn for every live entry from least to most recently used, so
// replaying the sequence through add reproduces the recency order.
func (c *lruCache) each(fn func(key string, value any)) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry)
		fn(e.key, e.value)
	}
}

// len returns the number of live entries.
func (c *lruCache) len() int { return c.order.Len() }

// sizeBytes returns the summed size estimates of the live entries.
func (c *lruCache) sizeBytes() int64 { return c.bytes }

// reset drops every entry (eviction counter included).
func (c *lruCache) reset() {
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.evictions = 0
	c.bytes = 0
}

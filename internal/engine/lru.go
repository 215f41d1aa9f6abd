package engine

import "container/list"

// lruCache is a plain (externally locked) LRU map from a string key to a V.
// The Engine guards it with its own mutex, so the cache itself carries no
// locking. Eviction is bounded by an entry-count cap (when cap > 0) or by
// a byte budget over the caller-supplied per-entry size estimates (when
// maxBytes > 0): the Result cache uses the first, the family store the
// second.
type lruCache[V any] struct {
	cap       int
	maxBytes  int64
	bytes     int64
	order     *list.List // front = most recently used; values are *lruEntry[V]
	items     map[string]*list.Element
	evictions uint64
}

type lruEntry[V any] struct {
	key   string
	value V
	size  int64
}

// newLRU returns a cache bounded to capacity entries.
func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// newLRUBytes returns a cache bounded to maxBytes of summed size
// estimates; zero leaves it unbounded.
func newLRUBytes[V any](maxBytes int64) *lruCache[V] {
	return &lruCache[V]{maxBytes: maxBytes, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).value, true
}

// add inserts or refreshes a value charged at size bytes against the byte
// budget, evicting least recently used entries while the bound is
// exceeded. An entry larger than the whole budget is rejected up front
// (removing any stale version) rather than admitted: the budget is a hard
// bound on what the cache pins, and admitting an uncacheable value would
// first flush every other entry only to evict the value itself.
func (c *lruCache[V]) add(key string, value V, size int64) {
	if c.maxBytes > 0 && size > c.maxBytes {
		c.drop(key)
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.bytes += size - e.size
		e.value = value
		e.size = size
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, value: value, size: size})
		c.bytes += size
	}
	for c.order.Len() > 0 && ((c.cap > 0 && c.order.Len() > c.cap) || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.order.Back()
		c.remove(oldest)
		c.evictions++
	}
}

// drop removes key's entry, if present, without counting an eviction.
func (c *lruCache[V]) drop(key string) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

func (c *lruCache[V]) remove(el *list.Element) {
	e := el.Value.(*lruEntry[V])
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// each calls fn for every live entry from least to most recently used, so
// replaying the sequence through add reproduces the recency order.
func (c *lruCache[V]) each(fn func(key string, value V)) {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[V])
		fn(e.key, e.value)
	}
}

// len returns the number of live entries.
func (c *lruCache[V]) len() int { return c.order.Len() }

// sizeBytes returns the summed size estimates of the live entries.
func (c *lruCache[V]) sizeBytes() int64 { return c.bytes }

// reset drops every entry (eviction counter included).
func (c *lruCache[V]) reset() {
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.evictions = 0
	c.bytes = 0
}

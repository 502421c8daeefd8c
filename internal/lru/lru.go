// Package lru provides the minimal generic LRU map shared by the
// advisory service's caches (responses, interned schemas) and the async
// job store. Kept dependency-free on purpose — the module imports
// nothing outside the standard library.
package lru

import "container/list"

// Cache is a plain LRU map: Get promotes, Add evicts the least recently
// used entry beyond the capacity. It is not goroutine-safe; callers
// serialize access under their own mutex.
type Cache[K comparable, V any] struct {
	max   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries (minimum 1).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		max = 1
	}
	return &Cache[K, V]{
		max:   max,
		order: list.New(),
		items: make(map[K]*list.Element, max),
	}
}

// Get returns the value for key and promotes it to most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or replaces key and reports the entry it evicted, if any.
func (c *Cache[K, V]) Add(key K, val V) (evicted K, ok bool) {
	if el, found := c.items[key]; found {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return evicted, false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() <= c.max {
		return evicted, false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	e := oldest.Value.(*entry[K, V])
	delete(c.items, e.key)
	return e.key, true
}

// Remove deletes key from the cache and reports whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

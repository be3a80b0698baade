package engine

import (
	"container/list"
	"sync"
)

// lru is the engine's one cache shape: a mutex-guarded LRU bounded by the
// bytes charged to its entries. The program memo, the answer memo and the
// session cache are each one (DESIGN.md §12, "Retained memory").
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	bound int
	order *list.List // of *lruEntry[K, V]; front = most recently used
	byKey map[K]*list.Element
	bytes int

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

// lruEntryBytes is charged to every entry for its list element and map slot.
const lruEntryBytes = 160

func newLRU[K comparable, V any](bound int) *lru[K, V] {
	return &lru[K, V]{bound: bound, order: list.New(), byKey: map[K]*list.Element{}}
}

// get returns the value stored under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) { return c.find(k, false) }

// take removes the value stored under k and returns it: a checkout.
func (c *lru[K, V]) take(k K) (V, bool) { return c.find(k, true) }

func (c *lru[K, V]) find(k K, take bool) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.byKey[k]
	if el == nil {
		c.misses++
		return v, false
	}
	c.hits++
	if take {
		c.remove(el)
	} else {
		c.order.MoveToFront(el)
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores v under k, charged cost bytes plus lruEntryBytes, and evicts
// least recently used entries past the bound. The first writer of a key
// wins: a put under a key already stored changes nothing. An entry past
// the bound on its own is not stored; it counts as an eviction.
func (c *lru[K, V]) put(k K, v V, cost int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[k]; ok {
		return
	}
	cost += lruEntryBytes
	if cost > c.bound {
		c.evictions++
		return
	}
	c.byKey[k] = c.order.PushFront(&lruEntry[K, V]{k, v, cost})
	c.bytes += cost
	c.shrink()
}

// shrink evicts from the tail until the charged bytes fit the bound.
func (c *lru[K, V]) shrink() {
	for c.bytes > c.bound {
		c.remove(c.order.Back())
		c.evictions++
	}
}

func (c *lru[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.byKey, e.key)
	c.bytes -= e.cost
}

// stats returns the counters, the entries held and the bytes charged to
// them.
func (c *lru[K, V]) stats() (hits, misses, evictions int64, entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len(), c.bytes
}

// Package flight is the one single-flight LRU cache behind every memo in
// the daemon and the experiment suite: the response cache, the analysis
// and trace caches, the simulator's prep cache, and the suite's workload
// map. Concurrent callers for one key block on a single computation and
// share its outcome; finished results are retained up to a capacity and
// evicted least recently used first.
//
// The invariants every site relies on:
//
//   - Eviction only considers finished entries. An in-flight entry may
//     have callers blocked on it, and dropping it would strand a
//     duplicate computation, so the cache may transiently hold more than
//     its capacity by the number of computations in flight.
//   - An entry's fate (retained or forgotten) is decided under the lock
//     before its waiters wake, so no caller can find an entry that is
//     about to be forgotten.
//   - A panicking compute becomes an error for its caller and every
//     waiter, and is never retained under either Policy.
//   - A hit is a call that returned a retained result and ran no
//     compute; joining an in-flight computation whose result is then
//     retained is a hit, sharing a failure that is forgotten is not.
package flight

import (
	"container/list"
	"fmt"
	"sync"

	"fomodel/internal/metrics"
)

// Policy decides whether a computation that returned an error is
// retained.
type Policy int

const (
	// ForgetErrors shares a failure with the callers already waiting on
	// it and then drops it, so the next call computes afresh. For
	// computations that can fail transiently (canceled requests, I/O).
	ForgetErrors Policy = iota
	// KeepErrors retains failures like successes. For deterministic
	// computations, where retrying cannot change the result.
	KeepErrors
)

// Stats holds a cache's live counters.
type Stats struct {
	// Hits counts calls that returned a retained result without running
	// compute.
	Hits metrics.Counter
	// Misses counts compute runs.
	Misses metrics.Counter
	// Evictions counts finished entries dropped by the capacity bound.
	Evictions metrics.Counter
}

// Cache is a bounded, single-flight LRU from K to V. The zero value is
// not usable; build one with New.
type Cache[K comparable, V any] struct {
	// OnEvict, when non-nil, runs once for every retained entry the
	// capacity bound evicts, after the cache's lock is released. Entries
	// removed by DeleteFunc, failures that are forgotten and in-flight
	// entries never reach it. Set it before the first Do.
	OnEvict func(K, V)

	mu       sync.Mutex
	capacity int
	policy   Policy
	entries  map[K]*entry[K, V]
	order    list.List // front = most recently used
	stats    Stats

	// joinHook, when non-nil, runs after a caller found an existing
	// entry and before it waits on it; tests use it to order a join
	// before the computation finishes.
	joinHook func()
}

type entry[K comparable, V any] struct {
	key  K
	elem *list.Element
	done chan struct{}

	// finished and retained are set under the cache lock once compute
	// returned; eviction skips entries that are not finished, and
	// waiters read both only after done is closed.
	finished, retained bool

	v   V
	err error
}

// New returns an empty cache holding at most capacity finished entries
// (at least one) with the given failure policy.
func New[K comparable, V any](capacity int, policy Policy) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: max(capacity, 1),
		policy:   policy,
		entries:  make(map[K]*entry[K, V]),
	}
}

// Do returns the result for key, running compute once if no entry exists
// and sharing its outcome with every caller that arrives while it runs.
// hit reports that the result came from a retained entry and this call
// ran no compute.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		if c.joinHook != nil {
			c.joinHook()
		}
		<-e.done
		if e.retained {
			c.stats.Hits.Inc()
		}
		return e.v, e.retained, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	evicted := c.evictLocked()
	c.mu.Unlock()
	c.notify(evicted)

	c.stats.Misses.Inc()
	v, panicked, err := safeCompute(compute)

	c.mu.Lock()
	e.v, e.err, e.finished = v, err, true
	current := c.entries[key] == e
	e.retained = current && !panicked && (err == nil || c.policy == KeepErrors)
	evicted = nil
	switch {
	case e.retained:
		evicted = c.evictLocked()
	case current:
		c.removeLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
	c.notify(evicted)
	return v, false, err
}

// safeCompute runs compute, converting a panic into an error so waiters
// are released instead of blocking on a done channel nobody would close.
func safeCompute[V any](compute func() (V, error)) (v V, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, panicked, err = zero, true, fmt.Errorf("internal panic: %v", r)
		}
	}()
	v, err = compute()
	return v, false, err
}

// DeleteFunc removes every entry whose key satisfies pred. A matching
// in-flight entry is removed too: its computation still completes for
// the callers already waiting on it, but its result is not retained, and
// a later call for the key computes afresh. Removals are not evictions.
func (c *Cache[K, V]) DeleteFunc(pred func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if pred(k) {
			c.removeLocked(e)
		}
	}
}

// SetCapacity changes the bound; shrinking evicts immediately. Values
// below one are raised to one.
func (c *Cache[K, V]) SetCapacity(capacity int) {
	c.mu.Lock()
	c.capacity = max(capacity, 1)
	evicted := c.evictLocked()
	c.mu.Unlock()
	c.notify(evicted)
}

// Len returns the number of entries, including in-flight ones.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cache's live counters.
func (c *Cache[K, V]) Stats() *Stats { return &c.stats }

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.order.Remove(e.elem)
	delete(c.entries, e.key)
}

// evictLocked trims the cache toward capacity, least recently used
// first, skipping unfinished entries. It returns the evicted entries
// when OnEvict needs them.
func (c *Cache[K, V]) evictLocked() []*entry[K, V] {
	var evicted []*entry[K, V]
	for elem := c.order.Back(); elem != nil && len(c.entries) > c.capacity; {
		prev := elem.Prev()
		if e := elem.Value.(*entry[K, V]); e.finished {
			c.removeLocked(e)
			c.stats.Evictions.Inc()
			if c.OnEvict != nil {
				evicted = append(evicted, e)
			}
		}
		elem = prev
	}
	return evicted
}

func (c *Cache[K, V]) notify(evicted []*entry[K, V]) {
	for _, e := range evicted {
		c.OnEvict(e.key, e.v)
	}
}

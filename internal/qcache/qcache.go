// Package qcache implements the cross-query memoization layer: a
// power-of-two-sharded LRU cache with O(1) epoch invalidation and
// singleflight collapsing of concurrent identical misses.
//
// The cache is generic over its value type so both the answer cache
// (query-text hash → []Answer) and the lineage cache (lineage hash → probability)
// share one implementation without import cycles: qcache knows nothing about
// queries, indexes, or answers.
//
// # Keying and invalidation
//
// Keys are 128-bit hashes (of a query's text, of a canonical lineage).
// Every entry is stamped with the cache epoch current when its computation
// started; Invalidate bumps the epoch, which logically empties the cache in
// O(1) — stale entries are dropped lazily when touched or when LRU pressure
// reaches them. Stamping with the start-of-computation epoch (not the
// insert-time epoch) closes the race where a mutation lands mid-computation:
// the result computed against the old state is inserted already stale.
//
// # Singleflight
//
// Do collapses concurrent misses on one key into a single computation.
// Waiters respect their own context: a canceled waiter returns immediately
// with its context error while the leader keeps computing for the others. A
// leader that fails (evaluation error, budget exhaustion, cancellation)
// caches nothing and wakes the waiters to retry — an aborted computation
// never poisons the cache, and one canceled request never fails another.
package qcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Key is a 128-bit cache key (a query-text or canonical lineage hash).
type Key struct {
	Hi, Lo uint64
}

// Options bounds one cache. The zero value enables the cache with the
// defaults below.
type Options struct {
	// MaxEntries caps the number of cached entries across all shards
	// (rounded up to a multiple of the shard count). 0 means
	// DefaultMaxEntries; negative means unlimited.
	MaxEntries int
	// MaxBytes caps the approximate retained value bytes across all shards.
	// 0 means DefaultMaxBytes; negative means unlimited.
	MaxBytes int64
	// Disable turns the cache off entirely (Get always misses, Put and Do
	// store nothing, Do still collapses concurrent identical calls).
	Disable bool
}

// Default capacity bounds (per cache, summed over shards).
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20 // 256 MiB
	numShards         = 16        // power of two
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Coalesced counts calls served by waiting on another caller's
	// in-flight computation instead of evaluating (singleflight).
	Coalesced uint64 `json:"coalesced"`
	Epoch     uint64 `json:"epoch"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

type entry[V any] struct {
	key   Key
	val   V
	bytes int64
	epoch uint64
}

// flight is one in-progress computation; done is closed when the leader
// finishes, after val/err/ok are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	ok   bool
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[Key]*list.Element // of *entry[V]
	lru     *list.List            // front = most recent
	flights map[Key]*flight[V]
	bytes   int64
}

// Cache is a sharded LRU keyed by Key. The zero value is not usable; create
// with New. A nil *Cache is valid and behaves as permanently disabled.
type Cache[V any] struct {
	shards     [numShards]shard[V]
	epoch      atomic.Uint64
	maxEntries int   // per shard; <0 unlimited
	maxBytes   int64 // per shard; <0 unlimited
	sizeOf     func(V) int64
	disabled   bool

	hits, misses, evictions, coalesced atomic.Uint64
}

// New creates a cache. sizeOf estimates the retained bytes of one value for
// the MaxBytes accounting; nil counts every value as 1 byte.
func New[V any](opts Options, sizeOf func(V) int64) *Cache[V] {
	if sizeOf == nil {
		sizeOf = func(V) int64 { return 1 }
	}
	c := &Cache[V]{sizeOf: sizeOf, disabled: opts.Disable}
	switch {
	case opts.MaxEntries < 0:
		c.maxEntries = -1
	case opts.MaxEntries == 0:
		c.maxEntries = (DefaultMaxEntries + numShards - 1) / numShards
	default:
		c.maxEntries = (opts.MaxEntries + numShards - 1) / numShards
	}
	switch {
	case opts.MaxBytes < 0:
		c.maxBytes = -1
	case opts.MaxBytes == 0:
		c.maxBytes = DefaultMaxBytes / numShards
	default:
		c.maxBytes = (opts.MaxBytes + numShards - 1) / numShards
	}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*list.Element{}
		c.shards[i].lru = list.New()
		c.shards[i].flights = map[Key]*flight[V]{}
	}
	return c
}

func (c *Cache[V]) shardFor(k Key) *shard[V] {
	// The keys are already high-quality hashes; fold both words so either
	// half alone cannot bias the shard choice.
	return &c.shards[(k.Hi^k.Lo)&(numShards-1)]
}

// Get returns the cached value for k in the current epoch.
func (c *Cache[V]) Get(k Key) (V, bool) {
	var zero V
	if c == nil || c.disabled {
		return zero, false
	}
	epoch := c.epoch.Load()
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	e := el.Value.(*entry[V])
	if e.epoch != epoch {
		s.removeLocked(el, e)
		c.misses.Add(1)
		return zero, false
	}
	s.lru.MoveToFront(el)
	c.hits.Add(1)
	return e.val, true
}

// Put inserts a value under the current epoch, evicting LRU entries past the
// capacity bounds.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil || c.disabled {
		return
	}
	c.putEpoch(k, v, c.epoch.Load())
}

func (c *Cache[V]) putEpoch(k Key, v V, epoch uint64) {
	if epoch != c.epoch.Load() {
		return // computed against a state that has since been invalidated
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*entry[V])
		s.bytes -= e.bytes
		e.val, e.bytes, e.epoch = v, c.sizeOf(v), epoch
		s.bytes += e.bytes
		s.lru.MoveToFront(el)
	} else {
		e := &entry[V]{key: k, val: v, bytes: c.sizeOf(v), epoch: epoch}
		s.entries[k] = s.lru.PushFront(e)
		s.bytes += e.bytes
	}
	for (c.maxEntries >= 0 && s.lru.Len() > c.maxEntries) ||
		(c.maxBytes >= 0 && s.bytes > c.maxBytes && s.lru.Len() > 1) {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back, back.Value.(*entry[V]))
		c.evictions.Add(1)
	}
}

func (s *shard[V]) removeLocked(el *list.Element, e *entry[V]) {
	s.lru.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.bytes
}

// Do returns the cached value for k or computes it with fn, collapsing
// concurrent identical misses into one evaluation. The returned bool reports
// whether the value came from the cache or another caller's computation
// (true) rather than this caller running fn (false).
//
// ctx bounds only the wait of a coalesced caller; it is fn's job to observe
// its own cancellation. On fn error nothing is cached and any waiters retry
// (each at most re-running fn once per failed leader).
func (c *Cache[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (V, bool, error) {
	var zero V
	if c == nil {
		v, err := fn()
		return v, false, err
	}
	for {
		epoch := c.epoch.Load()
		s := c.shardFor(k)
		s.mu.Lock()
		if !c.disabled {
			if el, ok := s.entries[k]; ok {
				e := el.Value.(*entry[V])
				if e.epoch == epoch {
					s.lru.MoveToFront(el)
					v := e.val // a Put may overwrite the entry once we unlock
					s.mu.Unlock()
					c.hits.Add(1)
					return v, true, nil
				}
				s.removeLocked(el, e)
			}
		}
		if f, ok := s.flights[k]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.ok {
					c.coalesced.Add(1)
					return f.val, true, nil
				}
				// The leader failed; its abort (cancellation, budget, or a
				// genuine evaluation error) must not decide our fate — loop
				// and compute under our own constraints.
				continue
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		s.flights[k] = f
		s.mu.Unlock()

		c.misses.Add(1)
		v, err := fn()

		s.mu.Lock()
		delete(s.flights, k)
		s.mu.Unlock()
		if err == nil && !c.disabled {
			c.putEpoch(k, v, epoch)
		}
		f.val, f.err, f.ok = v, err, err == nil
		close(f.done)
		return v, false, err
	}
}

// Invalidate logically empties the cache in O(1) by bumping the epoch; every
// existing entry becomes stale and is dropped lazily. In-flight computations
// started before the bump will not be cached.
func (c *Cache[V]) Invalidate() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
}

// Epoch returns the current epoch.
func (c *Cache[V]) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Stats returns a counter snapshot. A nil cache reports zeros.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Epoch:     c.epoch.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

package qcache

// Get and Put are the direct lookup and insert the tests drive the LRU,
// byte-cap and epoch logic with; served code reaches the cache only through
// Do.

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

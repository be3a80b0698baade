package logic

// EncoderCache is a small single-owner free list in front of the global
// encoder pool (DESIGN.md §8). sync.Pool serializes on per-P shards and
// may drop entries across GCs; under N-way detection fan-out each worker
// instead keeps a handful of encoders entirely to itself, touching the
// shared pool only on miss or overflow. The zero value is ready to use.
//
// An EncoderCache is NOT safe for concurrent use: give each worker
// goroutine its own. Encoders acquired from one cache may be released
// into another (a task can migrate workers between acquire and release) —
// ownership of the *Encoder* transfers with the value, only the cache
// struct itself is single-owner.
type EncoderCache struct {
	free []*Encoder
}

// encoderCacheCap bounds the per-worker free list; overflow spills back to
// the shared pool so idle workers do not strand encoder memory.
const encoderCacheCap = 8

// Acquire returns an encoder from the local free list, falling back to the
// shared pool. The result is indistinguishable from NewEncoder()'s.
func (c *EncoderCache) Acquire() *Encoder {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return AcquireEncoder()
}

// Release resets the encoder and keeps it on the local free list, spilling
// to the shared pool when the list is full. The caller must not use the
// encoder — or anything aliasing its solver's memory — afterwards.
func (c *EncoderCache) Release(e *Encoder) {
	e.reset()
	if len(c.free) < encoderCacheCap {
		c.free = append(c.free, e)
		return
	}
	encoderPool.Put(e)
}

// Drain returns every cached encoder to the shared pool. Call it when the
// worker retires so its free list does not outlive the fan-out.
func (c *EncoderCache) Drain() {
	for i, e := range c.free {
		encoderPool.Put(e)
		c.free[i] = nil
	}
	c.free = c.free[:0]
}

// Package lockbalance exercises the lockbalance analyzer: every mutex Lock
// must be matched by an Unlock (direct or deferred) on every control-flow
// path that reaches the function exit.
package lockbalance

import "sync"

type cache struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// leakOnEarlyReturn misses the unlock on the not-found path.
func (c *cache) leakOnEarlyReturn(key string) int {
	c.mu.Lock() // want "c.mu.Lock\(\) is not released on every path"
	v, ok := c.data[key]
	if !ok {
		return -1
	}
	c.mu.Unlock()
	return v
}

// deferredUnlock covers every path from the moment it is registered.
func (c *cache) deferredUnlock(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.data[key]; ok {
		return v
	}
	return -1
}

// multiSiteUnlock is the cache-lookup shape: one lock, several explicit
// unlock sites, each path covered.
func (c *cache) multiSiteUnlock(key string, insert bool) int {
	c.mu.Lock()
	if v, ok := c.data[key]; ok {
		c.mu.Unlock()
		return v
	}
	if insert {
		c.data[key] = 0
		c.mu.Unlock()
		return 0
	}
	c.mu.Unlock()
	return -1
}

// readLockLeak misses the RUnlock on one branch; read and write locks are
// tracked separately.
func (c *cache) readLockLeak(key string) int {
	c.rw.RLock() // want "c.rw.RLock\(\) is not released on every path"
	if v, ok := c.data[key]; ok {
		c.rw.RUnlock()
		return v
	}
	return -1
}

// heldAcrossPanic never reaches the exit block on the failing path, so the
// deliberate hold is not a finding.
func (c *cache) heldAcrossPanic(key string) int {
	c.mu.Lock()
	v, ok := c.data[key]
	if !ok {
		panic("missing key: " + key)
	}
	c.mu.Unlock()
	return v
}

// deferredClosureUnlock releases inside a deferred literal; the analyzer
// honors unlocks in deferred closures.
func (c *cache) deferredClosureUnlock(key string) int {
	c.mu.Lock()
	defer func() {
		c.data[key]++
		c.mu.Unlock()
	}()
	return c.data[key]
}

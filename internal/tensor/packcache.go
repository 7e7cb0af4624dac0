package tensor

import (
	"runtime"
	"sync"
)

// This file implements the persistent packed-panel cache of the GEMM core.
//
// The blocked GEMM path (gemm.go) packs its B operand into micro-panels on
// every call. For activations that is unavoidable — the data changes every
// forward pass — but the B operand of the training hot loop's large products
// is very often a weight matrix (Dense.W, LSTM Wx/Wh) that changes exactly
// once per optimizer step. The cache stores the fully packed B layout of such
// matrices keyed by (tensor identity, orientation) and validated by the
// tensor's mutation version (see Tensor.MarkPackable/NoteMutation), so a
// weight repacks once per update instead of once per product.
//
// Scope and invariants:
//
//   - Only B-side operands are cached. A-side packing is keyed by the output
//     row block and interleaved with the parallel consumption loop; caching it
//     would buy little (the A operand of every hot product is an activation)
//     and cost a second keying scheme.
//   - The cached bytes are exactly the packB output for every (jc, pc) block
//     in the blocked loop order, so a cache hit feeds the micro-kernel the
//     identical panel bytes a fresh pack would — results are bitwise-identical
//     with the cache on, off, hit, or missed.
//   - Entries pin while a GEMM is reading them: eviction and invalidation
//     never return a buffer to the arena while any goroutine consumes it. The
//     releasing reader returns the buffer of an entry that died while pinned.
//   - The cache is byte-capped with least-recently-used eviction; evicted and
//     invalidated buffers go back to the tensor arena (they were drawn from
//     it), so cache churn recycles instead of allocating.
//
// Concurrency: one mutex guards the map, the byte budget, and every entry's
// pin count. Lookups are a map probe under the lock; packing happens at most
// once per (tensor, orientation, version) and also runs under the lock — the
// matrices involved are weights (a few hundred KiB at most), and serializing
// the rare repack is far simpler than per-entry publication protocols. The
// blocked path is only entered for products of ≥ gemmBlockedMin scalar ops,
// so the lock is never in a per-timestep hot loop.

// PackCacheStats is a snapshot of the pack cache's traffic counters.
type PackCacheStats struct {
	// Hits counts acquisitions served by a valid cached pack.
	Hits uint64
	// Misses counts acquisitions that had to pack (no entry, or capacity
	// admitted a new one).
	Misses uint64
	// Invalidations counts entries dropped because the source tensor's
	// version moved past them.
	Invalidations uint64
	// Evictions counts entries dropped by the LRU byte cap.
	Evictions uint64
	// Bytes is the current cached payload size in bytes.
	Bytes int64
	// Entries is the current live entry count.
	Entries int
}

type packKey struct {
	// id is the source tensor's cache identity (Tensor.packID), assigned on
	// its first pack and never reused. The key deliberately holds no pointer
	// to the tensor: the cache must not keep a dead weight — and its packs —
	// alive (see forgetPacks).
	id uint64
	// trans distinguishes the two B orientations the entry points produce:
	// false for row-major B (MatMulTo, MatMulTNAcc), true for the transposed
	// view of MatMulNTAcc. A weight used in forward and backward products is
	// cached once per orientation.
	trans bool
}

type packEntry struct {
	version uint64
	k, n    int
	buf     *Tensor
	pins    int
	dead    bool
	lastUse uint64
}

type packCacheState struct {
	mu      sync.Mutex
	enabled bool
	entries map[packKey]*packEntry
	bytes   int64
	max     int64
	clock   uint64

	hits, misses, invalidations, evictions uint64
	// lastID is the most recently assigned Tensor.packID.
	lastID uint64
}

// packCacheDefaultCap bounds the cache payload. The largest weight in the
// repository's configurations is a few MiB packed; 32 MiB leaves room for
// every layer of a large model in both orientations before LRU pressure.
const packCacheDefaultCap = 32 << 20

var packs = packCacheState{
	enabled: true,
	entries: map[packKey]*packEntry{},
	max:     packCacheDefaultCap,
}

// packedCols returns the padded column count of a fully packed B matrix with
// n logical columns: every full gemmNC block is gemmNC wide, and a trailing
// partial block rounds up to the micro-panel width gemmNR.
func packedCols(n int) int {
	full := n / gemmNC * gemmNC
	rem := n - full
	if rem == 0 {
		return full
	}
	return full + (rem+gemmNR-1)/gemmNR*gemmNR
}

// packWholeB lays the entire k×n logical B view into dst as the concatenation
// of packB outputs for every (jc, pc) block in the blocked loop order. Block
// (jc, pc) starts at offset jc*k + pc*ncPad(jc): every column block before jc
// is a full gemmNC wide, and within a column block the pc panels are kc rows
// of ncPad floats each.
func packWholeB(dst []float64, b gemmView, k, n int) {
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncPad := (nc + gemmNR - 1) / gemmNR * gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(dst[jc*k+pc*ncPad:], b, pc, jc, kc, nc)
		}
	}
}

// acquirePack returns a pinned entry holding the packed form of t viewed as b
// (a k×n logical matrix), packing on first use or after invalidation. It
// returns nil when caching is off or the pack alone would exceed the byte
// cap; the caller then packs per-block as before. Callers must balance every
// non-nil return with releasePack.
func acquirePack(t *Tensor, b gemmView, k, n int) *packEntry {
	size := packedCols(n) * k
	bytes := int64(size) * 8
	c := &packs
	c.mu.Lock()
	if !c.enabled || bytes > c.max {
		c.mu.Unlock()
		return nil
	}
	if t.packID == 0 {
		c.lastID++
		t.packID = c.lastID
		runtime.SetFinalizer(t, forgetPacks)
	}
	key := packKey{id: t.packID, trans: b.cs != 1}
	if e := c.entries[key]; e != nil {
		if e.version == t.version && e.k == k && e.n == n {
			e.pins++
			c.clock++
			e.lastUse = c.clock
			c.hits++
			c.mu.Unlock()
			return e
		}
		c.invalidations++
		c.dropLocked(key, e)
	}
	c.misses++
	e := &packEntry{version: t.version, k: k, n: n, buf: Get(size), pins: 1}
	c.clock++
	e.lastUse = c.clock
	c.entries[key] = e
	c.bytes += bytes
	c.evictLocked()
	packWholeB(e.buf.Data, b, k, n)
	c.mu.Unlock()
	return e
}

// forgetPacks is the finalizer of every tensor the cache has packed: once
// the program drops a weight (a model goes out of scope), its packs leave
// the cache and their buffers return to the arena, instead of lingering
// until LRU pressure evicts them. A pinned entry cannot be dropped here: a
// GEMM reading it still references the tensor. The identity is never
// reused, so no later tensor can match a pack of this one.
func forgetPacks(t *Tensor) {
	c := &packs
	c.mu.Lock()
	for _, trans := range [2]bool{false, true} {
		key := packKey{id: t.packID, trans: trans}
		if e := c.entries[key]; e != nil {
			c.dropLocked(key, e)
		}
	}
	c.mu.Unlock()
}

// releasePack unpins an entry acquired by acquirePack, returning its buffer
// to the arena if the entry died (was evicted or invalidated) while pinned.
func releasePack(e *packEntry) {
	c := &packs
	c.mu.Lock()
	e.pins--
	if e.dead && e.pins == 0 {
		Put(e.buf)
		e.buf = nil
	}
	c.mu.Unlock()
}

// dropLocked removes an entry from the map and byte budget. The buffer
// returns to the arena immediately when unpinned; a pinned entry is marked
// dead and the last releasePack returns it.
func (c *packCacheState) dropLocked(key packKey, e *packEntry) {
	delete(c.entries, key)
	c.bytes -= int64(packedCols(e.n)*e.k) * 8
	if e.pins == 0 {
		Put(e.buf)
		e.buf = nil
	} else {
		e.dead = true
	}
}

// evictLocked enforces the byte cap by dropping least-recently-used unpinned
// entries. Selection is the minimum of the strictly increasing lastUse ticks,
// so the outcome is independent of map iteration order.
func (c *packCacheState) evictLocked() {
	for c.bytes > c.max {
		var victimKey packKey
		var victim *packEntry
		for key, e := range c.entries {
			if e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			return // everything pinned; readers drain before the next acquire
		}
		c.evictions++
		c.dropLocked(victimKey, victim)
	}
}

// SetPackCaching switches the pack cache on or off. Disabling drops every
// entry (pinned ones drain through their readers), so a disabled cache holds
// no arena memory. Results are identical either way; only repack work changes.
func SetPackCaching(on bool) {
	c := &packs
	c.mu.Lock()
	c.enabled = on
	if !on {
		c.flushLocked()
	}
	c.mu.Unlock()
}

// PackCachingEnabled reports whether the pack cache is active.
func PackCachingEnabled() bool {
	c := &packs
	c.mu.Lock()
	on := c.enabled
	c.mu.Unlock()
	return on
}

// SetPackCacheCapacity sets the cache's payload byte cap and evicts down to
// it. Packs larger than the cap bypass the cache entirely.
func SetPackCacheCapacity(bytes int64) {
	c := &packs
	c.mu.Lock()
	c.max = bytes
	c.evictLocked()
	c.mu.Unlock()
}

// FlushPackCache drops every cached pack (tests use it to reset state; a
// long-lived process never needs to).
func FlushPackCache() {
	c := &packs
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

func (c *packCacheState) flushLocked() {
	for key, e := range c.entries {
		c.dropLocked(key, e)
	}
}

// PackCacheStatsSnapshot returns the cache's current counters.
func PackCacheStatsSnapshot() PackCacheStats {
	c := &packs
	c.mu.Lock()
	st := PackCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Bytes:         c.bytes,
		Entries:       len(c.entries),
	}
	c.mu.Unlock()
	return st
}

package tensor

// PackCacheStats is the counter snapshot of a packed-panel cache that no
// longer exists: the blocked GEMM packs B on every call, so every field
// stays zero.
//
// Deprecated: kept only because the odbench harness still reads it for its
// tensor.pack_* per-layer metrics. The next change to the benchmark deletes
// those metrics, and this type and PackCacheStatsSnapshot with them.
type PackCacheStats struct {
	Hits, Misses, Invalidations, Evictions uint64
	Bytes                                  int64
	Entries                                int
}

// PackCacheStatsSnapshot returns the zero PackCacheStats.
//
// Deprecated: see PackCacheStats.
func PackCacheStatsSnapshot() PackCacheStats { return PackCacheStats{} }

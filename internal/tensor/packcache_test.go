package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// withCleanPackCache runs fn against a flushed, enabled, default-capacity
// pack cache and restores that state afterwards, so cache tests neither see
// nor leave residue.
func withCleanPackCache(t *testing.T, fn func()) {
	t.Helper()
	FlushPackCache()
	SetPackCaching(true)
	SetPackCacheCapacity(packCacheDefaultCap)
	defer func() {
		FlushPackCache()
		SetPackCaching(true)
		SetPackCacheCapacity(packCacheDefaultCap)
	}()
	fn()
}

// statsDelta returns counter movement since before.
func statsDelta(before PackCacheStats) PackCacheStats {
	now := PackCacheStatsSnapshot()
	return PackCacheStats{
		Hits:          now.Hits - before.Hits,
		Misses:        now.Misses - before.Misses,
		Invalidations: now.Invalidations - before.Invalidations,
		Evictions:     now.Evictions - before.Evictions,
		Bytes:         now.Bytes,
		Entries:       now.Entries,
	}
}

// TestPackCacheBitwiseAllOrientations drives every GEMM entry point through
// the blocked path with a packable B, twice (miss then hit), and demands the
// results match the uncached run bit for bit.
func TestPackCacheBitwiseAllOrientations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			for _, shape := range [][3]int{{9, 20, 13}, {33, 129, 65}, {gemmMC + 1, gemmNC + 3, gemmKC + 1}} {
				m, n, k := shape[0], shape[1], shape[2]
				a := Randn(rng, 1, m, k)
				aT := Randn(rng, 1, k, m)
				b := Randn(rng, 1, k, n)
				bT := Randn(rng, 1, n, k)
				seed := Randn(rng, 1, m, n)

				wantTo := MatMulTo(New(m, n), a, b)
				wantNT := MatMulNTAcc(seed.Clone(), a, bT)
				wantTN := MatMulTNAcc(seed.Clone(), aT, b)

				b.MarkPackable()
				bT.MarkPackable()
				for pass, expectHit := range []bool{false, true} {
					before := PackCacheStatsSnapshot()
					gotTo := MatMulTo(New(m, n), a, b)
					gotNT := MatMulNTAcc(seed.Clone(), a, bT)
					gotTN := MatMulTNAcc(seed.Clone(), aT, b)
					d := statsDelta(before)
					if expectHit && (d.Hits != 3 || d.Misses != 0) {
						t.Fatalf("(%d,%d,%d) pass %d: hits %d misses %d, want 3 hits", m, n, k, pass, d.Hits, d.Misses)
					}
					// First pass: MatMulTo misses on (b, normal), MatMulNTAcc
					// on (bT, trans); MatMulTNAcc reuses (b, normal) — 2
					// misses, 1 hit.
					if !expectHit && (d.Misses != 2 || d.Hits != 1) {
						t.Fatalf("(%d,%d,%d) pass %d: misses %d hits %d, want 2 and 1", m, n, k, pass, d.Misses, d.Hits)
					}
					if !bitwiseEqual(gotTo, wantTo) {
						t.Fatalf("(%d,%d,%d) pass %d: cached MatMulTo differs from uncached", m, n, k, pass)
					}
					if !bitwiseEqual(gotNT, wantNT) {
						t.Fatalf("(%d,%d,%d) pass %d: cached MatMulNTAcc differs from uncached", m, n, k, pass)
					}
					if !bitwiseEqual(gotTN, wantTN) {
						t.Fatalf("(%d,%d,%d) pass %d: cached MatMulTNAcc differs from uncached", m, n, k, pass)
					}
				}
				FlushPackCache()
			}
		})
	})
}

// TestPackCacheInvalidation mutates the packable weight through each
// sanctioned in-place path and checks the next product repacks and computes
// with the new bytes.
func TestPackCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const m, n, k = 17, 24, 11
	mutations := []struct {
		name string
		do   func(b *Tensor)
	}{
		{"Set", func(b *Tensor) { b.Set(0.5, 3, 4) }},
		{"Fill", func(b *Tensor) { b.Fill(0.25) }},
		{"Apply", func(b *Tensor) { b.Apply(func(x float64) float64 { return x + 1 }) }},
		{"AddInPlace", func(b *Tensor) { AddInPlace(b, New(k, n)) }},
		{"AxpyInPlace", func(b *Tensor) { AxpyInPlace(b, 0.1, b.Clone()) }},
		{"ScaleInPlace", func(b *Tensor) { ScaleInPlace(b, 1.5) }},
		{"AdamStepInPlace", func(b *Tensor) {
			AdamStepInPlace(b, b.Clone(), New(k, n), New(k, n), 0.01, 0.9, 0.999, 1e-8, 1, 1)
		}},
		{"SGDMomentumStepInPlace", func(b *Tensor) {
			SGDMomentumStepInPlace(b, b.Clone(), New(k, n), 0.01, 0.9)
		}},
		{"CopyDataFrom", func(b *Tensor) { b.CopyDataFrom(b.Clone()) }},
	}
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			for _, mu := range mutations {
				a := Randn(rng, 1, m, k)
				b := Randn(rng, 1, k, n)
				b.MarkPackable()
				MatMulTo(New(m, n), a, b) // warm
				mu.do(b)
				before := PackCacheStatsSnapshot()
				got := MatMulTo(New(m, n), a, b)
				d := statsDelta(before)
				// Uncached reference after the probe: disabling flushes the
				// cache, so it must not run between warm and probe.
				want := func() *Tensor {
					SetPackCaching(false)
					defer SetPackCaching(true)
					return MatMulTo(New(m, n), a, b)
				}()
				if d.Invalidations != 1 || d.Misses != 1 {
					t.Fatalf("%s: invalidations %d misses %d, want 1 and 1", mu.name, d.Invalidations, d.Misses)
				}
				if !bitwiseEqual(got, want) {
					t.Fatalf("%s: product after mutation used stale pack", mu.name)
				}
				FlushPackCache()
			}
		})
	})
}

// TestPackCacheEviction caps the cache below the combined size of two packs
// and alternates between them: every access must still be correct, the byte
// budget must hold, and the LRU counter must move.
func TestPackCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const m, n, k = 9, 40, 21
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			a := Randn(rng, 1, m, k)
			b1 := Randn(rng, 1, k, n)
			b2 := Randn(rng, 1, k, n)
			want1 := MatMulTo(New(m, n), a, b1)
			want2 := MatMulTo(New(m, n), a, b2)
			b1.MarkPackable()
			b2.MarkPackable()

			packBytes := int64(packedCols(n)*k) * 8
			SetPackCacheCapacity(packBytes + packBytes/2) // room for one, not two
			before := PackCacheStatsSnapshot()
			for i := 0; i < 4; i++ {
				if got := MatMulTo(New(m, n), a, b1); !bitwiseEqual(got, want1) {
					t.Fatalf("round %d: b1 product wrong under eviction pressure", i)
				}
				if got := MatMulTo(New(m, n), a, b2); !bitwiseEqual(got, want2) {
					t.Fatalf("round %d: b2 product wrong under eviction pressure", i)
				}
				if st := PackCacheStatsSnapshot(); st.Bytes > packBytes+packBytes/2 {
					t.Fatalf("round %d: cache holds %d bytes over cap", i, st.Bytes)
				}
			}
			d := statsDelta(before)
			if d.Evictions == 0 {
				t.Fatalf("no evictions under a cap that fits one of two packs")
			}
			if d.Entries > 1 {
				t.Fatalf("cache retains %d entries, cap allows 1", d.Entries)
			}
		})
	})
}

// TestPackCacheOversizeBypass: a pack bigger than the whole cache must bypass
// caching (nil acquire), not thrash it.
func TestPackCacheOversizeBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	const m, n, k = 9, 40, 21
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			want := MatMulTo(New(m, n), a, b)
			b.MarkPackable()
			SetPackCacheCapacity(64) // smaller than any pack
			before := PackCacheStatsSnapshot()
			got := MatMulTo(New(m, n), a, b)
			d := statsDelta(before)
			if d.Hits+d.Misses != 0 || d.Entries != 0 {
				t.Fatalf("oversize pack touched the cache: %+v", d)
			}
			if !bitwiseEqual(got, want) {
				t.Fatalf("bypassed product differs")
			}
		})
	})
}

// TestPackCachePoolRecycleClearsPackable: returning a marked tensor to the
// arena must strip its packable status and move its version, so a recycled
// buffer can never satisfy a stale cache probe by pointer coincidence.
func TestPackCachePoolRecycleClearsPackable(t *testing.T) {
	old := PoolingEnabled()
	SetPooling(true)
	defer SetPooling(old)
	tt := Get(16, 16)
	tt.MarkPackable()
	v := tt.Version()
	Put(tt)
	got := Get(16, 16)
	// Whether or not the arena hands back the same allocation, any tensor
	// that went through reinit must be unmarked.
	if got.Packable() {
		t.Fatalf("recycled tensor still packable")
	}
	if got == tt && got.Version() == v {
		t.Fatalf("recycled tensor kept its version")
	}
	Put(got)
}

// TestPackCacheParallelStress hammers a shared packable weight from many
// goroutines — concurrent products, cache flushes, capacity changes — and
// checks every product against the uncached result. Run under -race this
// doubles as the locking proof.
func TestPackCacheParallelStress(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const m, n, k = 12, 36, 17
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			a := Randn(rng, 1, m, k)
			b := Randn(rng, 1, k, n)
			b.MarkPackable()
			want := func() *Tensor {
				SetPackCaching(false)
				defer SetPackCaching(true)
				return MatMulTo(New(m, n), a, b)
			}()

			var wg sync.WaitGroup
			const workers = 8
			for w := 0; w < workers; w++ {
				wg.Add(1)
				//ovslint:ignore nakedgo the stress test needs unsynchronized goroutines; parallel's deterministic chunking would serialize the contention under test
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						switch {
						case w == 0 && i%10 == 5:
							FlushPackCache()
						case w == 1 && i%10 == 7:
							SetPackCacheCapacity(packCacheDefaultCap)
						default:
							if got := MatMulTo(New(m, n), a, b); !bitwiseEqual(got, want) {
								t.Errorf("worker %d iter %d: concurrent cached product differs", w, i)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	})
}

// TestPackCacheForgetsCollectedWeights: the cache holds no reference to the
// weights it packs, so once a weight is garbage, its packs leave the cache
// (and their buffers return to the arena). Before, every model a process
// built and dropped kept its packed weights alive until LRU pressure, which
// grew a long run's heap by the cache's whole byte cap.
func TestPackCacheForgetsCollectedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	const m, n, k = 9, 40, 21
	withCleanPackCache(t, func() {
		forceBlocked(t, func() {
			a := Randn(rng, 1, m, k)
			func() {
				for i := 0; i < 3; i++ {
					b := Randn(rng, 1, k, n)
					b.MarkPackable()
					MatMulTo(New(m, n), a, b)
					MatMulNTAcc(New(m, k), New(m, n), b)
				}
			}()
			if st := PackCacheStatsSnapshot(); st.Entries == 0 {
				t.Fatal("no pack was cached")
			}
			for i := 0; i < 100; i++ {
				runtime.GC()
				if PackCacheStatsSnapshot().Entries == 0 {
					return
				}
				time.Sleep(time.Millisecond)
			}
			t.Fatalf("%d packs of collected weights still cached", PackCacheStatsSnapshot().Entries)
		})
	})
}

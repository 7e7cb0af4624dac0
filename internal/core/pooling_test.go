package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/dataset"
	"ovs/internal/tensor"
)

// poolingSamples builds a small deterministic V2S/T2V training set.
func poolingSamples(topo *Topology, n int) []Sample {
	rng := rand.New(rand.NewSource(41))
	samples := make([]Sample, 0, n)
	for s := 0; s < n; s++ {
		g := tensor.New(topo.N, topo.T)
		for i := range g.Data {
			g.Data[i] = rng.Float64() * 40
		}
		vol := tensor.New(topo.M, topo.T)
		speed := tensor.New(topo.M, topo.T)
		for j := 0; j < topo.M; j++ {
			limit := topo.Net.Links[j].SpeedLimit
			for tt := 0; tt < topo.T; tt++ {
				q := rng.Float64() * 100
				vol.Set(q, j, tt)
				speed.Set(limit/(1+q/50), j, tt)
			}
		}
		samples = append(samples, Sample{G: g, Volume: vol, Speed: speed})
	}
	return samples
}

// TestTrainFullPoolingEquivalence is the tentpole determinism guarantee for
// the arena and the worker pool: the full train-then-fit pipeline must
// produce a recovery bitwise-identical to the Workers=1 pooled run with
// tensor pooling enabled and disabled, at every worker count. Pooled buffers
// are zeroed on reuse, so a pooled run is indistinguishable from a
// fresh-allocation run.
func TestTrainFullPoolingEquivalence(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)

	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 3)

	run := func(workers int, pooled bool) *tensor.Tensor {
		tensor.SetPooling(pooled)
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 29
		cfg.Workers = workers
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		rec, err := m.TrainFullCtx(context.Background(), samples, obs, 2, 2, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	ref := run(1, true)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, pooled := range []bool{true, false} {
			if got := run(w, pooled); !tensor.AllClose(got, ref, 0) {
				t.Fatalf("workers=%d pooled=%v: TrainFull recovery differs from the workers=1 pooled run", w, pooled)
			}
		}
	}
}

// TestFitBestPoolingEquivalence checks the multi-restart fit — whose
// concurrent restarts each recycle a private graph against the shared arena —
// recovers a bitwise-identical TOD with pooling on and off at every worker
// count.
func TestFitBestPoolingEquivalence(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)

	topo := testTopo(t, 4, 1)

	run := func(workers int, pooled bool) *tensor.Tensor {
		tensor.SetPooling(pooled)
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 31
		cfg.Workers = workers
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		rec, _, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		pooled := run(w, true)
		fresh := run(w, false)
		if !tensor.AllClose(pooled, fresh, 0) {
			t.Fatalf("workers=%d: FitBest recovery differs between pooled and fresh allocation", w)
		}
	}
}

// TestFitHitsPackCacheForFrozenV2S guards the pack-cache payoff of the
// batched Volume-Speed LSTM. On the 360-link Manhattan preset its
// recurrent and input products cross the blocked-GEMM threshold, so during
// a test-time fit — V2S and T2V frozen, and the generator's products too
// small to pack — the frozen weights' packed panels are served from the
// cache (hits) and never invalidated, while V2S training, whose optimizer
// steps mutate those weights, does invalidate them.
func TestFitHitsPackCacheForFrozenV2S(t *testing.T) {
	restore := tensor.PackCachingEnabled()
	defer tensor.SetPackCaching(restore)
	tensor.SetPackCaching(true)

	topo := oracleTopo(t, dataset.Manhattan(dataset.CityOptions{ODPairs: 5, Seed: 1}), 6, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	cfg.Seed = 37
	m := NewModel(topo, cfg)
	ctx := context.Background()

	before := tensor.PackCacheStatsSnapshot()
	if _, err := m.TrainV2SCtx(ctx, poolingSamples(topo, 1), 2); err != nil {
		t.Fatal(err)
	}
	trained := tensor.PackCacheStatsSnapshot()
	if trained.Invalidations == before.Invalidations {
		t.Fatal("V2S training mutated its weights without invalidating a cached pack")
	}

	// The first fit finds the packs the last optimizer step left stale and
	// drops them; from then on the frozen weights' packs stay valid, as in
	// the refit loop of a trained model.
	obs := fitObs(m, 12)
	if _, _, err := m.FitBestCtx(ctx, obs, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	start := tensor.PackCacheStatsSnapshot()
	if _, _, err := m.FitBestCtx(ctx, obs, 2, 2, nil); err != nil {
		t.Fatal(err)
	}
	end := tensor.PackCacheStatsSnapshot()
	if end.Hits == start.Hits {
		t.Fatal("the fit's frozen V2S weights never hit the pack cache")
	}
	if end.Invalidations != start.Invalidations {
		t.Fatalf("the fit invalidated %d packs of frozen weights", end.Invalidations-start.Invalidations)
	}
}

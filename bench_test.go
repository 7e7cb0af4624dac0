// Benchmarks regenerating every table and figure of the paper's evaluation
// (at experiment.TestScale, sized so the full -bench=. sweep completes in
// minutes on one core), plus micro-benchmarks of the substrates the pipeline
// spends its time in. Every benchmark reports allocations (the training hot
// loop is pooled; see DESIGN.md §11), and cmd/ovsbench turns a sweep into
// BENCH_4.json for the perf trajectory. For paper-shaped output at a more
// faithful scale, run:
//
//	go run ./cmd/ovstables -exp all -scale quick
package ovs_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovs"
	"ovs/internal/autodiff"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/lint"
	"ovs/internal/nn"
	"ovs/internal/parallel"
	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

// benchScale trims TestScale slightly so every table bench iteration stays
// in the seconds-to-a-minute range.
func benchScale() experiment.Scale {
	sc := experiment.TestScale()
	sc.Samples = 5
	sc.V2SEpochs, sc.T2VEpochs, sc.FitEpochs = 7, 5, 25
	sc.ODPairs = 5
	return sc
}

// BenchmarkTableVI regenerates the real-dataset comparison (Hangzhou, Porto,
// Manhattan × 7 methods, RMSE on TOD/volume/speed).
func BenchmarkTableVI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunRealComparison(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVII regenerates the running-time table (OVS wall-clock on
// the three real datasets).
func BenchmarkTableVII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunRunningTime(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVIII regenerates the synthetic comparison (five TOD patterns
// × 7 methods on the 3×3 grid).
func BenchmarkTableVIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSyntheticComparison(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIX regenerates the ablation study (OVS and its three
// FC-ablated variants on the Random pattern).
func BenchmarkTableIX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblation(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableX regenerates the case-study speed-fitting comparison
// (Table X columns Case 1 and Case 2).
func BenchmarkTableX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCaseStudy1(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.RunCaseStudy2(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the scalability sweep (OVS running time vs
// intersection count; the paper sweeps to 1000, the bench to 100).
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunScalability(context.Background(), benchScale(), []int{10, 50, 100}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the census-constraint experiment (recovered
// daily OD sums with and without the auxiliary loss).
func BenchmarkFigure10(b *testing.B) {
	sc := benchScale()
	sc.ODPairs = 12
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCensusConstraint(context.Background(), sc, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the road-work robustness experiment.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunRoadWork(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates case study 1 (Hangzhou Sunday TOD curves).
func BenchmarkFigure12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCaseStudy1(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13 regenerates case study 2 (football Saturday TOD curves).
func BenchmarkFigure13(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCaseStudy2(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteChoiceAblation runs the route-choice design-choice ablation
// (k=1 vs k=2 route splits under dynamic routing).
func BenchmarkRouteChoiceAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunRouteChoice(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCrossAblation runs the simulator-mismatch ablation
// (meso-trained chain observing micro-engine speeds).
func BenchmarkEngineCrossAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunEngineCross(context.Background(), benchScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkSimulatorMeso measures mesoscopic engine throughput on the 3×3
// grid with moderate demand (the inner loop of training-data generation).
func BenchmarkSimulatorMeso(b *testing.B) {
	city := dataset.SyntheticGrid(8, 1)
	g := tensor.Full(20, city.NumPairs(), 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(city.Net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: int64(i)})
		if _, err := s.Run(sim.Demand{ODs: city.ODs, G: g}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMesoDynamic measures the meso engine under
// DynamicRouting, where the per-(OD, interval) route cache turns a Dijkstra
// per vehicle into a Dijkstra per OD per interval. The dijkstra/op metric is
// the cached invocation count (static precompute + one per spawned
// OD-interval).
func BenchmarkSimulatorMesoDynamic(b *testing.B) {
	city := dataset.SyntheticGrid(8, 1)
	g := tensor.Full(20, city.NumPairs(), 6)
	b.ReportAllocs()
	b.ResetTimer()
	calls := 0
	for i := 0; i < b.N; i++ {
		s := sim.New(city.Net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: int64(i),
			Routing: sim.DynamicRouting})
		res, err := s.Run(sim.Demand{ODs: city.ODs, G: g})
		if err != nil {
			b.Fatal(err)
		}
		calls += res.DijkstraCalls
	}
	b.ReportMetric(float64(calls)/float64(b.N), "dijkstra/op")
}

// BenchmarkSimulatorMesoGrid500 measures the meso engine at Fig. 9 scale:
// one training-data sample on a 500-intersection grid (1934 links) with 20
// OD pairs under DynamicRouting, 6 intervals of 300 s. Only about a tenth of
// the links carry traffic on a given step, which is what the engine's
// active-link stepping exploits.
func BenchmarkSimulatorMesoGrid500(b *testing.B) {
	net := roadnet.GridForIntersections(500)
	rng := rand.New(rand.NewSource(1))
	regions := roadnet.Partition(net, 3, 3, rng)
	city := &dataset.City{
		Name:    "grid-500",
		Net:     net,
		Regions: regions,
		Kinds:   make([]dataset.RegionKind, len(regions)),
		Pairs:   roadnet.SelectODPairs(regions, 20, rng),
	}
	city.ResolveODs()
	g := dataset.MixedTOD(0, dataset.TODConfig{Pairs: city.NumPairs(), Intervals: 6, IntervalMinutes: 5}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: int64(i), Routing: sim.DynamicRouting})
		if _, err := s.Run(sim.Demand{ODs: city.ODs, G: g}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorMicro measures the IDM car-following engine on the same
// workload as BenchmarkSimulatorMeso.
func BenchmarkSimulatorMicro(b *testing.B) {
	city := dataset.SyntheticGrid(8, 1)
	g := tensor.Full(20, city.NumPairs(), 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(city.Net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: int64(i), Engine: sim.Micro})
		if _, err := s.Run(sim.Demand{ODs: city.ODs, G: g}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel builds the standard OVS model on the 3×3 grid for the hot-loop
// micro-benchmarks.
func benchModel(b *testing.B) *ovs.Model {
	b.Helper()
	return benchModelOn(b, dataset.SyntheticGrid(8, 1), 8)
}

// benchModelOn builds the standard OVS model on a city's OD pairs with the
// given number of intervals.
func benchModelOn(b *testing.B, city *dataset.City, intervals int) *ovs.Model {
	b.Helper()
	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := ovs.NewTopology(city.Net, pairs, intervals, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ovs.NewModel(topo, ovs.DefaultModelConfig())
}

// BenchmarkModelForward measures one OVS forward pass (TOD→volume→speed) on
// the 3×3 grid topology.
func BenchmarkModelForward(b *testing.B) {
	model := benchModel(b)
	g := tensor.Full(20, model.Topo.N, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = model.Forward(g)
	}
}

// BenchmarkFitEpoch measures one test-time fitting epoch (forward + backward
// through all three modules plus the optimizer step), with the tensor arena
// enabled (the default) and disabled. The arena=on/arena=off allocs/op gap is
// the headline number of the pooled training loop.
func BenchmarkFitEpoch(b *testing.B) {
	model := benchModel(b)
	_, speed := model.Forward(tensor.Full(20, model.Topo.N, 8))
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)
	for _, mode := range []struct {
		name   string
		pooled bool
	}{
		{"arena=on", true},
		{"arena=off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			tensor.SetPooling(mode.pooled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := model.FitBestCtx(context.Background(), speed, 1, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitEpochManhattan measures one test-time fitting epoch on the
// 360-link Manhattan preset (5 OD pairs, 6 intervals): the op shape of the
// manhattan-refit benchmark workload, where the Volume-Speed LSTM over all
// links is nearly the whole cost of the fit.
func BenchmarkFitEpochManhattan(b *testing.B) {
	model := benchModelOn(b, dataset.Manhattan(dataset.CityOptions{ODPairs: 5, Seed: 1}), 6)
	_, speed := model.Forward(tensor.Full(20, model.Topo.N, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.FitBestCtx(context.Background(), speed, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackward measures one forward+backward sweep of the full OVS chain
// on a recycled graph — the allocation profile of the inner training loop
// without the optimizer.
func BenchmarkBackward(b *testing.B) {
	model := benchModel(b)
	_, speed := model.Forward(tensor.Full(20, model.Topo.N, 8))
	params := model.Params()
	g := autodiff.NewGraph()
	defer g.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		tod := model.TODGen.Generate(g)
		vol := model.T2V.MapVolume(g, tod, false)
		pred := model.V2S.MapSpeed(g, vol, false)
		loss := autodiff.MSE(pred, speed)
		g.Backward(loss)
		nn.ZeroGrads(params)
	}
}

// BenchmarkDijkstra measures shortest-path routing on a 20×20 grid.
func BenchmarkDijkstra(b *testing.B) {
	net := ovs.Grid(ovs.GridConfig{Rows: 20, Cols: 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ShortestPath(0, net.NumNodes()-1, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul measures the dense kernel at 256×256×256 through the
// packed, cache-blocked GEMM core — the headline size the perf trajectory
// tracks (BENCH_2's naive kernel vs BENCH_4's packed kernel), and the
// benchmark CI gates on allocs/op (a regression means the arena-pooled pack
// buffers stopped pooling).
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, y)
	}
}

// BenchmarkGEMM sweeps the packed blocked GEMM core across square and ragged
// shapes (64..512, including non-tile-multiples) for all four entry points.
// Each subtest reports effective GFLOPS alongside the standard metrics.
func BenchmarkGEMM(b *testing.B) {
	shapes := []struct{ m, n, k int }{
		{64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {512, 512, 512},
		{512, 64, 256}, {64, 512, 128}, {256, 256, 33}, {96, 200, 72},
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		name := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		a := tensor.Randn(rng, 1, s.m, s.k)
		bb := tensor.Randn(rng, 1, s.k, s.n)
		aT := tensor.Randn(rng, 1, s.k, s.m)
		bT := tensor.Randn(rng, 1, s.n, s.k)
		dst := tensor.New(s.m, s.n)
		flops := 2 * float64(s.m) * float64(s.n) * float64(s.k)
		run := func(variant string, fn func()) {
			b.Run(variant+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
		run("MatMul", func() { _ = tensor.MatMul(a, bb) })
		run("MatMulTo", func() { tensor.MatMulTo(dst, a, bb) })
		run("MatMulNTAcc", func() { tensor.MatMulNTAcc(dst, a, bT) })
		run("MatMulTNAcc", func() { tensor.MatMulTNAcc(dst, aT, bb) })
	}
}

// BenchmarkMatMulParallel measures the dense kernel at a size large enough
// for the worker pool to engage (256³ ≈ 16.8M flops, well above the per-chunk
// grain), comparing the exact-serial setting against the process default.
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=default", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			parallel.SetWorkers(bc.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tensor.MatMul(x, y)
			}
		})
	}
}

// BenchmarkLSTMForwardBackward measures one LSTM training step (T=12) on a
// recycled graph.
func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := nn.NewLSTM(rng, "bench", 8, 32)
	x := tensor.Randn(rng, 1, 12, 8)
	target := tensor.Randn(rng, 1, 12, 32)
	g := autodiff.NewGraph()
	defer g.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		out := l.Forward(g.Const(x), 1)
		loss := autodiff.MSE(out, target)
		g.Backward(loss)
	}
}

// BenchmarkLSTMCell measures the fused cell kernel in isolation: the input
// projection is precomputed (as LSTM.Forward hoists it), so each step is
// exactly one LSTMCell node — forward and hand-written fused backward — on a
// recycled graph. This is the per-step cost the fusion collapsed the ~16-node
// graph chain into.
func BenchmarkLSTMCell(b *testing.B) {
	const steps, hidden = 12, 32
	rng := rand.New(rand.NewSource(1))
	pre := tensor.Randn(rng, 1, steps, 4*hidden)
	wh := autodiff.NewParameter("bench.Wh", tensor.Randn(rng, 1, hidden, 4*hidden))
	target := tensor.Randn(rng, 1, steps, hidden)
	g := autodiff.NewGraph()
	defer g.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		preNode := g.Const(pre)
		whNode := g.Param(wh)
		outs := make([]*autodiff.Node, steps)
		var prev *autodiff.Node
		for t := 0; t < steps; t++ {
			prev = autodiff.LSTMCell(preNode, 1, t, prev, whNode, hidden)
			outs[t] = prev
		}
		loss := autodiff.MSE(autodiff.StackSteps(outs), target)
		g.Backward(loss)
	}
}

// BenchmarkGateKernels measures the LSTM gate nonlinearities on slabs of
// 24 (one gate of one sequence at the Volume-Speed hidden width), 72 (the
// three sigmoid gates) and 1024 elements: the vector kernels behind
// tensor.SigmoidSlice/TanhSlice against the scalar loops they replace, so
// per-call overhead shows at the short end. Inputs are N(0, 5²), which puts
// 90% of them on tanh's exp branch (|x| ≥ 0.625): the share measured for the
// Volume-Speed LSTM's tanh inputs on odbench's manhattan-refit workload
// (93% of the g pre-activations, 86% of the cell states). The untrained model
// of BenchmarkFitEpochManhattan has under 1% there, so that benchmark barely
// exercises the vector tanh. The sigmoid kernel's cost does not depend on
// the inputs: only |x| > 708 leaves its vector lanes.
func BenchmarkGateKernels(b *testing.B) {
	for _, n := range []int{24, 72, 1024} {
		rng := rand.New(rand.NewSource(1))
		src := tensor.Randn(rng, 5, n).Data
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("sigmoid/n=%d/vector", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.SigmoidSlice(dst, src)
			}
		})
		b.Run(fmt.Sprintf("sigmoid/n=%d/scalar", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range src {
					dst[j] = 1 / (1 + math.Exp(-x))
				}
			}
		})
		b.Run(fmt.Sprintf("tanh/n=%d/vector", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.TanhSlice(dst, src)
			}
		})
		b.Run(fmt.Sprintf("tanh/n=%d/scalar", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range src {
					dst[j] = math.Tanh(x)
				}
			}
		})
	}
}

// BenchmarkLintRepo measures a full cold ovslint pass over the module — the
// CFG + dataflow suite type-checks and analyzes every package, so this is
// the CI lint job's wall-clock and the number the incremental cache is
// amortizing (a warm -cache run skips everything measured here).
func BenchmarkLintRepo(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		d := &lint.Driver{Loader: loader, Analyzers: lint.All()}
		res, err := d.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, pr := range res {
			for _, diag := range pr.Diags {
				b.Fatalf("lint diagnostic during benchmark: %s", diag)
			}
		}
	}
}

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
	"ovs/internal/baselines"
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/experiment"
	"ovs/internal/lint"
	"ovs/internal/nn"
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

// BenchmarkFitEpoch measures a whole 1-epoch test-time fit: each op is one
// FitBestCtx call with one restart and one epoch, so it includes the per-fit
// set-up (freezing the shared modules, cloning the generator, a fresh
// optimizer and graph, the final GenerateTOD) as well as the epoch's forward
// + backward through all three modules and the optimizer step. It runs with the tensor arena enabled (the default) and disabled;
// the arena=on/arena=off allocs/op gap is the headline number of the pooled
// training loop. The name is kept so the BENCH history stays comparable.
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

// BenchmarkFitEpochManhattan measures a whole 1-epoch FitBestCtx, per-fit
// set-up included, on the 360-link Manhattan preset (5 OD pairs, 6
// intervals): the op shape of the manhattan-refit benchmark workload, where
// the Volume-Speed LSTM over all links is nearly the whole cost of the fit.
// Like BenchmarkFitEpoch, it keeps its name for the BENCH history.
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

// BenchmarkBaselineLSTM measures one LSTM-baseline Recover on the 3×3 grid:
// 10 epochs over 4 simulated samples, then the observation's forward pass.
// Every training step runs on nn.Train's recycled graph, so allocations per
// op stay flat in the step count; a graph per step costs thousands more.
func BenchmarkBaselineLSTM(b *testing.B) {
	city := dataset.SyntheticGrid(6, 21)
	simulator := sim.New(city.Net, sim.Config{Intervals: 6, IntervalSec: 300, Seed: 3})
	raw, err := dataset.Generate(simulator, city, dataset.GenerateOptions{
		Count: 4,
		TOD:   dataset.TODConfig{Intervals: 6, IntervalMinutes: 5, Scale: 0.6},
		Seed:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := &baselines.Context{Net: city.Net, Regions: city.Regions, Pairs: city.Pairs, T: 6, SpeedObs: raw[0].Speed, Seed: 6}
	for _, s := range raw {
		c.Samples = append(c.Samples, core.Sample{G: s.G, Volume: s.Volume, Speed: s.Speed})
		c.MaxTrips = math.Max(c.MaxTrips, 1.2*s.G.Max())
	}
	method := &baselines.LSTM{Epochs: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := method.Recover(context.Background(), c); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkMatMul measures the dense kernel at 256×256×256 — the headline
// size the perf trajectory tracks (BENCH_2's naive kernel, BENCH_4's packed
// kernel). Its B operand (64 Ki elements) stays cache-resident, so it runs
// on the unpacked row kernels; CI gates its allocs/op, which hold the
// output tensor alone.
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

// BenchmarkMatMulPacked measures MatMul at 512×512×512, whose B operand
// (256 Ki elements) is past the row kernels' cache budget, so it runs
// through the packed, cache-blocked GEMM core. CI gates its allocs/op: a
// regression means the arena-pooled pack buffers stopped pooling.
func BenchmarkMatMulPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 512, 512)
	y := tensor.Randn(rng, 1, 512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMul(x, y)
	}
}

// BenchmarkGEMM sweeps the GEMM entry points across square and ragged
// shapes (64..512, including non-tile-multiples) and across the products
// the LSTM training graph is made of, each with the entry points that graph
// calls at that shape. Shapes read m×n×k. Each subtest reports effective
// GFLOPS alongside the standard metrics.
func BenchmarkGEMM(b *testing.B) {
	const (
		matMul = 1 << iota
		matMulTo
		affineTo
		matMulAcc
		ntAcc
		tnAcc
		all = matMul | matMulTo | ntAcc | tnAcc
	)
	shapes := []struct{ m, n, k, ops int }{
		{64, 64, 64, all}, {128, 128, 128, all}, {256, 256, 256, all}, {512, 512, 512, all},
		{512, 64, 256, all}, {64, 512, 128, all}, {256, 256, 33, all}, {96, 200, 72, all},
		// The batched LSTM at hidden 24 over 24 links: the forward's
		// z += H(t-1)·Wh and the dWh accumulation (24×96×24), the
		// backward's dH += DG·Whᵀ (24×24×96) and its one-sequence form
		// (1×24×96), both MatMulAcc against Whᵀ transposed once per node
		// (the MatMulNTAcc variants run the same products on the NT path's
		// B copy), a dense layer's dX (144×24×16), and the first layer's
		// dWx (5×96×144).
		{24, 96, 24, matMulTo | matMulAcc | tnAcc}, {24, 24, 96, ntAcc | matMulAcc}, {1, 24, 96, ntAcc | matMulAcc},
		{144, 24, 16, ntAcc}, {5, 96, 144, tnAcc},
		// The NN baseline's output-layer dX (1×64×432): the one-row NT
		// product the program runs, which copies B on every call.
		{1, 64, 432, ntAcc},
		// The same over Manhattan's 360 links (batch 360, T 6): the
		// recurrent product (360×96×24), dH (360×24×96), dWh (24×96×360),
		// the first layer's input projection (2160×96×5) and its dWx
		// (5×96×2160).
		{360, 96, 24, matMulTo | matMulAcc}, {360, 24, 96, ntAcc | matMulAcc}, {24, 96, 360, tnAcc},
		{2160, 96, 5, affineTo}, {5, 96, 2160, tnAcc},
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		name := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		a := tensor.Randn(rng, 1, s.m, s.k)
		bb := tensor.Randn(rng, 1, s.k, s.n)
		aT := tensor.Randn(rng, 1, s.k, s.m)
		bT := tensor.Randn(rng, 1, s.n, s.k)
		bias := tensor.Randn(rng, 1, s.n)
		dst := tensor.New(s.m, s.n)
		flops := 2 * float64(s.m) * float64(s.n) * float64(s.k)
		run := func(op int, variant string, fn func()) {
			if s.ops&op == 0 {
				return
			}
			b.Run(variant+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
		run(matMul, "MatMul", func() { _ = tensor.MatMul(a, bb) })
		run(matMulTo, "MatMulTo", func() { tensor.MatMulTo(dst, a, bb) })
		run(affineTo, "AffineTo", func() { tensor.AffineTo(dst, a, bb, bias) })
		run(matMulAcc, "MatMulAcc", func() { tensor.MatMulAcc(dst, a, bb) })
		run(ntAcc, "MatMulNTAcc", func() { tensor.MatMulNTAcc(dst, a, bT) })
		run(tnAcc, "MatMulTNAcc", func() { tensor.MatMulTNAcc(dst, aT, bb) })
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

// BenchmarkLSTMCell measures the fused recurrence kernel nearly in
// isolation: the whole T-step sequence is one autodiff.LSTM node — forward
// and hand-written fused backward — on a recycled graph, fed one input
// feature through constant Wx and b, so the input projection is a 12×128×1
// product and only Wh takes a gradient. The name predates the one-node
// recurrence and is kept so BENCH_*.json history stays comparable.
func BenchmarkLSTMCell(b *testing.B) {
	const steps, hidden = 12, 32
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, steps, 1)
	wx := tensor.Randn(rng, 1, 1, 4*hidden)
	bias := tensor.Randn(rng, 1, 4*hidden)
	wh := autodiff.NewParameter("bench.Wh", tensor.Randn(rng, 1, hidden, 4*hidden))
	target := tensor.Randn(rng, 1, steps, hidden)
	g := autodiff.NewGraph()
	defer g.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		out := autodiff.LSTM(g.Const(x), g.Const(wx), g.Const(bias), g.Param(wh), 1, hidden)
		loss := autodiff.MSE(out, target)
		g.Backward(loss)
	}
}

// BenchmarkLSTMBatch measures one training step of the batched
// Volume-Speed recurrence at its production shape — hidden 24, T 6, 24
// input features — over 24 sequences (the 3×3 grid's links) and 360
// (Manhattan's): the one-node layer — input projection and recurrence — and
// its backward, all three weight gradients included.
func BenchmarkLSTMBatch(b *testing.B) {
	const steps, in, hidden = 6, 24, 24
	for _, batch := range []int{24, 360} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := nn.NewLSTM(rng, "bench", in, hidden)
			x := tensor.Randn(rng, 1, batch*steps, in)
			target := tensor.Randn(rng, 1, batch*steps, hidden)
			g := autodiff.NewGraph()
			defer g.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				out := l.Forward(g.Const(x), batch)
				g.Backward(autodiff.MSE(out, target))
			}
		})
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

// BenchmarkLintRepo measures a full cold ovslint pass over the module: the
// serial load type-checks every package, then the CFG + dataflow suite
// analyzes each one. This is the CI lint job's wall-clock.
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
		pkgs, err := loader.LoadAll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, diag := range lint.RunPackage(pkg, lint.All()) {
				b.Fatalf("lint diagnostic during benchmark: %s", diag)
			}
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/dataset"
	"ovs/internal/parallel"
	"ovs/internal/tensor"
)

// perLinkV2S is the reference Volume-Speed mapping: LSTMV2S with MapSpeed
// built the way it was before the batched LSTM — one sub-graph per link,
// each running batch-1 LSTMs over that link's (T × 5) input, recorded in
// link order on one tape. The batched MapSpeed must reproduce its speeds and
// its gradient with respect to the volume bit for bit, and its parameter
// gradients to rounding (TestMapSpeedMatchesPerLinkOracle).
type perLinkV2S struct{ *LSTMV2S }

// MapSpeed converts link volumes (M × T) to speeds (M × T) in m/s, one link
// at a time.
func (o perLinkV2S) MapSpeed(g *autodiff.Graph, vol *autodiff.Node, train bool) *autodiff.Node {
	v := o.LSTMV2S
	topo := v.topo
	rows := make([]*autodiff.Node, topo.M)
	for j := range rows {
		q := autodiff.Scale(autodiff.Row(vol, j), 1/v.cfg.VolumeNorm) // (T)
		// Assemble (T × 5): volume plus broadcast static features.
		featRows := []*autodiff.Node{q}
		for f := 0; f < 4; f++ {
			ft := g.Alloc(topo.T)
			ft.Fill(v.topo.linkFeatures.At(j, f))
			featRows = append(featRows, g.Const(ft))
		}
		x := autodiff.Transpose(autodiff.StackRows(featRows)) // (T × 5)
		h := v.lstm1.Forward(x, 1)
		h = v.drop.Forward(h, train)
		h = v.lstm2.Forward(h, 1)
		h = v.fc1.Forward(h, train)
		out := v.fc2.Forward(h, train) // (T × 1), sigmoid in (0,1)
		rows[j] = autodiff.Scale(autodiff.Reshape(out, topo.T), topo.speedLimits[j])
	}
	return autodiff.StackRows(rows)
}

// withPerLinkV2S swaps a model's Volume-Speed module for the per-link
// oracle over the same weights.
func withPerLinkV2S(m *Model) *Model {
	m.V2S = perLinkV2S{m.V2S.(*LSTMV2S)}
	return m
}

// oracleTopo builds a topology with k route slots per OD on one of the
// preset cities.
func oracleTopo(t *testing.T, city *dataset.City, intervals, k int) *Topology {
	t.Helper()
	pairs := make([][2]int, len(city.ODs))
	for i, od := range city.ODs {
		pairs[i] = [2]int{od.Origin, od.Dest}
	}
	topo, err := NewTopology(city.Net, pairs, intervals, k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// requireBitsEqual compares bit patterns, treating any NaN as equal to any
// NaN (the payload carve-out of autodiff.LSTMCell).
func requireBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: batched %v vs per-link %v", what, i, got[i], want[i])
		}
	}
}

// requireRelClose requires every element of got within tol of want,
// relative to want's largest magnitude.
func requireRelClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			t.Fatalf("%s[%d]: batched %v vs per-link %v (|Δ| %.3g > %.3g·%.3g)", what, i, got[i], want[i], d, tol, scale)
		}
	}
}

// mapSpeedGrads runs one MapSpeed forward and backward on a fresh graph and
// returns the speeds, the gradient with respect to the volume, and every V2S
// parameter gradient. The loss weights each output element differently so a
// permuted or misrouted gradient cannot cancel out.
func mapSpeedGrads(m *Model, volT *tensor.Tensor, train bool) (speed, volGrad *tensor.Tensor, paramGrads []*tensor.Tensor) {
	params := m.V2S.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	vol := autodiff.NewParameter("vol", volT.Clone())
	g := autodiff.NewGraph()
	defer g.Release()
	out := m.V2S.MapSpeed(g, g.Param(vol), train)
	weights := g.Alloc(out.Value.Shape()...)
	for i := range weights.Data {
		weights.Data[i] = float64(i%11) - 5
	}
	g.Backward(autodiff.Sum(autodiff.Mul(out, g.Const(weights))))
	for _, p := range params {
		paramGrads = append(paramGrads, p.Grad.Clone())
	}
	return out.Value.Clone(), vol.Grad.Clone(), paramGrads
}

// TestMapSpeedMatchesPerLinkOracle holds the batched MapSpeed to the per-link
// build it replaced, on the 3×3 grid and the 360-link Manhattan preset, for
// DefaultConfig and PaperConfig (LSTMHidden 128, dropout 0.3), with dropout
// active and inactive, at Workers ∈ {1, 2, GOMAXPROCS} × pooling on/off
// (-short leaves out PaperConfig on Manhattan, the slowest oracle run):
// speeds and the volume gradient are bitwise equal, and the V2S parameter
// gradients — whose sums over links the batch GEMMs reassociate — agree to
// 1e-12 relative.
func TestMapSpeedMatchesPerLinkOracle(t *testing.T) {
	restorePool := tensor.PoolingEnabled()
	defer tensor.SetPooling(restorePool)
	restoreWorkers := parallel.Workers()
	defer parallel.SetWorkers(restoreWorkers)

	const steps = 6
	topos := []struct {
		name string
		topo *Topology
	}{
		{"grid3", oracleTopo(t, dataset.SyntheticGrid(8, 1), steps, 1)},
		{"manhattan", oracleTopo(t, dataset.Manhattan(dataset.CityOptions{ODPairs: 5, Seed: 1}), steps, 1)},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"paper", PaperConfig()},
	}
	for _, tp := range topos {
		rng := rand.New(rand.NewSource(61))
		vol := tensor.New(tp.topo.M, steps)
		for i := range vol.Data {
			vol.Data[i] = rng.Float64() * 120
		}
		for _, c := range configs {
			if testing.Short() && tp.name == "manhattan" && c.name == "paper" {
				// The per-link oracle at H=128 over 360 links takes minutes
				// under the race detector; full runs cover this case.
				continue
			}
			cfg := c.cfg
			cfg.Seed = 23
			for _, train := range []bool{false, true} {
				// The oracle's own worker and pooling invariance is held by
				// the module and pooling equivalence tests; one run of it is
				// the reference for every batched configuration.
				tensor.SetPooling(true)
				parallel.SetWorkers(1)
				cfg.Workers = 1
				oSpeed, oVolGrad, oGrads := mapSpeedGrads(withPerLinkV2S(NewModel(tp.topo, cfg)), vol, train)
				for _, pooled := range []bool{true, false} {
					for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
						label := fmt.Sprintf("%s/%s train=%v pooled=%v workers=%d", tp.name, c.name, train, pooled, w)
						tensor.SetPooling(pooled)
						parallel.SetWorkers(w)
						cfg.Workers = w
						speed, volGrad, grads := mapSpeedGrads(NewModel(tp.topo, cfg), vol, train)
						requireBitsEqual(t, label+" speed", speed.Data, oSpeed.Data)
						requireBitsEqual(t, label+" vol.Grad", volGrad.Data, oVolGrad.Data)
						for i, gr := range grads {
							requireRelClose(t, fmt.Sprintf("%s param %d grad", label, i), gr.Data, oGrads[i].Data, 1e-12)
						}
					}
				}
			}
		}
	}
}

// trainedModelPair returns two identically seeded models whose T2V and V2S
// weights are both the result of briefly training the first one; the second
// runs the per-link V2S oracle. Neither training stage draws from the model
// rng (DefaultConfig has no dropout), so both models' rngs sit at the same
// position.
func trainedModelPair(t *testing.T, topo *Topology, samples []Sample) (batched, oracle *Model) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	cfg.Seed = 31
	batched = NewModel(topo, cfg)
	ctx := context.Background()
	if _, err := batched.TrainV2SCtx(ctx, samples, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := batched.TrainT2VCtx(ctx, samples, 2); err != nil {
		t.Fatal(err)
	}
	oracle = withPerLinkV2S(NewModel(topo, cfg))
	src := append(batched.T2V.Params(), batched.V2S.Params()...)
	for i, p := range append(oracle.T2V.Params(), oracle.V2S.Params()...) {
		p.Value.CopyDataFrom(src[i].Value)
	}
	_, bd := batched.rngSrc.State()
	_, od := oracle.rngSrc.State()
	if bd != od {
		t.Fatalf("rng positions differ: %d vs %d draws", bd, od)
	}
	return batched, oracle
}

// TestFitMatchesPerLinkOracle: with the V2S weights frozen, as in the
// test-time fit and in T2V training, only the speeds and the volume gradient
// cross the V2S module — both bitwise equal to the oracle's — so a fit
// returns a bitwise-identical TOD and loss history, and T2V training
// bitwise-identical weights and loss history, whichever module runs.
func TestFitMatchesPerLinkOracle(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 3)
	ctx := context.Background()

	batched, oracle := trainedModelPair(t, topo, samples)
	obs := fitObs(batched, 12)
	for _, restarts := range []int{1, 3} {
		rec, hist, err := batched.FitBestCtx(ctx, obs, 4, restarts, nil)
		if err != nil {
			t.Fatal(err)
		}
		oRec, oHist, err := oracle.FitBestCtx(ctx, obs, 4, restarts, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, fmt.Sprintf("restarts=%d TOD", restarts), rec.Data, oRec.Data)
		requireBitsEqual(t, fmt.Sprintf("restarts=%d loss history", restarts), hist, oHist)
	}

	batched, oracle = trainedModelPair(t, topo, samples)
	hist, err := batched.TrainT2VCtx(ctx, samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	oHist, err := oracle.TrainT2VCtx(ctx, samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireBitsEqual(t, "T2V loss history", hist, oHist)
	oParams := oracle.T2V.Params()
	for i, p := range batched.T2V.Params() {
		requireBitsEqual(t, "T2V "+p.Name, p.Value.Data, oParams[i].Value.Data)
	}
}

// TestMapSpeedTapeIndependentOfLinks: the batched MapSpeed records as many
// tape nodes on the 3×3 grid as on the 360-link Manhattan preset (the
// per-link build recorded a chain per link).
func TestMapSpeedTapeIndependentOfLinks(t *testing.T) {
	nodes := func(city *dataset.City) (links, n int) {
		topo := oracleTopo(t, city, 6, 1)
		m := NewModel(topo, DefaultConfig())
		g := autodiff.NewGraph()
		defer g.Release()
		m.V2S.MapSpeed(g, g.Const(tensor.Full(30, topo.M, topo.T)), false)
		return topo.M, g.NumNodes()
	}
	sm, sn := nodes(dataset.SyntheticGrid(8, 1))
	lm, ln := nodes(dataset.Manhattan(dataset.CityOptions{ODPairs: 5, Seed: 1}))
	if sn != ln {
		t.Fatalf("MapSpeed records %d nodes on %d links but %d on %d", sn, sm, ln, lm)
	}
}

package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	m1 := NewModel(topo, cfg)
	tod := tensor.Full(15, 4, 4)
	vol1, speed1 := m1.Forward(tod)

	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A model with different weights must change its prediction after Load.
	cfg2 := cfg
	cfg2.Seed = 999
	m2 := NewModel(topo, cfg2)
	vol2, _ := m2.Forward(tod)
	if tensor.AllClose(vol1, vol2, 1e-12) {
		t.Fatal("differently seeded models agreed before load (degenerate test)")
	}
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	vol3, speed3 := m2.Forward(tod)
	if !tensor.AllClose(vol1, vol3, 1e-12) || !tensor.AllClose(speed1, speed3, 1e-12) {
		t.Fatal("loaded model does not reproduce saved model's predictions")
	}
}

func TestModelLoadRejectsMismatchedTopology(t *testing.T) {
	topo4 := testTopo(t, 4, 1)
	topo6 := testTopo(t, 6, 1)
	m1 := NewModel(topo4, DefaultConfig())
	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(topo6, DefaultConfig())
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("load across mismatched topology did not error")
	}
}

func TestSmoothPenaltyValue(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 10
	cfg.SmoothWeight = 1
	m := NewModel(topo, cfg)
	// A constant TOD has zero smooth penalty; a sawtooth a large one.
	g := autodiff.NewGraph()
	flat := m.smoothPenalty(g, g.Const(tensor.Full(5, 4, 4)))
	if got := flat.Value.Data[0]; got != 0 {
		t.Fatalf("constant TOD smooth penalty = %v, want 0", got)
	}
	saw := tensor.New(4, 4)
	for i := 0; i < 4; i++ {
		for tt := 0; tt < 4; tt++ {
			if (tt % 2) == 0 {
				saw.Set(10, i, tt)
			}
		}
	}
	g2 := autodiff.NewGraph()
	spiky := m.smoothPenalty(g2, g2.Const(saw))
	// Differences are ±10 on MaxTrips 10 → squared normalized diff = 1.
	if got := spiky.Value.Data[0]; got < 0.9 || got > 1.1 {
		t.Fatalf("sawtooth smooth penalty = %v, want ≈1", got)
	}
}

func TestRobustFitLossBehaviour(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfgMSE := DefaultConfig()
	cfgHub := DefaultConfig()
	cfgHub.RobustDelta = 1
	mMSE := NewModel(topo, cfgMSE)
	mHub := NewModel(topo, cfgHub)

	obs := tensor.Full(10, topo.M, 4)
	pred := tensor.Full(10, topo.M, 4)
	pred.Set(30, 0, 0) // one 20 m/s outlier residual

	lossOf := func(m *Model) float64 {
		g := autodiff.NewGraph()
		return m.fitLoss(g, g.Const(pred), obs, nil).Value.Data[0]
	}
	mse := lossOf(mMSE)
	hub := lossOf(mHub)
	// MSE of one r=20 outlier over M*T cells: 400/(M*T). Pseudo-Huber with
	// δ=1 ≈ |r|·δ = 20/(M*T): an order of magnitude smaller.
	if hub >= mse/5 {
		t.Fatalf("pseudo-Huber %v not substantially below MSE %v for an outlier", hub, mse)
	}
	// For small residuals the two losses agree (quadratic regime).
	small := tensor.Full(10.2, topo.M, 4)
	gm := autodiff.NewGraph()
	gh := autodiff.NewGraph()
	mseSmall := mMSE.fitLoss(gm, gm.Const(small), obs, nil).Value.Data[0]
	hubSmall := mHub.fitLoss(gh, gh.Const(small), obs, nil).Value.Data[0]
	if hubSmall < mseSmall*0.4 || hubSmall > mseSmall*1.1 {
		t.Fatalf("losses diverge in the quadratic regime: mse %v hub %v", mseSmall, hubSmall)
	}
}

func TestAttentionProfile(t *testing.T) {
	topo := testTopo(t, 6, 1)
	m := NewModel(topo, DefaultConfig())
	tod := tensor.Full(20, 4, 6)
	prof, err := m.AttentionProfile(tod, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Cfg
	if prof.Dim(0) != cfg.Lookback || prof.Dim(1) != 6 {
		t.Fatalf("profile shape %v, want [%d 6]", prof.Shape(), cfg.Lookback)
	}
	// Columns are softmax distributions over lags.
	for tt := 0; tt < 6; tt++ {
		sum := 0.0
		for w := 0; w < cfg.Lookback; w++ {
			v := prof.At(w, tt)
			if v < 0 || v > 1 {
				t.Fatalf("attention (%d,%d) = %v out of [0,1]", w, tt, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("column %d sums to %v", tt, sum)
		}
	}
	// The lag-0 prior must show through an untrained model.
	if prof.At(0, 3) <= prof.At(cfg.Lookback-1, 3) {
		t.Fatal("lag-0 prior not visible in untrained attention")
	}
	// Errors.
	if _, err := m.AttentionProfile(tod, 99, 0); err == nil {
		t.Fatal("bad OD accepted")
	}
	if _, err := m.AttentionProfile(tod, 0, 99); err == nil {
		t.Fatal("bad position accepted")
	}
	if _, err := m.AttentionProfile(tensor.New(2, 2), 0, 0); err == nil {
		t.Fatal("bad TOD shape accepted")
	}
	ablated := NewAblatedModel(topo, DefaultConfig(), AblateT2V)
	if _, err := ablated.AttentionProfile(tod, 0, 0); err == nil {
		t.Fatal("FC-ablated model has no attention but returned a profile")
	}

	// Every (OD, position) profile is, bit for bit, the attention MapVolume
	// computes for that route's incidence on the link at that position, at 1
	// and 2 routes per OD and with positions past MaxPos clamped.
	for _, k := range []int{1, 2} {
		topo := testTopo(t, 6, k)
		cfg := DefaultConfig()
		cfg.RoutesPerOD = k
		cfg.MaxPos = 2
		m := NewModel(topo, cfg)
		att := m.T2V.(*AttentionT2V)
		tod := tensor.New(topo.N, topo.T)
		for i := range tod.Data {
			tod.Data[i] = float64(5 + (i*7)%23)
		}
		g := autodiff.NewGraph()
		_, alpha := att.mapVolume(g, g.Const(tod), false)
		for od := 0; od < topo.N; od++ {
			route := od * k
			for pos, link := range topo.Routes[route] {
				prof, err := m.AttentionProfile(tod, od, pos)
				if err != nil {
					t.Fatal(err)
				}
				inc := -1
				for _, i := range att.linkIncs[link] {
					if att.incRoute[i] == route {
						inc = i
					}
				}
				if inc < 0 {
					t.Fatalf("k=%d od=%d pos=%d: no incidence of route %d on link %d", k, od, pos, route, link)
				}
				for tt := 0; tt < topo.T; tt++ {
					for w := 0; w < cfg.Lookback; w++ {
						got, want := prof.At(w, tt), alpha.Value.At(inc*topo.T+tt, w)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("k=%d od=%d pos=%d: profile (%d,%d) = %v, MapVolume α = %v", k, od, pos, w, tt, got, want)
						}
					}
				}
			}
		}
		g.Release()
	}
}

func TestFitLossLinkWeights(t *testing.T) {
	topo := testTopo(t, 4, 1)
	m := NewModel(topo, DefaultConfig())
	obs := tensor.Full(10, topo.M, 4)
	pred := tensor.Full(10, topo.M, 4)
	pred.Set(30, 0, 0) // outlier on link 0

	weights := make([]float64, topo.M)
	for j := range weights {
		weights[j] = 1
	}
	g1 := autodiff.NewGraph()
	full := m.fitLoss(g1, g1.Const(pred), obs, weights).Value.Data[0]
	weights[0] = 0 // exclude the outlier link
	g2 := autodiff.NewGraph()
	masked := m.fitLoss(g2, g2.Const(pred), obs, weights).Value.Data[0]
	if masked != 0 {
		t.Fatalf("masked loss = %v, want 0 (only error was on the masked link)", masked)
	}
	if full <= 0 {
		t.Fatalf("unmasked loss = %v, want > 0", full)
	}
	// A length mismatch is rejected at the fit entry point.
	if _, _, err := m.FitBestCtx(context.Background(), obs, 1, 1, &AuxData{LinkWeights: []float64{1, 2}}); err == nil {
		t.Fatal("wrong-length link weights did not error")
	}
}

// TestPerLinkModelFileLoads pins model-file compatibility across the batched
// Volume-Speed LSTM: testdata/v2s_per_link_model.json was saved by the
// per-link build (a small configuration on testTopo(4, 1), after two V2S
// training epochs on poolingSamples(topo, 2)), and
// testdata/v2s_per_link_speed.hex holds that build's PredictSpeed output
// for the volume below, one float64 bit pattern per line. The batched
// module must load the file unchanged — same parameter names and shapes —
// and reproduce every bit.
func TestPerLinkModelFileLoads(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.LSTMHidden, cfg.V2SFC, cfg.ConvChannels, cfg.Lookback, cfg.MaxPos = 4, 5, 3, 2, 3, 3
	cfg.Seed = 43
	m := NewModel(topo, cfg)
	file, err := os.ReadFile("testdata/v2s_per_link_model.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	hex, err := os.ReadFile("testdata/v2s_per_link_speed.hex")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(hex))
	want := make([]float64, len(lines))
	for i, l := range lines {
		bits, err := strconv.ParseUint(l, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = math.Float64frombits(bits)
	}

	vol := tensor.New(topo.M, topo.T)
	for i := range vol.Data {
		vol.Data[i] = float64(i%13) * 7.5
	}
	requireBitsEqual(t, "PredictSpeed", m.PredictSpeed(vol).Data, want)
}

package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// testTopo builds a small 2x3 grid topology with a handful of OD pairs.
func testTopo(t *testing.T, intervals, k int) *Topology {
	t.Helper()
	net := roadnet.Grid(roadnet.GridConfig{Rows: 2, Cols: 3})
	pairs := [][2]int{{0, 5}, {5, 0}, {2, 3}, {3, 2}}
	topo, err := NewTopology(net, pairs, intervals, k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyStructure(t *testing.T) {
	topo := testTopo(t, 6, 1)
	if topo.N != 4 || topo.T != 6 || topo.K != 1 {
		t.Fatalf("topology dims N=%d T=%d K=%d", topo.N, topo.T, topo.K)
	}
	if topo.M != topo.Net.NumLinks() {
		t.Fatalf("M=%d != links %d", topo.M, topo.Net.NumLinks())
	}
	if len(topo.Routes) != 4 {
		t.Fatalf("routes = %d, want 4", len(topo.Routes))
	}
	// Every route must be valid for its OD.
	pairs := [][2]int{{0, 5}, {5, 0}, {2, 3}, {3, 2}}
	for i, r := range topo.Routes {
		if !r.Valid(topo.Net, pairs[i][0], pairs[i][1]) {
			t.Fatalf("route %d invalid", i)
		}
	}
	// Incidences must be consistent: link j's incidences reference routes
	// that actually contain j at that position.
	for j, incs := range topo.linkRoutes {
		for _, inc := range incs {
			if topo.Routes[inc.route][inc.pos] != j {
				t.Fatalf("incidence mismatch at link %d", j)
			}
		}
	}
}

func TestTopologyKRoutes(t *testing.T) {
	topo := testTopo(t, 4, 2)
	if len(topo.Routes) != 8 {
		t.Fatalf("routes = %d, want 8 (4 ODs × 2)", len(topo.Routes))
	}
	for i := 0; i < 4; i++ {
		rs := topo.RoutesOfOD(i)
		if len(rs) != 2 {
			t.Fatalf("OD %d has %d route slots", i, len(rs))
		}
	}
}

func TestTopologyLinkFeaturesNormalized(t *testing.T) {
	topo := testTopo(t, 4, 1)
	for j := 0; j < topo.M; j++ {
		for f := 0; f < 4; f++ {
			v := topo.linkFeatures.At(j, f)
			if v <= 0 || v > 1 {
				t.Fatalf("feature (%d,%d) = %v out of (0,1]", j, f, v)
			}
		}
	}
}

func TestTODGeneratorOutput(t *testing.T) {
	topo := testTopo(t, 6, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 100
	m := NewModel(topo, cfg)
	tod := m.GenerateTOD()
	if tod.Dim(0) != 4 || tod.Dim(1) != 6 {
		t.Fatalf("TOD shape %v", tod.Shape())
	}
	if tod.Min() < 0 || tod.Max() > 100 {
		t.Fatalf("TOD out of [0, MaxTrips]: min=%v max=%v", tod.Min(), tod.Max())
	}
	// Deterministic given the same seed.
	m2 := NewModel(topo, cfg)
	if !tensor.AllClose(tod, m2.GenerateTOD(), 0) {
		t.Fatal("TOD generation not deterministic per seed")
	}
}

func TestTODGeneratorReseedChangesOutput(t *testing.T) {
	topo := testTopo(t, 6, 1)
	m := NewModel(topo, DefaultConfig())
	before := m.GenerateTOD()
	m.TODGen.(*TODGenerator).Reseed(rand.New(rand.NewSource(99)))
	after := m.GenerateTOD()
	if tensor.AllClose(before, after, 1e-12) {
		t.Fatal("reseed did not change generator output")
	}
}

func TestAttentionT2VShapesAndMassPreservation(t *testing.T) {
	topo := testTopo(t, 6, 1)
	m := NewModel(topo, DefaultConfig())
	tod := tensor.Full(10, 4, 6)
	vol := m.PredictVolume(tod)
	if vol.Dim(0) != topo.M || vol.Dim(1) != 6 {
		t.Fatalf("volume shape %v", vol.Shape())
	}
	// Attention is a softmax over lags: each (route, link) contributes a
	// lag-smoothed copy of its trip series, so per-link volume cannot exceed
	// the sum of the incident routes' peak counts.
	for j := 0; j < topo.M; j++ {
		bound := float64(len(topo.linkRoutes[j])) * 10.0
		for tt := 0; tt < 6; tt++ {
			if vol.At(j, tt) > bound+1e-9 {
				t.Fatalf("volume (%d,%d) = %v exceeds mass bound %v", j, tt, vol.At(j, tt), bound)
			}
			if vol.At(j, tt) < 0 {
				t.Fatalf("negative volume at (%d,%d)", j, tt)
			}
		}
	}
	// Links with no incident route must be exactly zero.
	for j := 0; j < topo.M; j++ {
		if len(topo.linkRoutes[j]) == 0 && vol.Row(j).Norm2() != 0 {
			t.Fatalf("unused link %d has non-zero volume", j)
		}
	}
}

func TestAttentionT2VRespondsToDemand(t *testing.T) {
	topo := testTopo(t, 6, 1)
	m := NewModel(topo, DefaultConfig())
	low := m.PredictVolume(tensor.Full(1, 4, 6))
	high := m.PredictVolume(tensor.Full(100, 4, 6))
	if high.Sum() <= low.Sum() {
		t.Fatal("volume not increasing in demand")
	}
	if high.Sum() < 50*low.Sum() {
		t.Fatalf("volume response too weak: low=%v high=%v", low.Sum(), high.Sum())
	}
}

func TestV2SShapesAndSpeedLimits(t *testing.T) {
	topo := testTopo(t, 6, 1)
	m := NewModel(topo, DefaultConfig())
	vol := tensor.Full(20, topo.M, 6)
	speed := m.PredictSpeed(vol)
	if speed.Dim(0) != topo.M || speed.Dim(1) != 6 {
		t.Fatalf("speed shape %v", speed.Shape())
	}
	for j := 0; j < topo.M; j++ {
		limit := topo.Net.Links[j].SpeedLimit
		for tt := 0; tt < 6; tt++ {
			v := speed.At(j, tt)
			if v < 0 || v > limit {
				t.Fatalf("speed (%d,%d) = %v outside [0, %v]", j, tt, v, limit)
			}
		}
	}
}

func TestRouteSplitConservesTrips(t *testing.T) {
	topo := testTopo(t, 6, 2)
	m := NewModel(topo, DefaultConfig())
	a := m.T2V.(*AttentionT2V)
	g := autodiff.NewGraph()
	tod := tensor.Full(10, 4, 6)
	// Inspect the split directly: softmax rows sum to 1, so route counts for
	// one OD sum to its TOD row.
	split := autodiff.SoftmaxRows(g.Param(a.splitLogits))
	for i := 0; i < topo.N; i++ {
		s := 0.0
		for k := 0; k < topo.K; k++ {
			s += split.Value.At(i, k)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("route split row %d sums to %v", i, s)
		}
	}
	// End to end volumes stay bounded by the same mass argument as K=1.
	vol := m.PredictVolume(tod)
	if vol.Min() < 0 {
		t.Fatal("negative volume with K=2")
	}
}

func TestV2STrainingConverges(t *testing.T) {
	topo := testTopo(t, 6, 1)
	cfg := DefaultConfig()
	m := NewModel(topo, cfg)
	// Synthetic monotone task: speed = limit * 1/(1+q/50).
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for s := 0; s < 4; s++ {
		vol := tensor.New(topo.M, 6)
		speed := tensor.New(topo.M, 6)
		for j := 0; j < topo.M; j++ {
			limit := topo.Net.Links[j].SpeedLimit
			for tt := 0; tt < 6; tt++ {
				q := rng.Float64() * 100
				vol.Set(q, j, tt)
				speed.Set(limit/(1+q/50), j, tt)
			}
		}
		samples = append(samples, Sample{Volume: vol, Speed: speed})
	}
	hist, err := m.TrainV2SCtx(context.Background(), samples, 25)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0]*0.5 {
		t.Fatalf("V2S loss did not halve: %v -> %v", hist[0], hist[len(hist)-1])
	}
	// The learned map must be congestion-monotone on average: heavy volume
	// gives slower prediction than light volume.
	light := m.PredictSpeed(tensor.Full(2, topo.M, 6))
	heavy := m.PredictSpeed(tensor.Full(95, topo.M, 6))
	if heavy.Mean() >= light.Mean() {
		t.Fatalf("learned V2S not congestion-monotone: light=%v heavy=%v", light.Mean(), heavy.Mean())
	}
}

func TestTrainErrorsWithoutSamples(t *testing.T) {
	topo := testTopo(t, 4, 1)
	m := NewModel(topo, DefaultConfig())
	if _, err := m.TrainV2SCtx(context.Background(), nil, 1); err == nil {
		t.Fatal("TrainV2S with no samples did not error")
	}
	if _, err := m.TrainT2VCtx(context.Background(), nil, 1); err == nil {
		t.Fatal("TrainT2V with no samples did not error")
	}
}

func TestFitValidatesShape(t *testing.T) {
	topo := testTopo(t, 4, 1)
	m := NewModel(topo, DefaultConfig())
	if _, _, err := m.FitBestCtx(context.Background(), tensor.New(3, 3), 1, 1, nil); err == nil {
		t.Fatal("Fit with wrong observation shape did not error")
	}
}

func TestFitReducesSpeedLoss(t *testing.T) {
	topo := testTopo(t, 6, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	m := NewModel(topo, cfg)
	// Target: the speed the untrained chain produces for some hidden TOD.
	hidden := tensor.Full(30, 4, 6)
	_, speedObs := m.Forward(hidden)
	_, hist, err := m.FitBestCtx(context.Background(), speedObs, 40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("fit loss did not decrease: %v -> %v", hist[0], hist[len(hist)-1])
	}
}

func TestAuxCensusPullsDailySums(t *testing.T) {
	topo := testTopo(t, 6, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	m := NewModel(topo, cfg)
	// Observation from a hidden TOD; census gives exact daily sums.
	hidden := tensor.Full(20, 4, 6)
	_, speedObs := m.Forward(hidden)
	census := make([]float64, 4)
	for i := range census {
		census[i] = hidden.Row(i).Sum() // 120
	}
	aux := &AuxData{CensusSum: census, CensusWeight: 20}
	recAux, _, err := m.FitBestCtx(context.Background(), speedObs, 60, 1, aux)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(topo, cfg)
	recPlain, _, err := m2.FitBestCtx(context.Background(), speedObs, 60, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	devAux, devPlain := 0.0, 0.0
	for i := 0; i < 4; i++ {
		devAux += math.Abs(recAux.Row(i).Sum() - census[i])
		devPlain += math.Abs(recPlain.Row(i).Sum() - census[i])
	}
	if devAux >= devPlain {
		t.Fatalf("census constraint did not pull daily sums: aux dev %v vs plain %v", devAux, devPlain)
	}
}

func TestAuxLossValidation(t *testing.T) {
	topo := testTopo(t, 4, 1)
	m := NewModel(topo, DefaultConfig())
	hidden := tensor.Full(10, 4, 4)
	_, speedObs := m.Forward(hidden)
	if _, _, err := m.FitBestCtx(context.Background(), speedObs, 1, 1, &AuxData{CensusSum: []float64{1, 2}, CensusWeight: 1}); err == nil {
		t.Fatal("census length mismatch did not error")
	}
}

// TestFitRejectsMalformedInputs pins the fit entry points' input contract:
// every malformed observation or auxiliary term is rejected with an error —
// never a panic deep in graph construction, never a silently NaN TOD — on
// both Model.FitBestCtx and Checkpointer.FitBest, single-start and
// multi-restart. A well-formed input with every term active is the control.
func TestFitRejectsMalformedInputs(t *testing.T) {
	topo := testTopo(t, 4, 1)
	n, links, steps := topo.N, topo.M, topo.T
	cfg := ckptTestConfig(1, 1)
	obs := fitObs(NewModel(topo, cfg), 12)

	nanObs := obs.Clone()
	nanObs.Data[3] = math.NaN()
	valid := func() *AuxData {
		return &AuxData{
			CensusSum:    make([]float64, n),
			CensusWeight: 1,
			CameraLinks:  []int{0, links - 1},
			CameraVolume: tensor.New(2, steps),
			CameraWeight: 1,
			TrajODIdx:    []int{0, n - 1},
			TrajG:        tensor.New(2, steps),
			TrajWeight:   1,
			LinkWeights:  make([]float64, links),
		}
	}
	with := func(edit func(a *AuxData)) *AuxData {
		a := valid()
		edit(a)
		return a
	}

	cases := []struct {
		name string
		obs  *tensor.Tensor
		aux  *AuxData
	}{
		{"nil observation", nil, nil},
		{"observation shape", tensor.New(3, 3), nil},
		{"observation NaN", nanObs, nil},
		{"census length", obs, with(func(a *AuxData) { a.CensusSum = []float64{1, 2} })},
		{"census NaN", obs, with(func(a *AuxData) { a.CensusSum[1] = math.NaN() })},
		{"link weights length", obs, with(func(a *AuxData) { a.LinkWeights = make([]float64, links+1) })},
		{"link weight Inf", obs, with(func(a *AuxData) { a.LinkWeights[0] = math.Inf(1) })},
		{"link weight negative", obs, with(func(a *AuxData) { a.LinkWeights[2] = -0.5 })},
		{"link weight -Inf", obs, with(func(a *AuxData) { a.LinkWeights[links-1] = math.Inf(-1) })},
		{"camera link out of range", obs, with(func(a *AuxData) { a.CameraLinks[1] = links + 5 })},
		{"camera link negative", obs, with(func(a *AuxData) { a.CameraLinks[0] = -1 })},
		{"camera volume shape", obs, with(func(a *AuxData) { a.CameraVolume = tensor.New(3, steps) })},
		{"camera volume missing", obs, with(func(a *AuxData) { a.CameraVolume = nil })},
		{"camera volume NaN", obs, with(func(a *AuxData) { a.CameraVolume.Data[0] = math.NaN() })},
		{"trajectory OD negative", obs, with(func(a *AuxData) { a.TrajODIdx[0] = -1 })},
		{"trajectory OD out of range", obs, with(func(a *AuxData) { a.TrajODIdx[1] = n })},
		{"trajectory TOD shape", obs, with(func(a *AuxData) { a.TrajG = tensor.New(2, steps+1) })},
	}

	fits := []struct {
		name string
		fit  func(obs *tensor.Tensor, restarts int, aux *AuxData) (*tensor.Tensor, error)
	}{
		{"Model.FitBestCtx", func(obs *tensor.Tensor, restarts int, aux *AuxData) (*tensor.Tensor, error) {
			rec, _, err := NewModel(topo, cfg).FitBestCtx(context.Background(), obs, 2, restarts, aux)
			return rec, err
		}},
		{"Checkpointer.FitBest", func(obs *tensor.Tensor, restarts int, aux *AuxData) (*tensor.Tensor, error) {
			c, err := NewCheckpointer(NewModel(topo, cfg), CkptOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := c.FitBest(context.Background(), obs, 2, restarts, aux)
			return rec, err
		}},
	}

	for _, f := range fits {
		for _, restarts := range []int{1, 3} {
			rec, err := f.fit(obs, restarts, valid())
			if err != nil {
				t.Fatalf("%s restarts=%d: well-formed input rejected: %v", f.name, restarts, err)
			}
			if err := checkFinite("recovered TOD", rec.Data); err != nil {
				t.Fatalf("%s restarts=%d: %v", f.name, restarts, err)
			}
			for _, tc := range cases {
				if _, err := f.fit(tc.obs, restarts, tc.aux); err == nil {
					t.Errorf("%s restarts=%d: %s accepted", f.name, restarts, tc.name)
				}
			}
		}
	}
}

// TestTrainRejectsMalformedSamples pins the training entry points' sample
// contract: an empty sample slice, or a sample whose G (N×T), Volume or
// Speed (M×T) is nil, misshaped — including a right-sized volume of the
// wrong shape, which a reshape would otherwise pass silently — or
// non-finite, is rejected with an error before any epoch runs. TrainV2SCtx
// never reads G, so only the G-reading entry points must reject a bad one.
// Well-formed samples are the control.
func TestTrainRejectsMalformedSamples(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := ckptTestConfig(1, 1)
	good := poolingSamples(topo, 2)

	with := func(edit func(s *Sample)) []Sample {
		out := make([]Sample, len(good))
		for i, s := range good {
			out[i] = Sample{G: s.G.Clone(), Volume: s.Volume.Clone(), Speed: s.Speed.Clone()}
		}
		edit(&out[1])
		return out
	}
	nan := math.NaN()
	cases := []struct {
		name    string
		samples []Sample
		readsG  bool // only the G-reading entry points must reject it
	}{
		{"no samples", nil, false},
		{"nil volume", with(func(s *Sample) { s.Volume = nil }), false},
		{"volume transposed", with(func(s *Sample) { s.Volume = tensor.New(topo.T, topo.M) }), false},
		{"volume rank 1", with(func(s *Sample) { s.Volume = tensor.New(topo.M * topo.T) }), false},
		{"volume NaN", with(func(s *Sample) { s.Volume.Data[5] = nan }), false},
		{"nil speed", with(func(s *Sample) { s.Speed = nil }), false},
		{"speed shape", with(func(s *Sample) { s.Speed = tensor.New(topo.M, topo.T+1) }), false},
		{"speed Inf", with(func(s *Sample) { s.Speed.Data[0] = math.Inf(-1) }), false},
		{"nil G", with(func(s *Sample) { s.G = nil }), true},
		{"G shape", with(func(s *Sample) { s.G = tensor.New(topo.N+1, topo.T) }), true},
		{"G NaN", with(func(s *Sample) { s.G.Data[2] = nan }), true},
	}

	obs := fitObs(NewModel(topo, cfg), 12)
	entries := []struct {
		name   string
		readsG bool
		train  func(m *Model, samples []Sample) error
	}{
		{"Model.TrainV2SCtx", false, func(m *Model, samples []Sample) error {
			_, err := m.TrainV2SCtx(context.Background(), samples, 1)
			return err
		}},
		{"Model.TrainT2VCtx", true, func(m *Model, samples []Sample) error {
			_, err := m.TrainT2VCtx(context.Background(), samples, 1)
			return err
		}},
		{"Model.TrainFullCtx", true, func(m *Model, samples []Sample) error {
			_, err := m.TrainFullCtx(context.Background(), samples, obs, 1, 1, 1, nil)
			return err
		}},
		{"Checkpointer.TrainMappings", true, func(m *Model, samples []Sample) error {
			c, err := NewCheckpointer(m, CkptOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = c.TrainMappings(context.Background(), samples, 1, 1)
			return err
		}},
		{"Checkpointer.TrainFull", true, func(m *Model, samples []Sample) error {
			c, err := NewCheckpointer(m, CkptOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.TrainFull(context.Background(), samples, obs, 1, 1, 1, nil)
			return err
		}},
	}

	for _, e := range entries {
		if err := e.train(NewModel(topo, cfg), good); err != nil {
			t.Fatalf("%s: well-formed samples rejected: %v", e.name, err)
		}
		for _, tc := range cases {
			if tc.readsG && !e.readsG {
				continue
			}
			m := NewModel(topo, cfg)
			before := cloneTensors(paramValues(m))
			if err := e.train(m, tc.samples); err == nil {
				t.Errorf("%s: %s accepted", e.name, tc.name)
				continue
			}
			for i, v := range paramValues(m) {
				if !tensor.AllClose(v, before[i], 0) {
					t.Errorf("%s: %s trained before it was rejected", e.name, tc.name)
					break
				}
			}
		}
	}
	// A checkpointed full run also validates its fit inputs before training.
	c, err := NewCheckpointer(NewModel(topo, cfg), CkptOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainFull(context.Background(), good, tensor.New(2, 2), 1, 1, 1, nil); err == nil {
		t.Error("Checkpointer.TrainFull: misshaped observation accepted")
	}
}

// paramValues lists the value tensors of every model parameter.
func paramValues(m *Model) []*tensor.Tensor {
	var vs []*tensor.Tensor
	for _, p := range m.Params() {
		vs = append(vs, p.Value)
	}
	return vs
}

func TestAblationVariants(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	for _, ab := range []Ablation{AblateNone, AblateTODGen, AblateT2V, AblateV2S} {
		m := NewAblatedModel(topo, cfg, ab)
		tod := m.GenerateTOD()
		if tod.Dim(0) != 4 || tod.Dim(1) != 4 {
			t.Fatalf("%v: TOD shape %v", ab, tod.Shape())
		}
		vol, speed := m.Forward(tod)
		if vol.Dim(0) != topo.M || speed.Dim(0) != topo.M {
			t.Fatalf("%v: output link dims wrong", ab)
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%v: no parameters", ab)
		}
	}
	names := map[Ablation]string{
		AblateNone: "OVS", AblateTODGen: "OVS - TOD", AblateT2V: "OVS - TOD2V", AblateV2S: "OVS - V2S",
	}
	for ab, want := range names {
		if ab.String() != want {
			t.Fatalf("String(%d) = %q", ab, ab.String())
		}
	}
}

func TestPaperConfigValues(t *testing.T) {
	c := PaperConfig()
	if c.LSTMHidden != 128 || c.V2SFC != 32 || c.LR != 0.001 || c.DropoutRate != 0.3 {
		t.Fatalf("PaperConfig does not match Tables IV/V: %+v", c)
	}
	if c.VolumeLossWeight != 0 {
		t.Fatal("PaperConfig must use speed-only stage-2 supervision")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	d := c.withDefaults()
	if d.Hidden != 16 || d.Lookback <= 0 || d.MaxTrips <= 0 {
		t.Fatalf("withDefaults incomplete: %+v", d)
	}
}

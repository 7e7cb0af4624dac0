package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// allLinksV2S is the reference frozen Volume-Speed mapping of T2V training
// and the test-time fit: the same LSTMV2S, but OnLinks returns nil, so every
// epoch runs MapSpeed over every link, as both stages did before they ran
// the stack on the live links only. The live-link path must reproduce its
// losses, weights and recovered TOD bit for bit
// (TestLiveLinksMatchAllLinksOracle).
type allLinksV2S struct{ *LSTMV2S }

// OnLinks returns nil: the oracle maps every link.
func (allLinksV2S) OnLinks([]int) V2SModule { return nil }

// gridTopo builds a topology with k route slots per OD on a rows×cols grid
// whose links differ in length, lanes, speed limit and capacity, so that a
// link's static features and speed limit tell it from its neighbours.
func gridTopo(t *testing.T, rows, cols int, pairs [][2]int, intervals, k int) *Topology {
	t.Helper()
	net := roadnet.Grid(roadnet.GridConfig{Rows: rows, Cols: cols})
	for j := range net.Links {
		l := &net.Links[j]
		l.Length *= 1 + 0.1*float64(j%7)
		l.Lanes = 1 + j%3
		l.SpeedLimit = 9 + float64(j%5)
		l.Capacity = 0.4 * float64(l.Lanes)
	}
	topo, err := NewTopology(net, pairs, intervals, k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// liveLinksAux sets every auxiliary term, with cameras on a live and (if
// there is one) a dead link, and link weights that differ per link, one of
// them zero.
func liveLinksAux(m *Model) *AuxData {
	topo := m.Topo
	live := m.T2V.LiveLinks()
	cams := []int{live[len(live)-1]}
	for j := 0; j < topo.M; j++ {
		if len(topo.linkRoutes[j]) == 0 {
			cams = append(cams, j)
			break
		}
	}
	camVol := tensor.New(len(cams), topo.T)
	for i := range camVol.Data {
		camVol.Data[i] = float64(7 + 3*i)
	}
	weights := make([]float64, topo.M)
	for j := range weights {
		weights[j] = float64(j%4) * 0.5
	}
	census := make([]float64, topo.N)
	for i := range census {
		census[i] = float64(20 + 5*i)
	}
	traj := tensor.New(1, topo.T)
	traj.Fill(6)
	return &AuxData{
		CensusSum: census, CensusWeight: 0.5,
		CameraLinks: cams, CameraVolume: camVol, CameraWeight: 0.7,
		TrajODIdx: []int{0}, TrajG: traj, TrajWeight: 0.3,
		LinkWeights: weights,
	}
}

// liveLinksRun trains both mappings briefly and then fits two restarts,
// returning the T2V loss history, the T2V weights, the fit's loss history
// and the recovered TOD.
func liveLinksRun(t *testing.T, m *Model, samples []Sample, obs *tensor.Tensor, aux bool) (t2vHist []float64, t2v []*tensor.Tensor, fitHist []float64, tod *tensor.Tensor) {
	t.Helper()
	ctx := context.Background()
	if _, err := m.TrainV2SCtx(ctx, samples, 2); err != nil {
		t.Fatal(err)
	}
	t2vHist, err := m.TrainT2VCtx(ctx, samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.T2V.Params() {
		t2v = append(t2v, p.Value.Clone())
	}
	var a *AuxData
	if aux {
		a = liveLinksAux(m)
	}
	tod, fitHist, err = m.FitBestCtx(ctx, obs, 4, 2, a)
	if err != nil {
		t.Fatal(err)
	}
	return t2vHist, t2v, fitHist, tod
}

// TestLiveLinksMatchAllLinksOracle: T2V training and the test-time fit run
// the frozen V2S stack on the live links only, and must give the loss
// histories, T2V weights and recovered TOD of the all-links oracle bit for
// bit. It runs on topologies with uncovered links, with one and two routes
// per OD (where the live path must actually be taken), and on one whose
// every link is covered, for the full
// model and the FC generator ablation (which keeps the attention T2V and the
// LSTM V2S), with a plain and a robust fit loss, with and without every
// auxiliary term, and with dropout on in T2V training.
func TestLiveLinksMatchAllLinksOracle(t *testing.T) {
	topos := []struct {
		name    string
		topo    *Topology
		covered bool
	}{
		{"uncovered", gridTopo(t, 2, 3, [][2]int{{0, 5}, {5, 0}, {2, 3}, {3, 2}}, 4, 1), false},
		{"uncovered-k2", gridTopo(t, 3, 3, [][2]int{{0, 8}, {8, 0}, {2, 6}}, 4, 2), false},
		// A 1×3 line whose two ODs, end to end both ways, pass over all four
		// of its links.
		{"covered", gridTopo(t, 1, 3, [][2]int{{0, 2}, {2, 0}}, 4, 1), true},
	}
	for _, tp := range topos {
		live := NewModel(tp.topo, DefaultConfig()).T2V.LiveLinks()
		if covered := len(live) == tp.topo.M; covered != tp.covered {
			t.Fatalf("%s: %d of %d links live", tp.name, len(live), tp.topo.M)
		}
		samples := poolingSamples(tp.topo, 3)
		for _, ab := range []Ablation{AblateNone, AblateTODGen} {
			for _, delta := range []float64{0, 2} {
				for _, aux := range []bool{false, true} {
					label := fmt.Sprintf("%s/%v/delta=%v/aux=%v", tp.name, ab, delta, aux)
					cfg := DefaultConfig()
					cfg.MaxTrips = 50
					cfg.Seed = 37
					cfg.Workers = 2
					cfg.DropoutRate = 0.2
					cfg.RobustDelta = delta
					m := NewAblatedModel(tp.topo, cfg, ab)
					oracle := NewAblatedModel(tp.topo, cfg, ab)
					oracle.V2S = allLinksV2S{oracle.V2S.(*LSTMV2S)}
					if got := m.frozenV2S().live != nil; got == tp.covered {
						t.Fatalf("%s: live-link path taken = %v", label, got)
					}
					obs := fitObs(m, 12)
					hist, t2v, fitHist, tod := liveLinksRun(t, m, samples, obs, aux)
					oHist, oT2V, oFitHist, oTOD := liveLinksRun(t, oracle, samples, obs, aux)
					requireBitsEqual(t, label+" T2V loss history", hist, oHist)
					for i := range t2v {
						requireBitsEqual(t, fmt.Sprintf("%s T2V param %d", label, i), t2v[i].Data, oT2V[i].Data)
					}
					requireBitsEqual(t, label+" fit loss history", fitHist, oFitHist)
					requireBitsEqual(t, label+" TOD", tod.Data, oTOD.Data)
				}
			}
		}
	}
}

// TestFrozenSpeedMatchesMapSpeed: on the live-link path, the rebuilt speeds
// of every link, live and dead, equal the all-links MapSpeed bit for bit,
// with a zero volume on the dead links as AttentionT2V gives them.
func TestFrozenSpeedMatchesMapSpeed(t *testing.T) {
	topo := gridTopo(t, 3, 3, [][2]int{{0, 8}, {8, 0}, {2, 6}}, 5, 1)
	m := NewModel(topo, DefaultConfig())
	f := m.frozenV2S()
	if f.live == nil {
		t.Fatal("live-link path not taken")
	}
	vol := tensor.New(topo.M, topo.T)
	for _, j := range f.links {
		for s := 0; s < topo.T; s++ {
			vol.Set(float64(3*j+11*s), j, s)
		}
	}
	want := m.PredictSpeed(vol)
	g := autodiff.NewGraph()
	defer g.Release()
	got := f.mapSpeed(g, g.Const(vol))
	requireBitsEqual(t, "speed", got.Value.Data, want.Data)
}

// TestFCAblationsFit: the FC TOD-Volume and Volume-Speed ablations, whose
// links interact, keep the all-links path, and still train and fit to a
// finite TOD with a falling fit loss.
func TestFCAblationsFit(t *testing.T) {
	topo := testTopo(t, 4, 1)
	samples := poolingSamples(topo, 3)
	ctx := context.Background()
	for _, ab := range []Ablation{AblateT2V, AblateV2S} {
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 5
		m := NewAblatedModel(topo, cfg, ab)
		if m.frozenV2S().live != nil {
			t.Fatalf("%v: took the live-link path", ab)
		}
		if _, err := m.TrainV2SCtx(ctx, samples, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainT2VCtx(ctx, samples, 2); err != nil {
			t.Fatal(err)
		}
		tod, hist, err := m.FitBestCtx(ctx, fitObs(m, 12), 30, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tod.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: TOD entry %d is %v", ab, i, v)
			}
		}
		if !(hist[len(hist)-1] < hist[0]) {
			t.Fatalf("%v: fit loss %v → %v, want it to fall", ab, hist[0], hist[len(hist)-1])
		}
	}
}

// perDeadLinkOracle makes m the reference for the dead-link speed rows:
// its topology is swapped for a copy in which every link's four features
// and speed limit all read its own ID, so that a class key made of any of
// them tells every link apart and frozenV2S runs one zero-volume row per
// dead link, as it did before links were grouped into classes. The V2S
// module copied the real static features and speed limits when it was
// built, so only the grouping changes.
func perDeadLinkOracle(m *Model) {
	topo := *m.Topo
	topo.linkFeatures = tensor.New(topo.M, 4)
	topo.speedLimits = make([]float64, topo.M)
	for j := range topo.speedLimits {
		for f := 0; f < 4; f++ {
			topo.linkFeatures.Data[j*4+f] = float64(j)
		}
		topo.speedLimits[j] = float64(j)
	}
	m.Topo = &topo
}

// deadLinksOf lists, ascending, the links no route covers.
func deadLinksOf(topo *Topology) []int {
	var dead []int
	for j, inc := range topo.linkRoutes {
		if len(inc) == 0 {
			dead = append(dead, j)
		}
	}
	return dead
}

// TestLinkClassesMatchPerDeadLinkOracle: frozenV2S maps one dead link per
// class of bitwise-equal static features and speed limit and copies its row
// to the other members; T2V training and the test-time fit must give the
// loss histories, T2V weights and recovered TOD of the per-dead-link pass
// bit for bit, and every dead row must be that link's row of the all-links
// MapSpeed on zero volume. The topologies start from a uniform 3×3 grid,
// where every link is one class, and edit the features and limits by hand
// before the model copies them: every dead link its own class, several
// classes shared by several links, and a pair of links that differ only in
// the speed limit or only in one of the four static features.
func TestLinkClassesMatchPerDeadLinkOracle(t *testing.T) {
	type edit func(dead []int, feats func(j int) []float64, limits []float64)
	// pair makes the second dead link differ from the others in static
	// feature f alone, or in the speed limit alone when f is 4.
	pair := func(f int) edit {
		return func(dead []int, feats func(int) []float64, limits []float64) {
			if f == 4 {
				limits[dead[1]] += 2
				return
			}
			feats(dead[1])[f] *= 0.75
		}
	}
	cases := []struct {
		name    string
		edit    edit
		classes func(dead int) int // the wanted class count of the dead links
	}{
		{"own-class", func(dead []int, feats func(int) []float64, _ []float64) {
			for i, j := range dead {
				feats(j)[0] = 0.5 + 0.01*float64(i)
			}
		}, func(dead int) int { return dead }},
		{"mixed", func(dead []int, feats func(int) []float64, limits []float64) {
			for i, j := range dead {
				feats(j)[1] = float64(1+i%3) / 3
				limits[j] = float64(10 + i%2)
			}
		}, func(int) int { return 6 }},
		{"limit-only", pair(4), func(int) int { return 2 }},
		{"length-only", pair(0), func(int) int { return 2 }},
		{"lanes-only", pair(1), func(int) int { return 2 }},
		{"limit-feature-only", pair(2), func(int) int { return 2 }},
		{"capacity-only", pair(3), func(int) int { return 2 }},
	}
	for _, tc := range cases {
		topo, err := NewTopology(roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 3}), [][2]int{{0, 8}, {8, 0}, {2, 6}}, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		dead := deadLinksOf(topo)
		tc.edit(dead, func(j int) []float64 { return topo.linkFeatures.Data[j*4 : (j+1)*4] }, topo.speedLimits)
		reps, class := topo.linkClasses(dead)
		if want := tc.classes(len(dead)); len(reps) != want {
			t.Fatalf("%s: %d dead links in %d classes, want %d", tc.name, len(dead), len(reps), want)
		}
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 37
		cfg.Workers = 2
		cfg.DropoutRate = 0.2
		m := NewModel(topo, cfg)
		oracle := NewModel(topo, cfg)
		perDeadLinkOracle(oracle)
		samples := poolingSamples(topo, 3)
		obs := fitObs(m, 12)
		hist, t2v, fitHist, tod := liveLinksRun(t, m, samples, obs, false)
		oHist, oT2V, oFitHist, oTOD := liveLinksRun(t, oracle, samples, obs, false)
		requireBitsEqual(t, tc.name+" T2V loss history", hist, oHist)
		for i := range t2v {
			requireBitsEqual(t, fmt.Sprintf("%s T2V param %d", tc.name, i), t2v[i].Data, oT2V[i].Data)
		}
		requireBitsEqual(t, tc.name+" fit loss history", fitHist, oFitHist)
		requireBitsEqual(t, tc.name+" TOD", tod.Data, oTOD.Data)
		// Under the trained weights, each dead row must also be that link's
		// row of the all-links MapSpeed on zero volume, and links of two
		// classes must get two rows, or the case would show nothing.
		got, want := m.frozenV2S().dead, m.PredictSpeed(tensor.New(topo.M, topo.T))
		row := func(j int) []float64 { return want.Data[j*topo.T : (j+1)*topo.T] }
		for _, j := range dead {
			requireBitsEqual(t, fmt.Sprintf("%s dead link %d speed", tc.name, j), got.Data[j*topo.T:(j+1)*topo.T], row(j))
		}
		for a := range dead {
			for b := range a {
				if class[a] != class[b] && bitsEqual(row(dead[a]), row(dead[b])) {
					t.Fatalf("%s: dead links %d and %d differ in class but not in speed", tc.name, dead[b], dead[a])
				}
			}
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/nn"
	"ovs/internal/parallel"
	"ovs/internal/tensor"
)

// TrainV2SCtx runs stage 1 of the Fig. 8 pipeline: fit the Volume-Speed
// mapping on generated (volume, speed) pairs. It returns the per-epoch mean
// loss curve. ctx is observed only at epoch boundaries, so the epochs
// completed before a cancelled return are bitwise-identical to an
// uncancelled run's prefix; a cancelled call returns the partial history
// with the context's cancellation cause.
func (m *Model) TrainV2SCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainV2S(ctx, samples, nn.Loop{Opt: nn.NewAdam(m.Cfg.LR), Epochs: epochs})
}

// trainV2S is the resumable core of TrainV2SCtx: it runs l, whose epoch
// range, optimizer, history and hook the caller sets, on the stage's
// parameters and samples.
func (m *Model) trainV2S(ctx context.Context, samples []Sample, l nn.Loop) ([]float64, error) {
	if err := m.checkSamples("TrainV2SCtx", samples, false); err != nil {
		return nil, err
	}
	l.Params, l.Clip, l.Steps = m.V2S.Params(), m.Cfg.GradClip, len(samples)
	return nn.Train(ctx, l, func(g *autodiff.Graph, i int) *autodiff.Node {
		s := samples[i]
		return autodiff.MSE(m.V2S.MapSpeed(g, g.Const(s.Volume), true), s.Speed)
	})
}

// TrainT2VCtx runs stage 2: freeze Volume-Speed, fit TOD-Volume by passing
// generated TOD through both mappings and comparing against the generated
// speed (plus optional direct volume supervision weighted by
// Cfg.VolumeLossWeight; the paper's protocol corresponds to weight 0).
// Cancellation is observed at epoch boundaries (see TrainV2SCtx).
func (m *Model) TrainT2VCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainT2V(ctx, samples, nn.Loop{Opt: nn.NewAdam(m.Cfg.LR), Epochs: epochs})
}

// trainT2V is the resumable core of TrainT2VCtx (see trainV2S).
func (m *Model) trainT2V(ctx context.Context, samples []Sample, l nn.Loop) ([]float64, error) {
	if err := m.checkSamples("TrainT2VCtx", samples, true); err != nil {
		return nil, err
	}
	// Volume-Speed is frozen for the whole stage: it runs in inference mode,
	// its parameters are absent from the optimized set, and they must not
	// accumulate gradients.
	restore := freezeParams(m.V2S.Params())
	defer restore()
	v2s := m.frozenV2S()
	volNorm := 1.0 / m.Cfg.VolumeNorm
	l.Params, l.Clip, l.Steps = m.T2V.Params(), m.Cfg.GradClip, len(samples)
	return nn.Train(ctx, l, func(g *autodiff.Graph, i int) *autodiff.Node {
		s := samples[i]
		vol := m.T2V.MapVolume(g, g.Const(s.G), true)
		loss := autodiff.MSE(v2s.mapSpeed(g, vol), s.Speed)
		if m.Cfg.VolumeLossWeight > 0 {
			volLoss := autodiff.MSE(autodiff.Scale(vol, volNorm), tensor.ScaleTo(g.AllocLike(s.Volume), s.Volume, volNorm))
			loss = autodiff.Add(loss, autodiff.Scale(volLoss, m.Cfg.VolumeLossWeight))
		}
		return loss
	})
}

// AuxData bundles the auxiliary observations of §IV-E / Table II. Nil
// slices/tensors disable the corresponding term. Weights are the w_g, w_q
// of Eq. 13.
type AuxData struct {
	// CensusSum[i] is the LEHD-like horizon-total trip count of OD i.
	CensusSum    []float64
	CensusWeight float64

	// CameraLinks and CameraVolume give observed volumes on a sparse set of
	// links; CameraVolume is (len(CameraLinks) × T).
	CameraLinks  []int
	CameraVolume *tensor.Tensor
	CameraWeight float64

	// TrajODIdx and TrajG give fleet-scaled TOD observations on a sparse set
	// of OD pairs; TrajG is (len(TrajODIdx) × T).
	TrajODIdx  []int
	TrajG      *tensor.Tensor
	TrajWeight float64

	// LinkWeights, when non-nil (length M), weights each link's contribution
	// to the main speed loss. Setting a link to 0 excludes it — the RQ3
	// mechanism for links whose physics changed after training (road work):
	// such links are detectable from data because their maximum observed
	// speed sits far below the speed limit even in empty intervals. Weights
	// must be finite and non-negative: a negative weight would turn that
	// link's squared error into a reward and leave the loss unbounded below.
	LinkWeights []float64
}

// checkFitInputs validates the observation and every active auxiliary term
// against the topology once, at the fit entry points: shapes, lengths and
// index ranges must match, and every value must be finite. Malformed inputs
// would otherwise panic deep inside graph construction or silently fit a
// NaN TOD.
func (m *Model) checkFitInputs(speedObs *tensor.Tensor, aux *AuxData) error {
	n, links, t := m.Topo.N, m.Topo.M, m.Topo.T
	if err := checkMatrix("Fit observation", speedObs, links, t); err != nil {
		return err
	}
	if aux == nil {
		return nil
	}
	if aux.LinkWeights != nil {
		if len(aux.LinkWeights) != links {
			return fmt.Errorf("core: %d link weights for %d links", len(aux.LinkWeights), links)
		}
		if err := checkFinite("link weight", aux.LinkWeights); err != nil {
			return err
		}
		for j, w := range aux.LinkWeights {
			if w < 0 {
				return fmt.Errorf("core: link weight %d is %v, want >= 0", j, w)
			}
		}
	}
	if len(aux.CensusSum) > 0 && aux.CensusWeight > 0 {
		if len(aux.CensusSum) != n {
			return fmt.Errorf("core: census length %d, want N=%d", len(aux.CensusSum), n)
		}
		if err := checkFinite("census", aux.CensusSum); err != nil {
			return err
		}
	}
	if len(aux.CameraLinks) > 0 && aux.CameraWeight > 0 {
		if err := checkIndices("camera link", aux.CameraLinks, links); err != nil {
			return err
		}
		if err := checkMatrix("camera volume", aux.CameraVolume, len(aux.CameraLinks), t); err != nil {
			return err
		}
	}
	if len(aux.TrajODIdx) > 0 && aux.TrajWeight > 0 {
		if err := checkIndices("trajectory OD", aux.TrajODIdx, n); err != nil {
			return err
		}
		if err := checkMatrix("trajectory TOD", aux.TrajG, len(aux.TrajODIdx), t); err != nil {
			return err
		}
	}
	return nil
}

// checkSamples validates training samples against the topology before any
// epoch runs: there must be at least one, and every sample's Volume and
// Speed — and its G when the stage reads it — must be a finite tensor of
// the right shape. op names the caller in the error.
func (m *Model) checkSamples(op string, samples []Sample, needG bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("core: %s requires samples", op)
	}
	n, links, t := m.Topo.N, m.Topo.M, m.Topo.T
	for i, s := range samples {
		if needG {
			if err := checkMatrix(fmt.Sprintf("%s sample %d TOD", op, i), s.G, n, t); err != nil {
				return err
			}
		}
		if err := checkMatrix(fmt.Sprintf("%s sample %d volume", op, i), s.Volume, links, t); err != nil {
			return err
		}
		if err := checkMatrix(fmt.Sprintf("%s sample %d speed", op, i), s.Speed, links, t); err != nil {
			return err
		}
	}
	return nil
}

// checkMatrix requires x to be a finite rows × cols tensor.
func checkMatrix(what string, x *tensor.Tensor, rows, cols int) error {
	if x == nil {
		return fmt.Errorf("core: %s missing, want shape [%d %d]", what, rows, cols)
	}
	if x.Rank() != 2 || x.Dim(0) != rows || x.Dim(1) != cols {
		return fmt.Errorf("core: %s shape %v, want [%d %d]", what, x.Shape(), rows, cols)
	}
	return checkFinite(what, x.Data)
}

// checkFinite rejects NaN and ±Inf entries.
func checkFinite(what string, xs []float64) error {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: %s entry %d is %v", what, i, v)
		}
	}
	return nil
}

// checkIndices requires every index to lie in [0, n).
func checkIndices(what string, idx []int, n int) error {
	for i, j := range idx {
		if j < 0 || j >= n {
			return fmt.Errorf("core: %s index %d is %d, want [0, %d)", what, i, j, n)
		}
	}
	return nil
}

// frozenSpeed is the frozen Volume-Speed mapping of one T2V training or fit
// call. When the T2V module reaches only some links (its LiveLinks) and the
// V2S module maps links apart (OnLinks), the V2S stack runs on the live
// links alone. Every other link sees a volume of exactly +0 in every epoch,
// so its speed row is a constant of the frozen weights and of the link's
// static features and speed limit: one inference pass on zero volume, over
// one link of each class of bitwise-equal features and limit, computes
// those rows once per call, and each epoch adds them back. Otherwise (the
// FC ablations, or every link live) the module maps every link.
type frozenSpeed struct {
	all   V2SModule      // the module over every link
	live  V2SModule      // the module over the live links; nil: map every link
	links []int          // the live links, ascending
	segs  [][]int        // link j → {its row in links}, or empty if it is dead
	dead  *tensor.Tensor // (M × T) the dead links' speeds, +0 on live rows
}

// frozenV2S builds the frozen mapping from the model's current V2S weights;
// it must be rebuilt whenever they change.
func (m *Model) frozenV2S() *frozenSpeed {
	f := &frozenSpeed{all: m.V2S}
	links := m.T2V.LiveLinks()
	if len(links) == 0 || len(links) == m.Topo.M {
		return f
	}
	live := m.V2S.OnLinks(links)
	if live == nil {
		return f
	}
	f.live, f.links = live, links
	f.segs = make([][]int, m.Topo.M)
	rows := make([]int, len(links))
	for i, j := range links {
		rows[i] = i
		f.segs[j] = rows[i : i+1]
	}
	deadLinks := make([]int, 0, m.Topo.M-len(links))
	for j, seg := range f.segs {
		if seg == nil {
			deadLinks = append(deadLinks, j)
		}
	}
	// A dead link's row depends only on its static features and speed limit
	// (V2SModule.OnLinks), so one row per link class serves every member.
	reps, class := m.Topo.linkClasses(deadLinks)
	t := m.Topo.T
	g := autodiff.NewGraph()
	defer g.Release()
	speed := m.V2S.OnLinks(reps).MapSpeed(g, g.Const(g.Alloc(len(reps), t)), false)
	f.dead = tensor.New(m.Topo.M, t)
	for i, j := range deadLinks {
		c := class[i]
		copy(f.dead.Data[j*t:(j+1)*t], speed.Value.Data[c*t:(c+1)*t])
	}
	return f
}

// linkClasses groups links by the bit patterns of their static features and
// speed limit: reps lists the first link of each class in the order of
// links, and links[i] belongs to the class of reps[class[i]].
func (tp *Topology) linkClasses(links []int) (reps, class []int) {
	type key struct {
		feats [4]uint64
		limit uint64
	}
	ids := make(map[key]int)
	class = make([]int, len(links))
	for i, j := range links {
		var k key
		for f := range k.feats {
			k.feats[f] = math.Float64bits(tp.linkFeatures.Data[j*len(k.feats)+f])
		}
		k.limit = math.Float64bits(tp.speedLimits[j])
		c, ok := ids[k]
		if !ok {
			c = len(reps)
			ids[k] = c
			reps = append(reps, j)
		}
		class[i] = c
	}
	return reps, class
}

// mapSpeed maps volumes (M × T) to speeds (M × T) in inference mode. On the
// live-link path it gathers the live rows, maps them, and rebuilds the full
// tensor as scatter + dead: a live row adds +0 and a dead row adds to +0,
// which leaves every speed's bits unchanged (no speed is −0: the head is a
// sigmoid times a positive limit). The rebuilt tensor feeds the loss as the
// all-links speeds did, so the loss sums the same cells in the same order,
// and the scatter's backward reads only live rows, so no dead row's
// gradient reaches a parameter.
func (f *frozenSpeed) mapSpeed(g *autodiff.Graph, vol *autodiff.Node) *autodiff.Node {
	if f.live == nil {
		return f.all.MapSpeed(g, vol, false)
	}
	speed := f.live.MapSpeed(g, autodiff.GatherRows(vol, f.links), false)
	return autodiff.Add(autodiff.ScatterAddRows(speed, f.segs), g.Const(f.dead))
}

// fitGen optimizes one TOD generator against the observation. The frozen
// TOD-Volume and Volume-Speed modules are only read, so multiple fitGen
// calls on distinct generators may run concurrently (FitBestCtx restarts);
// callers must freeze those modules' parameters, build v2s from them and
// validate the inputs (checkFitInputs) first.
func (m *Model) fitGen(ctx context.Context, gen TODGenModule, v2s *frozenSpeed, speedObs *tensor.Tensor, epochs int, aux *AuxData) ([]float64, error) {
	var linkWeights []float64
	if aux != nil {
		linkWeights = aux.LinkWeights
	}
	loop := nn.Loop{Params: gen.Params(), Opt: nn.NewAdam(m.Cfg.LR), Clip: m.Cfg.GradClip, Steps: 1, Epochs: epochs}
	return nn.Train(ctx, loop, func(g *autodiff.Graph, _ int) *autodiff.Node {
		tod := gen.Generate(g)
		vol := m.T2V.MapVolume(g, tod, false)
		loss := m.fitLoss(g, v2s.mapSpeed(g, vol), speedObs, linkWeights)
		if m.Cfg.SmoothWeight > 0 {
			loss = autodiff.Add(loss, autodiff.Scale(m.smoothPenalty(g, tod), m.Cfg.SmoothWeight))
		}
		if aux != nil {
			loss = autodiff.Add(loss, m.auxLoss(g, tod, vol, aux))
		}
		return loss
	})
}

// freezeParams freezes every parameter that is not already frozen and
// returns a closure restoring the previous state. Nested freezes compose:
// the inner restore only unfreezes what the inner call froze.
func freezeParams(ps []*autodiff.Parameter) (restore func()) {
	var frozen []*autodiff.Parameter
	for _, p := range ps {
		if !p.Frozen() {
			p.SetFrozen(true)
			frozen = append(frozen, p)
		}
	}
	return func() {
		for _, p := range frozen {
			p.SetFrozen(false)
		}
	}
}

// fitLoss is the main observation term of the test-time fit: plain MSE by
// default, or a pseudo-Huber loss — δ²(√(1+(r/δ)²) − 1) — when RobustDelta
// is set, which bounds the influence of links whose physics changed after
// training (RQ3).
func (m *Model) fitLoss(g *autodiff.Graph, speed *autodiff.Node, speedObs *tensor.Tensor, linkWeights []float64) *autodiff.Node {
	var weights *tensor.Tensor
	if linkWeights != nil {
		weights = g.Alloc(m.Topo.M, m.Topo.T)
		for j, w := range linkWeights {
			for t := 0; t < m.Topo.T; t++ {
				weights.Set(w, j, t)
			}
		}
	}
	delta := m.Cfg.RobustDelta
	diff := autodiff.Sub(speed, g.Const(speedObs))
	var cell *autodiff.Node
	if delta <= 0 {
		cell = autodiff.Mul(diff, diff)
	} else {
		scaled := autodiff.Scale(diff, 1/delta)
		inner := autodiff.AddScalar(autodiff.Mul(scaled, scaled), 1)
		cell = autodiff.Scale(autodiff.AddScalar(autodiff.Sqrt(inner), -1), delta*delta)
	}
	if weights != nil {
		cell = autodiff.Mul(cell, g.Const(weights))
	}
	return autodiff.Mean(cell)
}

// smoothPenalty returns the mean squared successive-interval difference of
// the TOD tensor in MaxTrips-normalized units.
func (m *Model) smoothPenalty(g *autodiff.Graph, tod *autodiff.Node) *autodiff.Node {
	t := m.Topo.T
	if t < 2 {
		return g.Const(g.Alloc(1))
	}
	// Difference matrix D (T × T-1): (tod·D)[i,k] = tod[i,k+1] - tod[i,k].
	d := g.Alloc(t, t-1)
	for k := 0; k < t-1; k++ {
		d.Set(-1, k, k)
		d.Set(1, k+1, k)
	}
	diff := autodiff.MatMul(autodiff.Scale(tod, 1/m.Cfg.MaxTrips), g.Const(d))
	return autodiff.Mean(autodiff.Mul(diff, diff))
}

// auxLoss assembles the auxiliary terms of Eq. 13 on the current graph. The
// terms were validated by checkFitInputs.
func (m *Model) auxLoss(g *autodiff.Graph, tod, vol *autodiff.Node, aux *AuxData) *autodiff.Node {
	zero := g.Const(g.Alloc(1))
	total := zero

	// Census (TOD level, static): || Σ_t g_i - census_i ||² per OD,
	// normalized by MaxTrips² so weights are unit-comparable.
	if len(aux.CensusSum) > 0 && aux.CensusWeight > 0 {
		// Row sums of the TOD node: tod · 1_T.
		onesT := g.Alloc(m.Topo.T, 1)
		onesT.Fill(1)
		sums := autodiff.MatMul(tod, g.Const(onesT)) // (N × 1)
		norm := 1.0 / (m.Cfg.MaxTrips * float64(m.Topo.T))
		target := g.Alloc(m.Topo.N, 1)
		for i, c := range aux.CensusSum {
			target.Data[i] = c * norm
		}
		diff := autodiff.Sub(autodiff.Scale(sums, norm), g.Const(target))
		total = autodiff.Add(total, autodiff.Scale(autodiff.Mean(autodiff.Mul(diff, diff)), aux.CensusWeight))
	}

	// Cameras (volume level, dynamic): MSE on observed link rows.
	if len(aux.CameraLinks) > 0 && aux.CameraWeight > 0 {
		rows := make([]*autodiff.Node, len(aux.CameraLinks))
		for r, j := range aux.CameraLinks {
			rows[r] = autodiff.Row(vol, j)
		}
		pred := autodiff.Scale(autodiff.StackRows(rows), 1/m.Cfg.VolumeNorm)
		obs := tensor.ScaleTo(g.AllocLike(aux.CameraVolume), aux.CameraVolume, 1/m.Cfg.VolumeNorm)
		total = autodiff.Add(total, autodiff.Scale(autodiff.MSE(pred, obs), aux.CameraWeight))
	}

	// Trajectories (TOD level, dynamic): MSE on observed OD rows.
	if len(aux.TrajODIdx) > 0 && aux.TrajWeight > 0 {
		rows := make([]*autodiff.Node, len(aux.TrajODIdx))
		for r, i := range aux.TrajODIdx {
			rows[r] = autodiff.Row(tod, i)
		}
		pred := autodiff.Scale(autodiff.StackRows(rows), 1/m.Cfg.MaxTrips)
		obs := tensor.ScaleTo(g.AllocLike(aux.TrajG), aux.TrajG, 1/m.Cfg.MaxTrips)
		total = autodiff.Add(total, autodiff.Scale(autodiff.MSE(pred, obs), aux.TrajWeight))
	}
	return total
}

// speedScore re-evaluates the pure speed-observation loss of a fitted
// generator on a fresh graph — no smoothness or auxiliary terms. FitBestCtx
// compares restarts on this score: the final training loss mixes the
// regularizers and is a single noisy last-epoch value, so it can prefer a
// restart whose actual speed match is worse.
func (m *Model) speedScore(gen TODGenModule, v2s *frozenSpeed, speedObs *tensor.Tensor, aux *AuxData) float64 {
	g := autodiff.NewGraph()
	defer g.Release()
	tod := gen.Generate(g)
	vol := m.T2V.MapVolume(g, tod, false)
	speed := v2s.mapSpeed(g, vol)
	var linkWeights []float64
	if aux != nil {
		linkWeights = aux.LinkWeights
	}
	return m.fitLoss(g, speed, speedObs, linkWeights).Value.Data[0]
}

// FitBestCtx runs the test stage of the Fig. 8 pipeline: freeze TOD-Volume
// and Volume-Speed and optimize the TOD generator so the end-to-end speed
// matches the observation (Eq. 12), plus any auxiliary losses (Eq. 13). It
// returns the recovered TOD and the winning loss history; restarts <= 1 is
// the single-start fit.
//
// Every restart fits its own clone of the generator's entry state. Restart 0
// keeps the entry seeds; the others redraw their Gaussian seeds serially
// from a single root-derived rng, so the start set is identical at any
// worker count. The restarts run concurrently, bounded by Cfg.Workers. With
// more than one restart each restart re-evaluates its pure speed loss (see
// speedScore) on its own worker as soon as its fit ends, and the winner is
// the one with the lowest score, ties broken by the lowest restart index.
// Its generator state is installed into m.TODGen before returning, so
// m.GenerateTOD() and Model.Save afterwards agree exactly with the returned
// tensor.
//
// Cancellation is cooperative at restart and epoch boundaries: once ctx is
// cancelled no new restart starts, in-flight restarts abort at their next
// epoch boundary, and the call returns the context's cancellation cause
// with m.TODGen still at its entry state. Malformed observations or
// auxiliary data are rejected with an error before any fitting starts.
func (m *Model) FitBestCtx(ctx context.Context, speedObs *tensor.Tensor, epochs, restarts int, aux *AuxData) (*tensor.Tensor, []float64, error) {
	if err := m.checkFitInputs(speedObs, aux); err != nil {
		return nil, nil, err
	}
	return m.fitBest(ctx, speedObs, epochs, restarts, aux)
}

// fitBest is FitBestCtx after input validation. Every fit, single-start or
// not, runs on clones of the generator and copies the winner into m.TODGen
// only once every restart has finished, so a cancelled fit leaves the model
// at its entry state. Its only error is the context's cancellation cause.
func (m *Model) fitBest(ctx context.Context, speedObs *tensor.Tensor, epochs, restarts int, aux *AuxData) (*tensor.Tensor, []float64, error) {
	restore := freezeParams(append(m.T2V.Params(), m.V2S.Params()...))
	defer restore()
	restarts = max(restarts, 1)
	// Every restart fits its own deep copy; the shared T2V/V2S modules are
	// frozen, hence read-only and race-free. Restart 0 keeps the entry seeds;
	// the reseeds for the others are drawn serially here, so the start set is
	// identical at any worker count.
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 997))
	gens := make([]TODGenModule, restarts)
	for r := range gens {
		gens[r] = m.TODGen.CloneTODGen()
		if r > 0 {
			gens[r].Reseed(rng)
		}
	}
	// One frozen mapping serves every restart; its dead-link speeds are
	// only read.
	v2s := m.frozenV2S()
	hists := make([][]float64, restarts)
	scores := make([]float64, restarts)
	errs := make([]error, restarts)
	fns := make([]func(), restarts)
	for r := range fns {
		fns[r] = func() {
			// Each restart scores itself on its own worker, right after a
			// fit that ran to the end; a cancelled one is never scored.
			hists[r], errs[r] = m.fitGen(ctx, gens[r], v2s, speedObs, epochs, aux)
			if errs[r] == nil && restarts > 1 {
				scores[r] = m.speedScore(gens[r], v2s, speedObs, aux)
			}
		}
	}
	// RunCtx stops launching restarts once ctx is cancelled; a restart
	// cancelled mid-fit reports the cause through errs.
	if err := parallel.RunCtx(ctx, m.Cfg.Workers, fns...); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	// The winner is picked in restart order, so a tie goes to the lowest
	// index whatever order the restarts finished in.
	best := 0
	for r, score := range scores {
		if score < scores[best] {
			best = r
		}
	}
	copyStateTensors(m.TODGen.StateTensors(), gens[best].StateTensors())
	return m.GenerateTOD(), hists[best], nil
}

// copyStateTensors copies src's contents into dst element-wise. The lists
// must come from StateTensors of generators of the same concrete type.
func copyStateTensors(dst, src []*tensor.Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("core: state tensor count mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i].CopyDataFrom(src[i])
	}
}

// TrainFullCtx runs the complete Fig. 8 pipeline: stage-1 Volume-Speed
// training, stage-2 TOD-Volume training, then the test-time fit against the
// observed speed (with Cfg.FitRestarts restarts). It returns the recovered
// TOD. Each stage observes ctx at its epoch (or restart) boundaries, and a
// cancelled call returns the context's cancellation cause. The samples and
// the fit inputs are validated before the first epoch.
func (m *Model) TrainFullCtx(ctx context.Context, samples []Sample, speedObs *tensor.Tensor, v2sEpochs, t2vEpochs, fitEpochs int, aux *AuxData) (*tensor.Tensor, error) {
	if err := m.checkSamples("TrainFullCtx", samples, true); err != nil {
		return nil, err
	}
	if err := m.checkFitInputs(speedObs, aux); err != nil {
		return nil, err
	}
	if _, err := m.TrainV2SCtx(ctx, samples, v2sEpochs); err != nil {
		return nil, err
	}
	if _, err := m.TrainT2VCtx(ctx, samples, t2vEpochs); err != nil {
		return nil, err
	}
	tod, _, err := m.FitBestCtx(ctx, speedObs, fitEpochs, m.Cfg.FitRestarts, aux)
	return tod, err
}

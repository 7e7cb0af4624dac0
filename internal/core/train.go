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

// stageHook is called after every completed epoch of a resumable training
// stage with the number of epochs done so far, the loss history, the live
// optimizer, and whether the run's context was cancelled at this boundary.
// Returning an error aborts the stage; the error (typically ErrInterrupted)
// propagates to the caller with the partial history.
type stageHook func(done int, hist []float64, opt *nn.Adam, cancelled bool) error

// endEpoch is the single cancellation point of every training loop: it polls
// ctx once per completed epoch, hands the verdict to the optional hook (a
// checkpointing hook writes its final checkpoint and returns ErrInterrupted),
// and otherwise turns a cancellation into the context's cause.
func endEpoch(ctx context.Context, hook stageHook, done int, hist []float64, opt *nn.Adam) error {
	cancelled := ctx.Err() != nil
	if hook != nil {
		if err := hook(done, hist, opt, cancelled); err != nil {
			return err
		}
	}
	if cancelled {
		return context.Cause(ctx)
	}
	return nil
}

// TrainV2SCtx runs stage 1 of the Fig. 8 pipeline: fit the Volume-Speed
// mapping on generated (volume, speed) pairs. It returns the per-epoch mean
// loss curve. ctx is observed only at epoch boundaries, so the epochs
// completed before a cancelled return are bitwise-identical to an
// uncancelled run's prefix; a cancelled call returns the partial history
// with the context's cancellation cause.
func (m *Model) TrainV2SCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainV2S(ctx, samples, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), nil)
}

// trainV2S is the resumable core of TrainV2SCtx: it continues from start
// completed epochs with the given optimizer and accumulated history.
func (m *Model) trainV2S(ctx context.Context, samples []Sample, epochs, start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
	if err := m.checkSamples("TrainV2SCtx", samples, false); err != nil {
		return nil, err
	}
	params := m.V2S.Params()
	history := hist
	// One recycled graph serves every sample of every epoch: Reset returns
	// the previous tape's tensors to the arena before each forward pass.
	g := autodiff.NewGraph()
	defer g.Release()
	for e := start; e < epochs; e++ {
		total := 0.0
		for _, s := range samples {
			g.Reset()
			pred := m.V2S.MapSpeed(g, g.Const(s.Volume), true)
			loss := autodiff.MSE(pred, s.Speed)
			total += loss.Value.Data[0]
			g.Backward(loss)
			if m.Cfg.GradClip > 0 {
				nn.ClipGrads(params, m.Cfg.GradClip)
			}
			opt.Step(params)
			nn.ZeroGrads(params)
		}
		history = append(history, total/float64(len(samples)))
		if err := endEpoch(ctx, hook, e+1, history, opt); err != nil {
			return history, err
		}
	}
	return history, nil
}

// TrainT2VCtx runs stage 2: freeze Volume-Speed, fit TOD-Volume by passing
// generated TOD through both mappings and comparing against the generated
// speed (plus optional direct volume supervision weighted by
// Cfg.VolumeLossWeight; the paper's protocol corresponds to weight 0).
// Cancellation is observed at epoch boundaries (see TrainV2SCtx).
func (m *Model) TrainT2VCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainT2V(ctx, samples, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), nil)
}

// trainT2V is the resumable core of TrainT2VCtx (see trainV2S).
func (m *Model) trainT2V(ctx context.Context, samples []Sample, epochs, start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
	if err := m.checkSamples("TrainT2VCtx", samples, true); err != nil {
		return nil, err
	}
	// Volume-Speed is frozen for the whole stage: its parameters are read
	// concurrently by parallel graph construction and must not accumulate
	// gradients.
	restore := freezeParams(m.V2S.Params())
	defer restore()
	params := m.T2V.Params()
	history := hist
	volNorm := 1.0 / m.Cfg.VolumeNorm
	g := autodiff.NewGraph()
	defer g.Release()
	for e := start; e < epochs; e++ {
		total := 0.0
		for _, s := range samples {
			g.Reset()
			vol := m.T2V.MapVolume(g, g.Const(s.G), true)
			// Volume-Speed runs in frozen inference mode: its parameters are
			// simply absent from the optimized set.
			speed := m.V2S.MapSpeed(g, vol, false)
			loss := autodiff.MSE(speed, s.Speed)
			if m.Cfg.VolumeLossWeight > 0 {
				volLoss := autodiff.MSE(autodiff.Scale(vol, volNorm), tensor.ScaleTo(g.AllocLike(s.Volume), s.Volume, volNorm))
				loss = autodiff.Add(loss, autodiff.Scale(volLoss, m.Cfg.VolumeLossWeight))
			}
			total += loss.Value.Data[0]
			g.Backward(loss)
			if m.Cfg.GradClip > 0 {
				nn.ClipGrads(params, m.Cfg.GradClip)
			}
			opt.Step(params)
			nn.ZeroGrads(params)
		}
		history = append(history, total/float64(len(samples)))
		if err := endEpoch(ctx, hook, e+1, history, opt); err != nil {
			return history, err
		}
	}
	return history, nil
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

// fitGen optimizes one TOD generator against the observation. The frozen
// TOD-Volume and Volume-Speed modules are only read, so multiple fitGen
// calls on distinct generators may run concurrently (FitBestCtx restarts);
// callers must freeze those modules' parameters and validate the inputs
// (checkFitInputs) first.
func (m *Model) fitGen(ctx context.Context, gen TODGenModule, speedObs *tensor.Tensor, epochs int, aux *AuxData) ([]float64, error) {
	params := gen.Params()
	opt := nn.NewAdam(m.Cfg.LR)
	var history []float64
	g := autodiff.NewGraph()
	defer g.Release()
	for e := 0; e < epochs; e++ {
		g.Reset()
		tod := gen.Generate(g)
		vol := m.T2V.MapVolume(g, tod, false)
		speed := m.V2S.MapSpeed(g, vol, false)
		var linkWeights []float64
		if aux != nil {
			linkWeights = aux.LinkWeights
		}
		loss := m.fitLoss(g, speed, speedObs, linkWeights)
		if m.Cfg.SmoothWeight > 0 {
			loss = autodiff.Add(loss, autodiff.Scale(m.smoothPenalty(g, tod), m.Cfg.SmoothWeight))
		}
		if aux != nil {
			loss = autodiff.Add(loss, m.auxLoss(g, tod, vol, aux))
		}
		history = append(history, loss.Value.Data[0])
		g.Backward(loss)
		if m.Cfg.GradClip > 0 {
			nn.ClipGrads(params, m.Cfg.GradClip)
		}
		opt.Step(params)
		nn.ZeroGrads(params)
		if err := endEpoch(ctx, nil, e+1, history, opt); err != nil {
			return history, err
		}
	}
	return history, nil
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
func (m *Model) speedScore(gen TODGenModule, speedObs *tensor.Tensor, aux *AuxData) float64 {
	g := autodiff.NewGraph()
	defer g.Release()
	tod := gen.Generate(g)
	vol := m.T2V.MapVolume(g, tod, false)
	speed := m.V2S.MapSpeed(g, vol, false)
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
// more than one restart the winner is the one with the lowest re-evaluated
// pure speed loss (see speedScore), ties broken by the lowest restart index.
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
	hists := make([][]float64, restarts)
	errs := make([]error, restarts)
	fns := make([]func(), restarts)
	for r := range fns {
		fns[r] = func() {
			hists[r], errs[r] = m.fitGen(ctx, gens[r], speedObs, epochs, aux)
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
	best := 0
	if restarts > 1 {
		best = -1
		bestScore := math.Inf(1)
		for r := range gens {
			if score := m.speedScore(gens[r], speedObs, aux); best < 0 || score < bestScore {
				best, bestScore = r, score
			}
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

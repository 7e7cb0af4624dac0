package core

import (
	"math"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// ---- TOD Generation (Eqs. 1-2) ----

// TODGenerator maps fixed Gaussian seeds through two sigmoid FC layers to a
// TOD tensor, then scales the (0,1) outputs to trip counts. Only this module
// is optimized during test-time fitting.
type TODGenerator struct {
	Z        *tensor.Tensor // fixed Gaussian seeds (N × T)
	L1, L2   *nn.Dense
	MaxTrips float64
}

// NewTODGenerator draws the Gaussian seeds and initializes the two layers
// (FC(Hidden) → FC(T), both sigmoid, per Table IV). When cfg.InitTripLevel
// is set, the output bias is shifted so the initial generated TOD sits at
// that fraction of MaxTrips instead of the sigmoid midpoint.
func NewTODGenerator(topo *Topology, cfg Config, rng *rand.Rand) *TODGenerator {
	l2 := nn.NewDense(rng, "todgen.l2", cfg.Hidden, topo.T, nn.ActSigmoid)
	if lvl := cfg.InitTripLevel; lvl > 0 && lvl < 1 {
		// sigmoid(b) = lvl at the mean pre-activation; the first layer's
		// sigmoid outputs average ~0.5, so subtract the expected weight sum.
		bias := math.Log(lvl / (1 - lvl))
		for j := 0; j < topo.T; j++ {
			wsum := 0.0
			for h := 0; h < cfg.Hidden; h++ {
				wsum += l2.W.Value.At(h, j)
			}
			l2.B.Value.Data[j] = bias - 0.5*wsum
		}
		l2.B.Value.NoteMutation()
	}
	return &TODGenerator{
		Z:        tensor.Randn(rng, 1, topo.N, topo.T),
		L1:       nn.NewDense(rng, "todgen.l1", topo.T, cfg.Hidden, nn.ActSigmoid),
		L2:       l2,
		MaxTrips: cfg.MaxTrips,
	}
}

// Generate emits the TOD tensor node (N × T) in trip counts.
func (tg *TODGenerator) Generate(g *autodiff.Graph) *autodiff.Node {
	h := tg.L1.Forward(g.Const(tg.Z), false)
	out := tg.L2.Forward(h, false)
	return autodiff.Scale(out, tg.MaxTrips)
}

// Params returns the generator's trainable parameters.
func (tg *TODGenerator) Params() []*autodiff.Parameter {
	return append(tg.L1.Params(), tg.L2.Params()...)
}

// Reseed replaces the Gaussian seeds, giving a fresh fitting start without
// rebuilding the module (used when fitting multiple observations).
func (tg *TODGenerator) Reseed(rng *rand.Rand) {
	tg.Z.NoteMutation()
	for i := range tg.Z.Data {
		tg.Z.Data[i] = rng.NormFloat64()
	}
}

// StateTensors returns the tensors that fully determine the generator's
// output: the Gaussian seeds and both layers' weights and biases, in a fixed
// order shared with clones of this generator.
func (tg *TODGenerator) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{tg.Z, tg.L1.W.Value, tg.L1.B.Value, tg.L2.W.Value, tg.L2.B.Value}
}

// CloneTODGen returns a deep copy with independent seeds and parameters, so
// multiple fit restarts can train concurrently.
func (tg *TODGenerator) CloneTODGen() TODGenModule {
	return &TODGenerator{Z: tg.Z.Clone(), L1: tg.L1.Clone(), L2: tg.L2.Clone(), MaxTrips: tg.MaxTrips}
}

// moduleWorkers returns the worker count for the TOD-Volume mapping's
// per-route and per-link graph construction (the Volume-Speed mapping runs
// all links as one batch and forks nothing). Dropout draws its masks from a
// single shared rng in recording order, so training passes with active
// dropout are forced serial — the draw order, and therefore every mask, must
// match Workers=1.
func moduleWorkers(cfg Config, train bool) int {
	if train && cfg.DropoutRate > 0 {
		return 1
	}
	return cfg.Workers
}

// ---- TOD-Volume Mapping (Eqs. 3-8) ----

// AttentionT2V implements the OD→route split and the dynamic attention
// network. Route trip-count series are embedded by two 1×3 convolutions
// (Eqs. 5-6), summed into a system embedding (Eq. 7), and an FC+softmax head
// produces per-(route, link-position) lag attentions (Eq. 8) that convert
// route trip counts into link volumes (Eq. 4).
type AttentionT2V struct {
	topo *Topology
	cfg  Config

	// Route split: per-OD logits over its K route slots (trip-conserving
	// softmax split; identity when K = 1).
	splitLogits *autodiff.Parameter

	conv1, conv2 *nn.Conv1D
	attW         *autodiff.Parameter // (Lookback × ConvChannels)
	attB         *autodiff.Parameter // (Lookback)
	posEmb       *autodiff.Parameter // (MaxPos × Lookback), positional lag bias

	// Dynamic gain head: occupancy-volume is trip counts times dwell time,
	// which grows with congestion. gainW/gainB read the (congestion-aware)
	// route embedding into a softplus gain per time step; posGain scales it
	// per link position along the route.
	gainW   *autodiff.Parameter // (1 × ConvChannels)
	gainB   *autodiff.Parameter // (1)
	posGain *autodiff.Parameter // (MaxPos)

	drop *nn.DropoutLayer
}

// NewAttentionT2V builds the attention mapping for a topology.
func NewAttentionT2V(topo *Topology, cfg Config, rng *rand.Rand) *AttentionT2V {
	// softplus(-2.5) ≈ 0.08: initial dwell fraction of a free-flowing link
	// within one interval. softplus(0.5413) ≈ 1: neutral positional scale.
	gainB := tensor.Full(-2.5, 1)
	posGain := tensor.Full(0.5413, cfg.MaxPos)
	// Lag prior: most trips reach their links within the departure interval,
	// so attention starts concentrated at lag 0 and decays with lag. The
	// training patterns are temporally smooth, which makes the lag profile
	// weakly identified — without this prior it settles at an arbitrary
	// delay and the test-time fit shifts recovered demand in time.
	attB := tensor.New(cfg.Lookback)
	for w := 0; w < cfg.Lookback; w++ {
		attB.Data[w] = -1.5 * float64(w)
	}
	posEmb := tensor.Randn(rng, 0.05, cfg.MaxPos, cfg.Lookback)
	return &AttentionT2V{
		topo:        topo,
		cfg:         cfg,
		splitLogits: autodiff.NewParameter("t2v.split", tensor.New(topo.N, topo.K)),
		conv1:       nn.NewConv1D(rng, "t2v.conv1", 1, cfg.ConvChannels, 3, nn.ActReLU),
		conv2:       nn.NewConv1D(rng, "t2v.conv2", cfg.ConvChannels, cfg.ConvChannels, 3, nn.ActReLU),
		attW:        autodiff.NewParameter("t2v.attW", tensor.Randn(rng, 0.1, cfg.Lookback, cfg.ConvChannels)),
		attB:        autodiff.NewParameter("t2v.attB", attB),
		posEmb:      autodiff.NewParameter("t2v.pos", posEmb),
		gainW:       autodiff.NewParameter("t2v.gainW", tensor.Xavier(rng, cfg.ConvChannels, 1, 1, cfg.ConvChannels)),
		gainB:       autodiff.NewParameter("t2v.gainB", gainB),
		posGain:     autodiff.NewParameter("t2v.posGain", posGain),
		drop:        nn.NewDropout(rng, cfg.DropoutRate),
	}
}

// MapVolume converts a TOD node (N × T) to link volumes (M × T).
func (a *AttentionT2V) MapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) *autodiff.Node {
	topo := a.topo
	// 1. OD → route trip counts (Eq. 3): a softmax split over each OD's K
	// route slots conserves total trips across routes.
	routeRows := make([]*autodiff.Node, topo.N*topo.K)
	if topo.K == 1 {
		for i := 0; i < topo.N; i++ {
			routeRows[i] = autodiff.Row(tod, i)
		}
	} else {
		split := autodiff.SoftmaxRows(g.Param(a.splitLogits)) // (N × K)
		for i := 0; i < topo.N; i++ {
			gi := autodiff.Row(tod, i)
			fr := autodiff.Row(split, i) // (K)
			for k := 0; k < topo.K; k++ {
				frac := autodiff.SliceVec(fr, k, k+1)     // (1)
				fracMat := autodiff.Reshape(frac, 1, 1)   // (1×1)
				giMat := autodiff.Reshape(gi, 1, topo.T)  // (1×T)
				scaled := autodiff.MatMul(fracMat, giMat) // (1×T)
				routeRows[i*topo.K+k] = autodiff.Reshape(scaled, topo.T)
			}
		}
	}

	// 2. Per-route embeddings (Eqs. 5-6) and system embedding (Eq. 7). Each
	// route's conv stack is an independent sub-graph, built on a forked child
	// tape and spliced back in route order (see autodiff.ForkJoin for the
	// determinism argument).
	workers := moduleWorkers(a.cfg, train)
	norm := 1.0 / a.cfg.MaxTrips
	embeds := autodiff.ForkJoin(g, workers, len(routeRows), func(sub *autodiff.Graph, r int) *autodiff.Node {
		x := autodiff.Reshape(autodiff.Scale(sub.Ref(routeRows[r]), norm), 1, topo.T)
		h := a.conv1.Forward(x, train)
		h = a.drop.Forward(h, train)
		return a.conv2.Forward(h, train) // (C × T)
	})
	system := autodiff.SumNodes(embeds...)
	// Average so the system embedding scale is route-count invariant.
	system = autodiff.Scale(system, 1/float64(len(embeds)))

	// 3. Attention per (route, position) and volume assembly (Eqs. 4, 8).
	attW := g.Param(a.attW)
	attB := g.Param(a.attB)
	posEmb := g.Param(a.posEmb)

	gainW := g.Param(a.gainW)
	// Hoisted out of the per-route builds: single-operand ops record onto
	// their operand's tape, so shared nodes must be built on the parent once.
	gainBVec := autodiff.Reshape(g.Param(a.gainB), 1)
	posGain := g.Param(a.posGain)

	// Pre-compute each route's lag logits (Lookback × T) and dynamic gain
	// series (T): the gain reads the congestion-aware embedding and converts
	// the trip-count attention output into occupancy.
	routeHeads := autodiff.ForkJoinK(g, workers, len(routeRows), func(sub *autodiff.Graph, r int) []*autodiff.Node {
		u := autodiff.Add(sub.Ref(embeds[r]), sub.Ref(system))                     // (C × T)
		logits := autodiff.MatMul(sub.Ref(attW), u)                                // (W × T)
		logits = addColVector(logits, sub.Ref(attB))                               // + b per lag row
		pre := addColVector(autodiff.MatMul(sub.Ref(gainW), u), sub.Ref(gainBVec)) // (1 × T)
		gain := autodiff.Softplus(autodiff.Reshape(pre, topo.T))
		return []*autodiff.Node{logits, gain}
	})

	zeroRow := g.Const(g.Alloc(topo.T))
	volRows := autodiff.ForkJoin(g, workers, topo.M, func(sub *autodiff.Graph, j int) *autodiff.Node {
		incs := topo.linkRoutes[j]
		if len(incs) == 0 {
			return zeroRow // parent-tape node; nothing recorded on the child
		}
		posEmbRef := sub.Ref(posEmb)
		posGainRef := sub.Ref(posGain)
		var parts []*autodiff.Node
		for _, inc := range incs {
			pos := inc.pos
			if pos >= a.cfg.MaxPos {
				pos = a.cfg.MaxPos - 1
			}
			pe := autodiff.Row(posEmbRef, pos) // (W)
			logits := addColVector(sub.Ref(routeHeads[inc.route][0]), pe)
			alpha := softmaxCols(logits) // softmax over lags per time step
			contrib := autodiff.Mul(
				autodiff.LagAttend(alpha, sub.Ref(routeRows[inc.route])),
				sub.Ref(routeHeads[inc.route][1]),
			)
			scale := autodiff.Softplus(autodiff.SliceVec(posGainRef, pos, pos+1))
			parts = append(parts, autodiff.MulScalarNode(contrib, scale))
		}
		return autodiff.SumNodes(parts...)
	})
	return autodiff.StackRows(volRows)
}

// Params returns the mapping's trainable parameters.
func (a *AttentionT2V) Params() []*autodiff.Parameter {
	ps := []*autodiff.Parameter{a.splitLogits, a.attW, a.attB, a.posEmb, a.gainW, a.gainB, a.posGain}
	ps = append(ps, a.conv1.Params()...)
	ps = append(ps, a.conv2.Params()...)
	return ps
}

// addColVector adds vector v (length rows) to every column of a (rows×cols).
func addColVector(a, v *autodiff.Node) *autodiff.Node {
	return autodiff.Transpose(autodiff.AddRowVector(autodiff.Transpose(a), v))
}

// softmaxCols applies softmax along each column of a rank-2 node.
func softmaxCols(a *autodiff.Node) *autodiff.Node {
	return autodiff.Transpose(autodiff.SoftmaxRows(autodiff.Transpose(a)))
}

// ---- Volume-Speed Mapping (Eqs. 9-11) ----

// LSTMV2S maps each link's volume series to its speed series with two
// shared LSTMs and two FC layers. Static link features (length, lanes,
// speed limit, capacity) accompany the volume at every timestep so the
// shared weights can specialize per link; the head predicts a (0,1) factor
// multiplied by the link's speed limit.
type LSTMV2S struct {
	topo *Topology
	cfg  Config

	lstm1, lstm2 *nn.LSTM
	fc1, fc2     *nn.Dense
	drop         *nn.DropoutLayer

	// Per-topology constants of MapSpeed's link-major layout: static holds
	// the four link features of every (link, step) row, (M·T × 4), and
	// limits every link's speed limit at every step, (M × T).
	static, limits *tensor.Tensor
}

// NewLSTMV2S builds the shared volume→speed stack.
func NewLSTMV2S(topo *Topology, cfg Config, rng *rand.Rand) *LSTMV2S {
	const staticFeatures = 4
	static := tensor.New(topo.M*topo.T, staticFeatures)
	limits := tensor.New(topo.M, topo.T)
	for j := 0; j < topo.M; j++ {
		feats := topo.linkFeatures.Data[j*staticFeatures : (j+1)*staticFeatures]
		for t := 0; t < topo.T; t++ {
			copy(static.Data[(j*topo.T+t)*staticFeatures:], feats)
			limits.Data[j*topo.T+t] = topo.speedLimits[j]
		}
	}
	return &LSTMV2S{
		topo:   topo,
		cfg:    cfg,
		lstm1:  nn.NewLSTM(rng, "v2s.lstm1", 1+staticFeatures, cfg.LSTMHidden),
		lstm2:  nn.NewLSTM(rng, "v2s.lstm2", cfg.LSTMHidden, cfg.LSTMHidden),
		fc1:    nn.NewDense(rng, "v2s.fc1", cfg.LSTMHidden, cfg.V2SFC, nn.ActSigmoid),
		fc2:    nn.NewDense(rng, "v2s.fc2", cfg.V2SFC, 1, nn.ActSigmoid),
		drop:   nn.NewDropout(rng, cfg.DropoutRate),
		static: static,
		limits: limits,
	}
}

// MapSpeed converts link volumes (M × T) to speeds (M × T) in m/s. Every
// link runs the same weights over its own sequence, so all M links go
// through the stack as one batch: the rows of the (M·T × 5) input are
// link-major (row j·T+t is link j at step t), which makes the volume a plain
// reshape and keeps the dropout draws and FC rows in link order. The tape it
// records does not grow with M.
func (v *LSTMV2S) MapSpeed(g *autodiff.Graph, vol *autodiff.Node, train bool) *autodiff.Node {
	topo := v.topo
	q := autodiff.Reshape(autodiff.Scale(vol, 1/v.cfg.VolumeNorm), topo.M*topo.T, 1)
	x := autodiff.ConcatCols(q, g.Const(v.static)) // (M·T × 5)
	h := v.lstm1.Forward(x, topo.M)
	h = v.drop.Forward(h, train)
	h = v.lstm2.Forward(h, topo.M)
	h = v.fc1.Forward(h, train)
	out := v.fc2.Forward(h, train) // (M·T × 1), sigmoid in (0,1)
	return autodiff.Mul(autodiff.Reshape(out, topo.M, topo.T), g.Const(v.limits))
}

// Params returns the mapping's trainable parameters.
func (v *LSTMV2S) Params() []*autodiff.Parameter {
	var ps []*autodiff.Parameter
	ps = append(ps, v.lstm1.Params()...)
	ps = append(ps, v.lstm2.Params()...)
	ps = append(ps, v.fc1.Params()...)
	ps = append(ps, v.fc2.Params()...)
	return ps
}

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

	// Per-topology row tables of MapVolume's batched layout. Route-step row
	// r·T+t is route r at step t. Incidence i is the i-th (route, position)
	// entry of topo.linkRoutes taken link by link, and incidence-step row
	// i·T+t is incidence i at step t.
	rowStep  []int   // route-step row → its step t
	stepRows [][]int // step t → route-step rows t, T+t, … in route order
	incRoute []int   // incidence → its route
	incRows  []int   // incidence-step row → its route-step row
	incPos   []int   // incidence-step row → its link position, clamped below MaxPos
	linkIncs [][]int // link → its incidences, in topo.linkRoutes order
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
	a := &AttentionT2V{
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

	routes, steps := topo.N*topo.K, topo.T
	a.rowStep = make([]int, routes*steps)
	a.stepRows = make([][]int, steps)
	for t := range a.stepRows {
		a.stepRows[t] = make([]int, routes)
		for r := range a.stepRows[t] {
			a.stepRows[t][r] = r*steps + t
			a.rowStep[r*steps+t] = t
		}
	}
	a.linkIncs = make([][]int, topo.M)
	for j, incs := range topo.linkRoutes {
		for _, inc := range incs {
			a.linkIncs[j] = append(a.linkIncs[j], len(a.incRoute))
			a.incRoute = append(a.incRoute, inc.route)
			pos := a.clampPos(inc.pos)
			for t := 0; t < steps; t++ {
				a.incRows = append(a.incRows, inc.route*steps+t)
				a.incPos = append(a.incPos, pos)
			}
		}
	}
	return a
}

// clampPos maps a link position along a route to its row of posEmb and
// posGain: positions at or beyond MaxPos share the last one.
func (a *AttentionT2V) clampPos(pos int) int {
	return min(pos, a.cfg.MaxPos-1)
}

// MapVolume converts a TOD node (N × T) to link volumes (M × T). Every route
// runs the same conv stack and heads, and every (route, link) incidence the
// same lag attention, so each stage runs once over all routes or all
// incidences, and one segment sum adds the incidences into their links. The
// tape it records does not grow with the number of routes or links.
func (a *AttentionT2V) MapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) *autodiff.Node {
	vol, _ := a.mapVolume(g, tod, train)
	return vol
}

// mapVolume is MapVolume, also returning the incidences' lag attention
// (I·T × Lookback), one row per incidence-step row.
func (a *AttentionT2V) mapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) (vol, alpha *autodiff.Node) {
	topo := a.topo
	routes, logits, gain := a.routeHeads(g, tod, train)

	// Volume assembly (Eq. 4): each incidence lag-attends its route's trips,
	// times the route's gain and its position's gain.
	alpha = a.lagAttention(g, logits, a.incRows, a.incPos)
	incs := len(a.incRoute)
	contrib := autodiff.Mul(
		autodiff.LagAttend(alpha, autodiff.GatherRows(routes, a.incRoute)),
		autodiff.Reshape(autodiff.GatherRows(gain, a.incRows), incs, topo.T),
	)
	posScale := autodiff.Softplus(autodiff.Reshape(g.Param(a.posGain), a.cfg.MaxPos, 1))
	contrib = autodiff.Mul(contrib, autodiff.Reshape(autodiff.GatherRows(posScale, a.incPos), incs, topo.T))
	return autodiff.ScatterAddRows(contrib, a.linkIncs), alpha
}

// routeHeads runs the per-route stages for all N·K routes at once and
// returns the route trip counts (N·K × T), the lag logits (N·K·T × Lookback)
// and the dynamic gains (N·K·T × 1), both by route-step row.
func (a *AttentionT2V) routeHeads(g *autodiff.Graph, tod *autodiff.Node, train bool) (routes, logits, gain *autodiff.Node) {
	topo := a.topo
	n := topo.N * topo.K
	// 1. OD → route trip counts (Eq. 3): a softmax split over each OD's K
	// route slots conserves total trips across routes (with K = 1 the one
	// fraction is exactly 1).
	routes = autodiff.SplitRows(tod, autodiff.SoftmaxRows(g.Param(a.splitLogits)))

	// 2. Route embeddings (Eqs. 5-6): one conv stack over the batch of
	// routes. The batch is route-major, so dropout draws its masks route by
	// route.
	x := autodiff.Reshape(autodiff.Scale(routes, 1.0/a.cfg.MaxTrips), n, 1, topo.T)
	h := a.conv1.Forward(x, train)
	h = a.drop.Forward(h, train)
	h = a.conv2.Forward(h, train) // (N·K × C × T)
	emb := autodiff.Reshape(autodiff.Transpose(h), n*topo.T, a.cfg.ConvChannels)

	// 3. System embedding (Eq. 7), averaged so its scale is route-count
	// invariant, and added to every route's embedding.
	system := autodiff.Scale(autodiff.ScatterAddRows(emb, a.stepRows), 1/float64(n)) // (T × C)
	u := autodiff.Add(emb, autodiff.GatherRows(system, a.rowStep))

	// 4. Heads: the lag logits of Eq. 8, and the dynamic gain that converts
	// the trip-count attention output into occupancy.
	logits = autodiff.Affine(u, autodiff.Transpose(g.Param(a.attW)), g.Param(a.attB))
	pre := autodiff.Affine(u, autodiff.Transpose(g.Param(a.gainW)), g.Param(a.gainB))
	return routes, logits, autodiff.Softplus(pre)
}

// lagAttention returns the lag attention (Eq. 8) of the given route-step
// rows of the lag logits: row q is logits row rows[q] plus the positional
// embedding of position pos[q], under a softmax over lags.
func (a *AttentionT2V) lagAttention(g *autodiff.Graph, logits *autodiff.Node, rows, pos []int) *autodiff.Node {
	pe := autodiff.GatherRows(g.Param(a.posEmb), pos)
	return autodiff.SoftmaxRows(autodiff.Add(autodiff.GatherRows(logits, rows), pe))
}

// Params returns the mapping's trainable parameters.
func (a *AttentionT2V) Params() []*autodiff.Parameter {
	ps := []*autodiff.Parameter{a.splitLogits, a.attW, a.attB, a.posEmb, a.gainW, a.gainB, a.posGain}
	ps = append(ps, a.conv1.Params()...)
	ps = append(ps, a.conv2.Params()...)
	return ps
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

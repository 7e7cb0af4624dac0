package core

import (
	"fmt"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// Sample is one (TOD, volume, speed) training triple from the generation
// stage of Fig. 7. Shapes: G is (N_od × T); Volume and Speed are (M × T).
type Sample struct {
	G      *tensor.Tensor
	Volume *tensor.Tensor
	Speed  *tensor.Tensor
}

// Topology is the precomputed routing structure the TOD-Volume mapping
// operates on: the routes of every OD pair and, for every link, the list of
// (route, position) incidences — "OD i contains link l_j" in the paper's
// terminology, enriched with how far along the route the link sits.
type Topology struct {
	Net    *roadnet.Network
	T      int             // intervals
	N      int             // OD pairs
	M      int             // links
	Routes []roadnet.Route // all routes, grouped by OD: OD i owns Routes[i*K:(i+1)*K]
	K      int             // routes per OD

	// linkRoutes[j] lists incidences of link j.
	linkRoutes [][]incidence

	// Static per-link features for the Volume-Speed module, (M × 4):
	// normalized length, lanes, speed limit, capacity.
	linkFeatures *tensor.Tensor
	speedLimits  []float64
}

// incidence records that a route passes over a link at a given position.
type incidence struct {
	route int // global route index
	pos   int // 0-based position of the link within the route
}

// NewTopology computes k-shortest routes for each OD node pair and indexes
// link incidences. pairs holds (origin node, destination node) per OD.
func NewTopology(net *roadnet.Network, pairs [][2]int, t, k int) (*Topology, error) {
	if t <= 0 {
		return nil, fmt.Errorf("core: topology requires T > 0")
	}
	if k <= 0 {
		k = 1
	}
	topo := &Topology{
		Net: net, T: t, N: len(pairs), M: net.NumLinks(), K: k,
	}
	topo.Routes = make([]roadnet.Route, 0, len(pairs)*k)
	for i, p := range pairs {
		routes, err := net.KShortestPaths(p[0], p[1], k, nil)
		if err != nil {
			return nil, fmt.Errorf("core: routes for OD %d (%d→%d): %w", i, p[0], p[1], err)
		}
		// Pad by repeating the best route so every OD owns exactly k slots.
		for len(routes) < k {
			routes = append(routes, routes[0])
		}
		topo.Routes = append(topo.Routes, routes[:k]...)
	}
	topo.linkRoutes = make([][]incidence, topo.M)
	for r, route := range topo.Routes {
		for pos, linkID := range route {
			topo.linkRoutes[linkID] = append(topo.linkRoutes[linkID], incidence{route: r, pos: pos})
		}
	}
	topo.buildLinkFeatures()
	return topo, nil
}

func (tp *Topology) buildLinkFeatures() {
	tp.linkFeatures = tensor.New(tp.M, 4)
	tp.speedLimits = make([]float64, tp.M)
	var maxLen, maxLanes, maxSpeed, maxCap float64
	for _, l := range tp.Net.Links {
		maxLen = maxf(maxLen, l.Length)
		maxLanes = maxf(maxLanes, float64(l.Lanes))
		maxSpeed = maxf(maxSpeed, l.SpeedLimit)
		maxCap = maxf(maxCap, l.Capacity)
	}
	for j, l := range tp.Net.Links {
		tp.linkFeatures.Set(l.Length/maxLen, j, 0)
		tp.linkFeatures.Set(float64(l.Lanes)/maxLanes, j, 1)
		tp.linkFeatures.Set(l.SpeedLimit/maxSpeed, j, 2)
		tp.linkFeatures.Set(l.Capacity/maxCap, j, 3)
		tp.speedLimits[j] = l.SpeedLimit
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// RoutesOfOD returns the route slots of OD i.
func (tp *Topology) RoutesOfOD(i int) []roadnet.Route {
	return tp.Routes[i*tp.K : (i+1)*tp.K]
}

// Model is the full OVS stack.
type Model struct {
	Cfg  Config
	Topo *Topology

	TODGen TODGenModule
	T2V    T2VModule
	V2S    V2SModule

	rng *rand.Rand
	// rngSrc is the counting source behind rng; checkpoints record its
	// (seed, draws) position so a resumed run replays the exact stream.
	rngSrc *autodiff.CountingSource
}

// TODGenModule generates the TOD tensor (N × T) from internal seeds.
// Reseed redraws the Gaussian seeds, giving test-time fitting a fresh
// starting point (used by multi-restart fitting). StateTensors exposes the
// tensors that fully determine the generator's output, in a fixed order
// shared across instances of the same concrete type — FitBestCtx copies them
// to snapshot and restore the winning restart.
type TODGenModule interface {
	Generate(g *autodiff.Graph) *autodiff.Node
	Params() []*autodiff.Parameter
	Reseed(rng *rand.Rand)
	StateTensors() []*tensor.Tensor
}

// CloneableTODGen is the optional capability FitBestCtx uses to run restarts
// concurrently: CloneTODGen returns a deep, independent copy of the
// generator whose StateTensors align index-for-index with the original's.
type CloneableTODGen interface {
	TODGenModule
	CloneTODGen() TODGenModule
}

// T2VModule maps a TOD tensor node (N × T) to link volumes (M × T).
type T2VModule interface {
	MapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) *autodiff.Node
	Params() []*autodiff.Parameter
}

// V2SModule maps link volumes (M × T) to link speeds (M × T).
type V2SModule interface {
	MapSpeed(g *autodiff.Graph, vol *autodiff.Node, train bool) *autodiff.Node
	Params() []*autodiff.Parameter
}

// NewModel builds an OVS model over the given topology with the standard
// three modules. Use the With* setters (or construct Model directly) to swap
// modules for the Table IX ablations.
func NewModel(topo *Topology, cfg Config) *Model {
	cfg = cfg.withDefaults()
	// The counting source is stream-transparent (bit-identical to a plain
	// rand.NewSource(cfg.Seed)), so seeded behavior is unchanged; it exists so
	// checkpoints can record and restore the RNG position.
	src := autodiff.NewCountingSource(cfg.Seed)
	rng := rand.New(src)
	return &Model{
		Cfg:    cfg,
		Topo:   topo,
		TODGen: NewTODGenerator(topo, cfg, rng),
		T2V:    NewAttentionT2V(topo, cfg, rng),
		V2S:    NewLSTMV2S(topo, cfg, rng),
		rng:    rng,
		rngSrc: src,
	}
}

// PredictVolume runs the TOD-Volume mapping on a concrete TOD tensor.
func (m *Model) PredictVolume(tod *tensor.Tensor) *tensor.Tensor {
	g := autodiff.NewGraph()
	defer g.Release()
	out := m.T2V.MapVolume(g, g.Const(tod), false)
	return out.Value.Clone()
}

// PredictSpeed runs the Volume-Speed mapping on a concrete volume tensor.
func (m *Model) PredictSpeed(vol *tensor.Tensor) *tensor.Tensor {
	g := autodiff.NewGraph()
	defer g.Release()
	out := m.V2S.MapSpeed(g, g.Const(vol), false)
	return out.Value.Clone()
}

// Forward runs TOD → volume → speed on a concrete TOD tensor.
func (m *Model) Forward(tod *tensor.Tensor) (vol, speed *tensor.Tensor) {
	g := autodiff.NewGraph()
	defer g.Release()
	vNode := m.T2V.MapVolume(g, g.Const(tod), false)
	sNode := m.V2S.MapSpeed(g, vNode, false)
	return vNode.Value.Clone(), sNode.Value.Clone()
}

// GenerateTOD evaluates the TOD generator's current output.
func (m *Model) GenerateTOD() *tensor.Tensor {
	g := autodiff.NewGraph()
	defer g.Release()
	return m.TODGen.Generate(g).Value.Clone()
}

// Params returns all trainable parameters across the three modules.
func (m *Model) Params() []*autodiff.Parameter {
	var ps []*autodiff.Parameter
	ps = append(ps, m.TODGen.Params()...)
	ps = append(ps, m.T2V.Params()...)
	ps = append(ps, m.V2S.Params()...)
	return ps
}

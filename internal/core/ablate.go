package core

import (
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/nn"
	"ovs/internal/tensor"
)

// Ablation modules for Table IX: each OVS module can be replaced by plain
// fully connected layers ("OVS - TOD", "OVS - TOD2V", "OVS - V2S").

// FCTODGen replaces the structured TOD generator with a single FC layer
// over the Gaussian seeds.
type FCTODGen struct {
	Z        *tensor.Tensor
	L        *nn.Dense
	MaxTrips float64
}

// NewFCTODGen builds the ablated generator.
func NewFCTODGen(topo *Topology, cfg Config, rng *rand.Rand) *FCTODGen {
	return &FCTODGen{
		Z:        tensor.Randn(rng, 1, topo.N, topo.T),
		L:        nn.NewDense(rng, "fctodgen.l", topo.T, topo.T, nn.ActSigmoid),
		MaxTrips: cfg.MaxTrips,
	}
}

// Generate emits the TOD tensor (N × T).
func (f *FCTODGen) Generate(g *autodiff.Graph) *autodiff.Node {
	return autodiff.Scale(f.L.Forward(g.Const(f.Z), false), f.MaxTrips)
}

// Params returns the trainable parameters.
func (f *FCTODGen) Params() []*autodiff.Parameter { return f.L.Params() }

// Reseed redraws the Gaussian seeds.
func (f *FCTODGen) Reseed(rng *rand.Rand) {
	for i := range f.Z.Data {
		f.Z.Data[i] = rng.NormFloat64()
	}
}

// StateTensors returns the seeds and layer parameters that determine the
// generator's output.
func (f *FCTODGen) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{f.Z, f.L.W.Value, f.L.B.Value}
}

// CloneTODGen returns a deep, independent copy for concurrent fit restarts.
func (f *FCTODGen) CloneTODGen() TODGenModule {
	return &FCTODGen{Z: f.Z.Clone(), L: f.L.Clone(), MaxTrips: f.MaxTrips}
}

// FCT2V replaces the attention TOD-volume mapping with per-interval fully
// connected layers: at each time step, volumes are an FC function of that
// step's OD counts, discarding temporal delay structure entirely.
type FCT2V struct {
	topo   *Topology
	l1, l2 *nn.Dense
	norm   float64
	scale  float64
}

// NewFCT2V builds the ablated mapping.
func NewFCT2V(topo *Topology, cfg Config, rng *rand.Rand) *FCT2V {
	return &FCT2V{
		topo:  topo,
		l1:    nn.NewDense(rng, "fct2v.l1", topo.N, cfg.Hidden*4, nn.ActReLU),
		l2:    nn.NewDense(rng, "fct2v.l2", cfg.Hidden*4, topo.M, nn.ActReLU),
		norm:  1.0 / cfg.MaxTrips,
		scale: cfg.MaxTrips,
	}
}

// MapVolume converts TOD (N × T) to volumes (M × T) per time step.
func (f *FCT2V) MapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) *autodiff.Node {
	x := autodiff.Transpose(autodiff.Scale(tod, f.norm)) // (T × N)
	h := f.l1.Forward(x, train)
	out := f.l2.Forward(h, train) // (T × M)
	return autodiff.Scale(autodiff.Transpose(out), f.scale)
}

// Params returns the trainable parameters.
func (f *FCT2V) Params() []*autodiff.Parameter { return append(f.l1.Params(), f.l2.Params()...) }

// LiveLinks returns nil: every link's volume is an FC function of every OD.
func (f *FCT2V) LiveLinks() []int { return nil }

// FCV2S replaces the shared LSTM volume-speed mapping with per-interval
// fully connected layers across links.
type FCV2S struct {
	topo   *Topology
	l1, l2 *nn.Dense
	norm   float64
}

// NewFCV2S builds the ablated mapping.
func NewFCV2S(topo *Topology, cfg Config, rng *rand.Rand) *FCV2S {
	return &FCV2S{
		topo: topo,
		l1:   nn.NewDense(rng, "fcv2s.l1", topo.M, cfg.Hidden*4, nn.ActReLU),
		l2:   nn.NewDense(rng, "fcv2s.l2", cfg.Hidden*4, topo.M, nn.ActSigmoid),
		norm: 1.0 / cfg.VolumeNorm,
	}
}

// MapSpeed converts volumes (M × T) to speeds (M × T).
func (f *FCV2S) MapSpeed(g *autodiff.Graph, vol *autodiff.Node, train bool) *autodiff.Node {
	x := autodiff.Transpose(autodiff.Scale(vol, f.norm)) // (T × M)
	h := f.l1.Forward(x, train)
	out := autodiff.Transpose(f.l2.Forward(h, train)) // (M × T) in (0,1)
	// Scale each link's factor by its speed limit.
	rows := make([]*autodiff.Node, f.topo.M)
	for j := 0; j < f.topo.M; j++ {
		rows[j] = autodiff.Scale(autodiff.Row(out, j), f.topo.speedLimits[j])
	}
	return autodiff.StackRows(rows)
}

// Params returns the trainable parameters.
func (f *FCV2S) Params() []*autodiff.Parameter { return append(f.l1.Params(), f.l2.Params()...) }

// OnLinks returns nil: each link's speed reads every link's volume.
func (f *FCV2S) OnLinks([]int) V2SModule { return nil }

// Ablation names the Table IX variants.
type Ablation int

const (
	// AblateNone is full OVS.
	AblateNone Ablation = iota
	// AblateTODGen replaces TOD Generation with FC ("OVS - TOD").
	AblateTODGen
	// AblateT2V replaces TOD-Volume Mapping with FC ("OVS - TOD2V").
	AblateT2V
	// AblateV2S replaces Volume-Speed Mapping with FC ("OVS - V2S").
	AblateV2S
)

// String returns the paper's row label.
func (a Ablation) String() string {
	switch a {
	case AblateNone:
		return "OVS"
	case AblateTODGen:
		return "OVS - TOD"
	case AblateT2V:
		return "OVS - TOD2V"
	case AblateV2S:
		return "OVS - V2S"
	default:
		return "Ablation(?)"
	}
}

// NewAblatedModel builds an OVS model with one module swapped for its FC
// replacement.
func NewAblatedModel(topo *Topology, cfg Config, which Ablation) *Model {
	m := NewModel(topo, cfg)
	rng := rand.New(rand.NewSource(cfg.withDefaults().Seed + int64(which)*31))
	switch which {
	case AblateTODGen:
		m.TODGen = NewFCTODGen(topo, cfg.withDefaults(), rng)
	case AblateT2V:
		m.T2V = NewFCT2V(topo, cfg.withDefaults(), rng)
	case AblateV2S:
		m.V2S = NewFCV2S(topo, cfg.withDefaults(), rng)
	}
	return m
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/dataset"
	"ovs/internal/tensor"
)

// serialT2V is the reference TOD-Volume mapping: AttentionT2V with MapVolume
// built one route and one link at a time on a single tape — per route its
// split row, conv stack and heads, per link the sum of its incidences'
// lag-attended, gain-scaled route rows, in route order and then link order.
// Every node a route or link reads from an earlier stage passes through ref,
// so its gradient is summed on the copy and added to the source once.
type serialT2V struct{ *AttentionT2V }

// ref returns an identity copy of n whose gradient is summed on the copy
// and then added to n in one step.
func ref(n *autodiff.Node) *autodiff.Node {
	return autodiff.Reshape(n, n.Value.Shape()...)
}

// MapVolume converts a TOD node (N × T) to link volumes (M × T).
func (o serialT2V) MapVolume(g *autodiff.Graph, tod *autodiff.Node, train bool) *autodiff.Node {
	a := o.AttentionT2V
	topo := a.topo
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

	norm := 1.0 / a.cfg.MaxTrips
	embeds := make([]*autodiff.Node, len(routeRows))
	for r := range routeRows {
		x := autodiff.Reshape(autodiff.Scale(ref(routeRows[r]), norm), 1, topo.T)
		h := a.conv1.Forward(x, train)
		h = a.drop.Forward(h, train)
		embeds[r] = a.conv2.Forward(h, train) // (C × T)
	}
	system := autodiff.SumNodes(embeds...)
	system = autodiff.Scale(system, 1/float64(len(embeds)))

	attW := g.Param(a.attW)
	attB := g.Param(a.attB)
	posEmb := g.Param(a.posEmb)
	gainW := g.Param(a.gainW)
	gainBVec := autodiff.Reshape(g.Param(a.gainB), 1)
	posGain := g.Param(a.posGain)

	routeLogits := make([]*autodiff.Node, len(routeRows))
	routeGains := make([]*autodiff.Node, len(routeRows))
	for r := range routeRows {
		u := autodiff.Add(ref(embeds[r]), ref(system))                     // (C × T)
		logits := autodiff.MatMul(ref(attW), u)                            // (W × T)
		routeLogits[r] = addColVector(logits, ref(attB))                   // + b per lag row
		pre := addColVector(autodiff.MatMul(ref(gainW), u), ref(gainBVec)) // (1 × T)
		routeGains[r] = autodiff.Softplus(autodiff.Reshape(pre, topo.T))
	}

	zeroRow := g.Const(g.Alloc(topo.T))
	volRows := make([]*autodiff.Node, topo.M)
	for j := range volRows {
		incs := topo.linkRoutes[j]
		if len(incs) == 0 {
			volRows[j] = zeroRow
			continue
		}
		posEmbRef := ref(posEmb)
		posGainRef := ref(posGain)
		var parts []*autodiff.Node
		for _, inc := range incs {
			pos := inc.pos
			if pos >= a.cfg.MaxPos {
				pos = a.cfg.MaxPos - 1
			}
			pe := autodiff.Row(posEmbRef, pos) // (W)
			logits := addColVector(ref(routeLogits[inc.route]), pe)
			// Softmax over lags per time step, (T × W).
			alpha := autodiff.SoftmaxRows(autodiff.Transpose(logits))
			p := autodiff.Reshape(routeRows[inc.route], 1, topo.T) // ref, as a (1 × T) batch
			contrib := autodiff.Mul(
				autodiff.Reshape(autodiff.LagAttend(alpha, p), topo.T),
				ref(routeGains[inc.route]),
			)
			scale := autodiff.Softplus(autodiff.SliceVec(posGainRef, pos, pos+1))
			parts = append(parts, autodiff.MulScalarNode(contrib, scale))
		}
		volRows[j] = autodiff.SumNodes(parts...)
	}
	return autodiff.StackRows(volRows)
}

// addColVector adds vector v (length rows) to every column of a (rows×cols).
func addColVector(a, v *autodiff.Node) *autodiff.Node {
	return autodiff.Transpose(autodiff.AddRowVector(autodiff.Transpose(a), v))
}

// withSerialT2V swaps a model's TOD-Volume module for the serial oracle over
// the same weights.
func withSerialT2V(m *Model) *Model {
	m.T2V = serialT2V{m.T2V.(*AttentionT2V)}
	return m
}

// mapVolumeGrads runs one MapVolume forward and backward on a fresh graph
// and returns the volumes, the gradient with respect to the TOD, and every
// T2V parameter gradient by name. The loss weights each output element
// differently so a permuted or misrouted gradient cannot cancel out.
func mapVolumeGrads(m *Model, todT *tensor.Tensor, train bool) (vol, todGrad *tensor.Tensor, paramGrads map[string]*tensor.Tensor) {
	params := m.T2V.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	tod := autodiff.NewParameter("tod", todT.Clone())
	g := autodiff.NewGraph()
	defer g.Release()
	out := m.T2V.MapVolume(g, g.Param(tod), train)
	weights := g.Alloc(out.Value.Shape()...)
	for i := range weights.Data {
		weights.Data[i] = float64(i%11) - 5
	}
	g.Backward(autodiff.Sum(autodiff.Mul(out, g.Const(weights))))
	paramGrads = make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		paramGrads[p.Name] = p.Grad.Clone()
	}
	return out.Value.Clone(), tod.Grad.Clone(), paramGrads
}

// t2vOracleCase is one topology of the TOD-Volume oracle tests.
type t2vOracleCase struct {
	name string
	topo *Topology
}

// t2vOracleCases returns the 3×3 grid and the 360-link Manhattan preset at
// k route slots per OD, and checks that each has a link no route uses and
// an incidence at or beyond maxPos, so the zero rows and the position clamp
// are exercised.
func t2vOracleCases(t *testing.T, steps, k, maxPos int) []t2vOracleCase {
	t.Helper()
	cases := []t2vOracleCase{
		{"grid3", oracleTopo(t, dataset.SyntheticGrid(8, 1), steps, k)},
		{"manhattan", oracleTopo(t, dataset.Manhattan(dataset.CityOptions{ODPairs: 5, Seed: 1}), steps, k)},
	}
	for _, c := range cases {
		unused, clamped := false, false
		for _, incs := range c.topo.linkRoutes {
			unused = unused || len(incs) == 0
			for _, inc := range incs {
				clamped = clamped || inc.pos >= maxPos
			}
		}
		if !unused || !clamped {
			t.Fatalf("%s k=%d: unused link %v, incidence at pos >= %d %v", c.name, k, unused, maxPos, clamped)
		}
	}
	return cases
}

// t2vBitwiseGrads names the T2V parameters whose gradients the batched
// MapVolume sums in the serial build's order: the route split's, and the
// convolutions', whose batched backward replays the routes in reverse as the
// serial tape does. The heads and positional tables sum over all routes or
// incidences at once — one product or one scatter instead of per-route and
// per-link partial sums — and agree to rounding.
var t2vBitwiseGrads = map[string]bool{
	"t2v.split": true, "t2v.conv1.K": true, "t2v.conv1.b": true, "t2v.conv2.K": true, "t2v.conv2.b": true,
}

// TestMapVolumeMatchesSerialOracle holds the batched MapVolume to the
// serial route-then-link build on the 3×3 grid and the Manhattan preset, at
// 1 and 2 routes per OD, in inference and in training with dropout 0.3, with
// MaxPos small enough that the position clamp applies: volumes and the TOD
// gradient are bitwise equal, the t2vBitwiseGrads parameter gradients too,
// and the rest agree to 1e-12 relative.
func TestMapVolumeMatchesSerialOracle(t *testing.T) {
	const steps, maxPos = 6, 3
	for _, k := range []int{1, 2} {
		for _, tc := range t2vOracleCases(t, steps, k, maxPos) {
			rng := rand.New(rand.NewSource(67))
			tod := tensor.New(tc.topo.N, steps)
			for i := range tod.Data {
				tod.Data[i] = rng.Float64() * 60
			}
			for _, train := range []bool{false, true} {
				label := fmt.Sprintf("%s k=%d train=%v", tc.name, k, train)
				cfg := DefaultConfig()
				cfg.RoutesPerOD = k
				cfg.MaxPos = maxPos
				cfg.MaxTrips = 60
				cfg.DropoutRate = 0.3
				cfg.Seed = 29
				// Distinct split logits make the route split non-uniform.
				build := func() *Model {
					m := NewModel(tc.topo, cfg)
					split := m.T2V.(*AttentionT2V).splitLogits.Value
					for i := range split.Data {
						split.Data[i] = 0.3 * float64(i%5)
					}
					return m
				}
				oVol, oTodGrad, oGrads := mapVolumeGrads(withSerialT2V(build()), tod, train)
				vol, todGrad, grads := mapVolumeGrads(build(), tod, train)
				requireBitsEqual(t, label+" volume", vol.Data, oVol.Data)
				requireBitsEqual(t, label+" tod.Grad", todGrad.Data, oTodGrad.Data)
				for name, want := range oGrads {
					if t2vBitwiseGrads[name] {
						requireBitsEqual(t, label+" "+name+" grad", grads[name].Data, want.Data)
					} else {
						requireRelClose(t, label+" "+name+" grad", grads[name].Data, want.Data, 1e-12)
					}
				}
			}
		}
	}
}

// TestMapVolumeTapeSize: one MapVolume records as many tape nodes on the
// 24-link 3×3 grid as on the 360-link Manhattan preset, at 1 and at 2 routes
// per OD (the per-route and per-link build recorded 568 and 597 at 1).
func TestMapVolumeTapeSize(t *testing.T) {
	for _, k := range []int{1, 2} {
		counts := make([]int, 0, 2)
		for _, tc := range t2vOracleCases(t, 6, k, 3) {
			cfg := DefaultConfig()
			cfg.RoutesPerOD = k
			cfg.MaxPos = 3
			m := NewModel(tc.topo, cfg)
			g := autodiff.NewGraph()
			tod := g.Const(tensor.Full(20, tc.topo.N, tc.topo.T))
			before := g.NumNodes()
			m.T2V.MapVolume(g, tod, false)
			counts = append(counts, g.NumNodes()-before)
			g.Release()
		}
		if counts[0] != counts[1] {
			t.Fatalf("k=%d: MapVolume records %d nodes on the 3×3 grid but %d on Manhattan", k, counts[0], counts[1])
		}
	}
}

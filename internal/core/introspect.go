package core

import (
	"fmt"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// AttentionProfile exposes the learned dynamic attention of the TOD-Volume
// mapping (Eq. 8) for analysis — the RQ4 angle of explaining what the model
// learned. For the given OD's first route and a link position along it, it
// returns the (Lookback × T) lag-attention matrix evaluated at the given TOD
// tensor: entry (w, t) is how much the link's volume at interval t attends
// to that route's trips w intervals earlier.
func (m *Model) AttentionProfile(tod *tensor.Tensor, od, pos int) (*tensor.Tensor, error) {
	att, ok := m.T2V.(*AttentionT2V)
	if !ok {
		return nil, fmt.Errorf("core: attention profile requires the standard TOD-Volume module")
	}
	if od < 0 || od >= m.Topo.N {
		return nil, fmt.Errorf("core: OD index %d out of range", od)
	}
	route := m.Topo.RoutesOfOD(od)[0]
	if pos < 0 || pos >= len(route) {
		return nil, fmt.Errorf("core: position %d out of range for a %d-link route", pos, len(route))
	}
	if tod.Rank() != 2 || tod.Dim(0) != m.Topo.N || tod.Dim(1) != m.Topo.T {
		return nil, fmt.Errorf("core: TOD shape %v, want [%d %d]", tod.Shape(), m.Topo.N, m.Topo.T)
	}
	return att.attentionProfile(tod, od*m.Topo.K, pos), nil
}

// attentionProfile evaluates the lag attention of one (route, position) as
// MapVolume does in inference mode, transposed to (Lookback × T).
func (a *AttentionT2V) attentionProfile(tod *tensor.Tensor, route, pos int) *tensor.Tensor {
	g := autodiff.NewGraph()
	defer g.Release()
	_, logits, _ := a.routeHeads(g, g.Const(tod), false)
	rows := make([]int, a.topo.T)
	positions := make([]int, a.topo.T)
	for t := range rows {
		rows[t] = route*a.topo.T + t
		positions[t] = a.clampPos(pos)
	}
	return tensor.Transpose(a.lagAttention(g, logits, rows, positions).Value)
}

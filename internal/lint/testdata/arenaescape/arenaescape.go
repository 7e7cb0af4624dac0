// Package arenaescape exercises the arenaescape analyzer: tensors drawn
// from the arena (tensor.Get/GetLike, Arena.Get, Graph.Alloc, and the
// un-zeroed *Uninit twins of tensor.Get and Graph.Alloc) are reclaimed on Graph.Reset and must not
// outlive the frame through fields, globals, channels, or returns.
package arenaescape

import (
	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

type holder struct {
	buf *tensor.Tensor
}

type graphLike struct {
	owned []*tensor.Tensor
}

var global *tensor.Tensor

// fieldEscape parks an arena buffer in a struct field that outlives Reset.
func fieldEscape(h *holder) {
	t := tensor.Get(4)
	h.buf = t // want "arena-allocated tensor stored into a struct field"
}

// globalEscape parks an arena buffer in a package-level variable.
func globalEscape() {
	global = tensor.Get(4) // want "arena-allocated tensor stored into a package-level variable"
}

// returnEscape hands an arena buffer to a caller that cannot see the arena.
func returnEscape() *tensor.Tensor {
	t := tensor.Get(4)
	return t // want "arena-allocated tensor returned to the caller"
}

// channelEscape sends an arena buffer to an unknown receiver.
func channelEscape(ch chan *tensor.Tensor) {
	t := tensor.Get(4)
	ch <- t // want "arena-allocated tensor sent on a channel"
}

// reshapeEscape returns a view: views share the arena-owned backing array.
func reshapeEscape() *tensor.Tensor {
	t := tensor.Get(4)
	return t.Reshape(2, 2) // want "arena-allocated tensor returned to the caller"
}

// putSettles returns the buffer to the pool before the frame ends.
func putSettles() {
	t := tensor.Get(4)
	t.Fill(1)
	tensor.Put(t)
}

// arenaPutSettles does the same through an explicit arena.
func arenaPutSettles(a *tensor.Arena) float64 {
	t := a.Get(4)
	v := t.Data[0]
	a.Put(t)
	return v
}

// ownedAppendSettles registers the tensor with a graph-style ownership
// ledger (the Graph.Alloc pattern); Reset reclaims it from there.
func ownedAppendSettles(g *graphLike) *tensor.Tensor {
	t := tensor.Get(4)
	g.owned = append(g.owned, t)
	return t
}

// cloneLaunders copies the data out of the arena entirely.
func cloneLaunders() *tensor.Tensor {
	t := tensor.Get(4)
	defer tensor.Put(t)
	return t.Clone()
}

// nodeFieldAllowed stores a Graph.Alloc tensor into an autodiff node: nodes
// die with the tape at the same Reset that reclaims the tensor.
func nodeFieldAllowed(g *autodiff.Graph, n *autodiff.Node) {
	n.Grad = g.Alloc(4)
}

// branchEscape leaks on only one path; the dataflow still sees it.
func branchEscape(h *holder, cond bool) {
	t := tensor.Get(4)
	if cond {
		tensor.Put(t)
		return
	}
	h.buf = t // want "arena-allocated tensor stored into a struct field"
}

// uninitFieldEscape parks an un-zeroed arena buffer in a struct field.
func uninitFieldEscape(h *holder) {
	t := tensor.GetUninit(4)
	h.buf = t // want "arena-allocated tensor stored into a struct field"
}

// uninitLikeReturnEscape returns an un-zeroed buffer shaped like its input.
func uninitLikeReturnEscape(like *tensor.Tensor) *tensor.Tensor {
	t := tensor.GetLikeUninit(like)
	return t // want "arena-allocated tensor returned to the caller"
}

// graphUninitChannelEscape sends an un-zeroed graph allocation away.
func graphUninitChannelEscape(g *autodiff.Graph, ch chan *tensor.Tensor) {
	t := g.AllocUninit(4)
	ch <- t // want "arena-allocated tensor sent on a channel"
}

// graphUninitLikeFieldEscape parks an un-zeroed AllocLike in a field.
func graphUninitLikeFieldEscape(g *autodiff.Graph, h *holder, like *tensor.Tensor) {
	h.buf = g.AllocLikeUninit(like) // want "arena-allocated tensor stored into a struct field"
}

// uninitPutSettles returns the un-zeroed buffer to the pool.
func uninitPutSettles() {
	t := tensor.GetUninit(4)
	t.Fill(1)
	tensor.Put(t)
}

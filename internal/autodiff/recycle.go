package autodiff

import (
	"sync"

	"ovs/internal/tensor"
)

// This file implements graph recycling: node slabs and graph-owned arena
// tensors that are reclaimed by Graph.Reset, so a training loop that reuses
// one graph per epoch reaches a steady state with near-zero allocations.
//
// Ownership rule: a tensor is owned by the graph if and only if it was
// allocated through Graph.Alloc/AllocLike (every op output, gradient buffer,
// and dropout mask). Tensors entering via Param/Const are never owned and
// therefore never returned to the arena — that makes a double-Put
// structurally impossible. No op hands a tensor view to the graph: Reshape
// copies precisely so that every owned tensor exclusively owns its backing
// array.
//
// Node slab rule: nodes live in pooled chunks of nodeChunkSize. Every node
// handed out is recorded on exactly one tape, so sweeping g.nodes at Reset
// zeroes every used slab entry; chunks in the global pool are therefore
// always fully zeroed, and a recycled chunk behaves exactly like a fresh one.

// nodeChunkSize is the number of Node structs per pooled slab. Child tapes
// created by Fork draw whole chunks too, so the value balances per-fork slab
// waste against slab churn on large tapes.
const nodeChunkSize = 256

var nodeChunks struct {
	mu   sync.Mutex
	free [][]Node
}

func getNodeChunk() []Node {
	nodeChunks.mu.Lock()
	var c []Node
	if k := len(nodeChunks.free); k > 0 {
		c = nodeChunks.free[k-1]
		nodeChunks.free[k-1] = nil
		nodeChunks.free = nodeChunks.free[:k-1]
	}
	nodeChunks.mu.Unlock()
	if c == nil {
		c = make([]Node, nodeChunkSize)
	}
	return c
}

// putNodeChunk returns a chunk whose entries are all zero (see the slab rule
// above) to the global pool.
func putNodeChunk(c []Node) {
	nodeChunks.mu.Lock()
	nodeChunks.free = append(nodeChunks.free, c)
	nodeChunks.mu.Unlock()
}

// node hands out the next slab entry of this tape. The entry is zero-valued.
func (g *Graph) node() *Node {
	if g.curUsed == len(g.cur) {
		if g.cur != nil {
			g.full = append(g.full, g.cur)
		}
		g.cur = getNodeChunk()
		g.curUsed = 0
	}
	n := &g.cur[g.curUsed]
	g.curUsed++
	return n
}

// newNode records a node with the given value on the tape and returns it.
// Callers set the static backward rule and its operand fields on the returned
// node. Any shape validation must happen before newNode so that a panicking
// op never leaves a dirty, unrecorded slab entry behind.
func (g *Graph) newNode(val *tensor.Tensor, requires bool) *Node {
	n := g.node()
	n.Value = val
	n.requires = requires
	return g.add(n)
}

// Alloc returns a zero-filled graph-owned tensor drawn from the tensor arena.
// The graph reclaims it on Reset/Release, so the caller must not retain it
// (or any view of it) beyond the graph's lifetime — Clone anything that
// escapes.
func (g *Graph) Alloc(shape ...int) *tensor.Tensor {
	t := tensor.Get(shape...)
	g.owned = append(g.owned, t)
	return t
}

// AllocLike is Alloc with t's shape.
func (g *Graph) AllocLike(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.GetLike(t)
	g.owned = append(g.owned, out)
	return out
}

// AllocUninit is Alloc without the zero fill: the contents are unspecified
// (NaN under -tags ovspoison). Use it only for an op output the op writes in
// full before reading any element — the elementwise *To kernels, GEMM
// overwrite outputs, copies.
func (g *Graph) AllocUninit(shape ...int) *tensor.Tensor {
	t := tensor.GetUninit(shape...)
	g.owned = append(g.owned, t)
	return t
}

// AllocLikeUninit is AllocUninit with t's shape.
func (g *Graph) AllocLikeUninit(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.GetLikeUninit(t)
	g.owned = append(g.owned, out)
	return out
}

// Reset clears the tape for reuse: every owned tensor returns to the arena,
// every node slab entry is zeroed, and full slabs return to the global pool.
// Node pointers and owned tensors from before the Reset are invalid
// afterwards. The graph keeps its node list capacity, its current slab, and
// its pooled children, so a steady-state epoch loop performs no tape
// allocation at all.
func (g *Graph) Reset() {
	if g.parent != nil {
		panic("autodiff: Reset of a forked child graph")
	}
	if !g.busy.CompareAndSwap(false, true) {
		panic("autodiff: Reset during concurrent graph construction")
	}
	for i, n := range g.nodes {
		*n = Node{}
		g.nodes[i] = nil
	}
	g.nodes = g.nodes[:0]
	for i, t := range g.owned {
		tensor.Put(t)
		g.owned[i] = nil
	}
	g.owned = g.owned[:0]
	for i, c := range g.full {
		putNodeChunk(c)
		g.full[i] = nil
	}
	g.full = g.full[:0]
	g.curUsed = 0
	g.busy.Store(false)
}

// Release resets the graph and returns every remaining pooled resource (the
// current slab and pooled child tapes). Call it when a graph goes out of
// scope for good; the graph remains usable, it just starts cold again.
func (g *Graph) Release() {
	g.Reset()
	if g.cur != nil {
		putNodeChunk(g.cur)
		g.cur = nil
	}
	for i, c := range g.children {
		if c.cur != nil {
			putNodeChunk(c.cur)
			c.cur = nil
		}
		g.children[i] = nil
	}
	g.children = g.children[:0]
}

// Package autodiff implements a small reverse-mode automatic differentiation
// engine over dense tensors. It is the training substrate for the OVS model
// and the learned baselines: each forward pass records operations on a tape,
// and Backward replays the tape in reverse, accumulating gradients into
// persistent Parameters.
//
// The design favors explicitness over generality: every operation has a
// hand-written backward rule that is verified against finite differences in
// the package tests. Ops allocate their outputs and gradient buffers through
// the graph (Graph.Alloc), which draws from the tensor arena and reclaims
// everything on Graph.Reset — see recycle.go.
//
// Backward rules are static functions dispatched through Node.backFn, with
// operands stored in the node itself (a, b, c, d, srcs, ext, x0, i0, i1, idx,
// segs) rather than captured in closures. A closure per op would be one heap
// allocation per tape node; the static form keeps the steady-state hot loop
// free of per-node allocations because the Node structs live in pooled
// slabs.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"ovs/internal/tensor"
)

// Parameter is a trainable tensor with persistent gradient storage. It lives
// outside any single Graph so that optimizers can update it across many
// forward/backward passes.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	frozen atomic.Bool
}

// NewParameter wraps value as a trainable parameter with zeroed gradient.
func NewParameter(name string, value *tensor.Tensor) *Parameter {
	return &Parameter{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// SetFrozen marks the parameter frozen (or unfrozen). A frozen parameter is
// recorded on the tape as a gradient-free leaf, so Backward never writes to
// its Grad tensor. Freezing the parameters of modules that are only read
// during a training phase is what makes concurrent training runs (e.g.
// parallel FitBestCtx restarts sharing the pre-trained T2V/V2S modules) free of
// data races: a frozen parameter is immutable for the duration.
func (p *Parameter) SetFrozen(frozen bool) { p.frozen.Store(frozen) }

// Frozen reports whether the parameter is currently frozen.
func (p *Parameter) Frozen() bool { return p.frozen.Load() }

// Node is one value in the computation graph. Value is set during the
// forward pass; Grad is allocated lazily and filled during Backward.
//
// Nodes live in pooled slabs owned by their graph (see recycle.go), so the
// struct doubles as the tape record: backFn is the op's static backward rule
// and the remaining fields are its operands. Graph.Reset zeroes the whole
// struct, which drops every operand reference at once.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	graph    *Graph
	requires bool // does any parameter feed into this node?
	param    *Parameter

	// backFn accumulates into the operands' Grad; nil for leaves. It is
	// always a package-level function (never a closure), so recording an op
	// allocates nothing beyond the slab entry.
	backFn func(out *Node)
	a      *Node          // first operand
	b      *Node          // second operand
	c      *Node          // third operand (Conv1DSame and LSTM bias)
	d      *Node          // fourth operand (LSTM recurrent weight)
	srcs   []*Node        // variadic operands (StackRows, ConcatCols)
	ext    *tensor.Tensor // auxiliary tensor (dropout mask, LSTM gate buffer and step states)
	x0     float64        // scalar operand (Scale factor, MulScalarNode value)
	i0, i1 int            // integer operands (slice bounds, row index, dims)
	idx    []int          // row indices (GatherRows)
	segs   [][]int        // row groups (ScatterAddRows)
}

// Graph is a tape of nodes in forward (topological) order.
//
// A tape is strictly single-writer: exactly one goroutine may record nodes on
// it at any moment. Work that is the same for many items (routes, links,
// sequences) is recorded as one batched op over all of them, not as one
// sub-graph per item, so a tape never needs concurrent construction. add
// enforces the rule with a cheap tripwire that panics on detected
// concurrent appends.
//
// Graphs recycle: Reset returns every owned tensor to the arena and every
// node slab to the pool, so per-epoch loops reuse one graph instead of
// reallocating the whole tape (see recycle.go).
type Graph struct {
	nodes []*Node

	// busy is the single-writer tripwire flag toggled around each append.
	busy atomic.Bool

	// owned lists the arena tensors allocated through Alloc, reclaimed on
	// Reset.
	owned []*tensor.Tensor
	// cur/curUsed/full are the node slabs backing this tape's nodes.
	cur     []Node
	curUsed int
	full    [][]Node
}

// NewGraph returns an empty tape.
func NewGraph() *Graph { return &Graph{} }

// NumNodes returns the number of recorded nodes (useful in tests and for
// instrumentation).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Graph returns the tape this node was recorded on. Layers use it to attach
// their parameter leaves to the same tape as their input.
func (n *Node) Graph() *Graph { return n.graph }

func (g *Graph) add(n *Node) *Node {
	if !g.busy.CompareAndSwap(false, true) {
		panic("autodiff: concurrent append to a single-writer graph")
	}
	n.graph = g
	g.nodes = append(g.nodes, n)
	g.busy.Store(false)
	return n
}

// Param records a leaf node backed by a trainable parameter. Gradients flow
// into the parameter's persistent Grad tensor. A frozen parameter is recorded
// as a gradient-free leaf instead (its value is used, its Grad is never
// touched).
func (g *Graph) Param(p *Parameter) *Node {
	if p.Frozen() {
		return g.newNode(p.Value, false)
	}
	n := g.newNode(p.Value, true)
	n.Grad = p.Grad
	n.param = p
	return n
}

// Const records a leaf node with no gradient flow.
func (g *Graph) Const(t *tensor.Tensor) *Node {
	return g.newNode(t, false)
}

// ensureGrad allocates the node's gradient buffer on first use. It draws from
// the graph arena, so gradient buffers recycle with the tape.
func (n *Node) ensureGrad() *tensor.Tensor {
	if n.Grad == nil {
		n.Grad = n.graph.AllocLike(n.Value)
	}
	return n.Grad
}

// Backward runs reverse-mode differentiation from the given scalar output
// node. It panics if out is not scalar (shape [1]) or does not belong to g.
func (g *Graph) Backward(out *Node) {
	if out.graph != g {
		panic("autodiff: Backward on node from a different graph")
	}
	if out.Value.Size() != 1 {
		panic(fmt.Sprintf("autodiff: Backward requires a scalar output, got shape %v", out.Value.Shape()))
	}
	out.ensureGrad()
	out.Grad.Data[0] = 1
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		if n.backFn != nil && n.requires && n.Grad != nil {
			n.backFn(n)
		}
	}
}

// sameGraph returns the tape all operands were recorded on, panicking if
// they come from different graphs.
func sameGraph(op string, nodes ...*Node) *Graph {
	g := nodes[0].graph
	for _, n := range nodes[1:] {
		if n.graph != g {
			panic("autodiff: " + op + " mixes nodes from different graphs")
		}
	}
	return g
}

// ---- Elementwise binary operations ----

func backAdd(out *Node) {
	if out.a.requires {
		tensor.AddInPlace(out.a.ensureGrad(), out.Grad)
	}
	if out.b.requires {
		tensor.AddInPlace(out.b.ensureGrad(), out.Grad)
	}
}

// Add returns a + b elementwise.
func Add(a, b *Node) *Node {
	g := sameGraph("Add", a, b)
	val := tensor.AddTo(g.AllocLikeUninit(a.Value), a.Value, b.Value)
	out := g.newNode(val, a.requires || b.requires)
	out.backFn, out.a, out.b = backAdd, a, b
	return out
}

func backSub(out *Node) {
	if out.a.requires {
		tensor.AddInPlace(out.a.ensureGrad(), out.Grad)
	}
	if out.b.requires {
		tensor.AxpyInPlace(out.b.ensureGrad(), -1, out.Grad)
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Node) *Node {
	g := sameGraph("Sub", a, b)
	val := tensor.SubTo(g.AllocLikeUninit(a.Value), a.Value, b.Value)
	out := g.newNode(val, a.requires || b.requires)
	out.backFn, out.a, out.b = backSub, a, b
	return out
}

// backMul rounds each product before accumulating it (the conversions
// forbid an FMA), so every build matches the LSTM's vector gate-gradient
// kernels, which hold the graph path's Mul backward bit for bit.
func backMul(out *Node) {
	a, b := out.a, out.b
	if a.requires {
		ga := a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += float64(out.Grad.Data[i] * b.Value.Data[i])
		}
	}
	if b.requires {
		gb := b.ensureGrad()
		for i := range gb.Data {
			gb.Data[i] += float64(out.Grad.Data[i] * a.Value.Data[i])
		}
	}
}

// Mul returns the elementwise product a * b.
func Mul(a, b *Node) *Node {
	g := sameGraph("Mul", a, b)
	val := tensor.MulTo(g.AllocLikeUninit(a.Value), a.Value, b.Value)
	out := g.newNode(val, a.requires || b.requires)
	out.backFn, out.a, out.b = backMul, a, b
	return out
}

func backScale(out *Node) {
	if out.a.requires {
		tensor.AxpyInPlace(out.a.ensureGrad(), out.x0, out.Grad)
	}
}

// Scale returns a * s for a constant scalar s.
func Scale(a *Node, s float64) *Node {
	g := a.graph
	val := tensor.ScaleTo(g.AllocLikeUninit(a.Value), a.Value, s)
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.x0 = backScale, a, s
	return out
}

// backPassthrough accumulates the output gradient into the sole operand
// unchanged. Shared by AddScalar and any other identity-gradient op whose
// operand has the same shape as the output.
func backPassthrough(out *Node) {
	if out.a.requires {
		tensor.AddInPlace(out.a.ensureGrad(), out.Grad)
	}
}

// AddScalar returns a + s elementwise for a constant scalar s.
func AddScalar(a *Node, s float64) *Node {
	g := a.graph
	val := tensor.AddScalarTo(g.AllocLikeUninit(a.Value), a.Value, s)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backPassthrough, a
	return out
}

// ---- Linear algebra ----

func backMatMul(out *Node) {
	// dL/dA = dL/dOut · Bᵀ ; dL/dB = Aᵀ · dL/dOut — fused, no transpose
	// or product temporaries.
	if out.a.requires {
		tensor.MatMulNTAcc(out.a.ensureGrad(), out.Grad, out.b.Value)
	}
	if out.b.requires {
		tensor.MatMulTNAcc(out.b.ensureGrad(), out.a.Value, out.Grad)
	}
}

// MatMul returns the matrix product of two rank-2 nodes.
func MatMul(a, b *Node) *Node {
	g := sameGraph("MatMul", a, b)
	if a.Value.Rank() != 2 || b.Value.Rank() != 2 {
		panic(fmt.Sprintf("autodiff: MatMul requires rank-2 operands, got %v x %v", a.Value.Shape(), b.Value.Shape()))
	}
	if a.Value.Dim(1) != b.Value.Dim(0) {
		panic(fmt.Sprintf("autodiff: MatMul inner dimensions differ: %v x %v", a.Value.Shape(), b.Value.Shape()))
	}
	val := tensor.MatMulTo(g.AllocUninit(a.Value.Dim(0), b.Value.Dim(1)), a.Value, b.Value)
	out := g.newNode(val, a.requires || b.requires)
	out.backFn, out.a, out.b = backMatMul, a, b
	return out
}

func backAddRowVector(out *Node) {
	if out.a.requires {
		tensor.AddInPlace(out.a.ensureGrad(), out.Grad)
	}
	if out.b.requires {
		gv := out.b.ensureGrad()
		m, n := out.Grad.Dim(0), out.Grad.Dim(1)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				gv.Data[j] += out.Grad.Data[i*n+j]
			}
		}
	}
}

// AddRowVector adds a rank-1 bias node v to every row of rank-2 node a.
func AddRowVector(a, v *Node) *Node {
	g := sameGraph("AddRowVector", a, v)
	val := tensor.AddRowVectorTo(g.AllocLikeUninit(a.Value), a.Value, v.Value)
	out := g.newNode(val, a.requires || v.requires)
	out.backFn, out.a, out.b = backAddRowVector, a, v
	return out
}

func backAffine(out *Node) {
	x, w, b := out.a, out.b, out.c
	// out.Grad feeds both GEMMs directly. The unfused MatMul/AddRowVector
	// pair first copies it into a zero-filled gradient (+0 + g), which would
	// only differ from g where g is -0. out.Grad never holds -0: it is
	// itself a zero-filled buffer that backward rules add into (+0 + v is
	// never -0), or the root's seeded 1, so the copy is the identity.
	if x.requires {
		tensor.MatMulNTAcc(x.ensureGrad(), out.Grad, w.Value)
	}
	if w.requires {
		tensor.MatMulTNAcc(w.ensureGrad(), x.Value, out.Grad)
	}
	if b.requires {
		gb := b.ensureGrad().Data
		m, n := out.Grad.Dim(0), out.Grad.Dim(1)
		for i := 0; i < m; i++ {
			for j, v := range out.Grad.Data[i*n : (i+1)*n] {
				gb[j] += v
			}
		}
	}
}

// Affine returns x·w + b for rank-2 x (m×k), rank-2 w (k×n) and a rank-1
// bias b (n) broadcast over rows: one node in place of
// AddRowVector(MatMul(x, w), b), and bitwise identical to that pair, value
// and every gradient. The bias is added in the GEMM epilogue, so the node
// saves the MatMul's intermediate value, its zero-filled gradient, and the
// two elementwise passes between them; the bias gradient sums out.Grad's
// rows in ascending order, as AddRowVector's backward does.
func Affine(x, w, b *Node) *Node {
	g := sameGraph("Affine", x, w, b)
	if x.Value.Rank() != 2 || w.Value.Rank() != 2 || b.Value.Rank() != 1 {
		panic(fmt.Sprintf("autodiff: Affine requires rank-2 x, w and a rank-1 bias, got %v x %v + %v", x.Value.Shape(), w.Value.Shape(), b.Value.Shape()))
	}
	if x.Value.Dim(1) != w.Value.Dim(0) || w.Value.Dim(1) != b.Value.Dim(0) {
		panic(fmt.Sprintf("autodiff: Affine shape mismatch %v x %v + %v", x.Value.Shape(), w.Value.Shape(), b.Value.Shape()))
	}
	val := tensor.AffineTo(g.AllocUninit(x.Value.Dim(0), w.Value.Dim(1)), x.Value, w.Value, b.Value)
	out := g.newNode(val, x.requires || w.requires || b.requires)
	out.backFn, out.a, out.b, out.c = backAffine, x, w, b
	return out
}

func backTranspose(out *Node) {
	if out.a.requires {
		tensor.TransposeAcc(out.a.ensureGrad(), out.Grad)
	}
}

// Transpose returns the transpose of a rank-2 node, or of each matrix of a
// rank-3 (B × m × n) node.
func Transpose(a *Node) *Node {
	g, v := a.graph, a.Value
	var val *tensor.Tensor
	switch v.Rank() {
	case 2:
		val = g.AllocUninit(v.Dim(1), v.Dim(0))
	case 3:
		val = g.AllocUninit(v.Dim(0), v.Dim(2), v.Dim(1))
	default:
		panic(fmt.Sprintf("autodiff: Transpose requires rank 2 or 3, got %v", v.Shape()))
	}
	tensor.TransposeTo(val, v)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backTranspose, a
	return out
}

// ---- Activations ----

func backSigmoid(out *Node) {
	if out.a.requires {
		tensor.SigmoidBackwardAcc(out.a.ensureGrad(), out.Grad, out.Value)
	}
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Node) *Node {
	g := a.graph
	val := tensor.SigmoidTo(g.AllocLikeUninit(a.Value), a.Value)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backSigmoid, a
	return out
}

func backTanh(out *Node) {
	if out.a.requires {
		tensor.TanhBackwardAcc(out.a.ensureGrad(), out.Grad, out.Value)
	}
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(a *Node) *Node {
	g := a.graph
	val := tensor.TanhTo(g.AllocLikeUninit(a.Value), a.Value)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backTanh, a
	return out
}

func backReLU(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		for i := range ga.Data {
			if out.a.Value.Data[i] > 0 {
				ga.Data[i] += out.Grad.Data[i]
			}
		}
	}
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Node) *Node {
	g := a.graph
	val := tensor.ReLUTo(g.AllocLikeUninit(a.Value), a.Value)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backReLU, a
	return out
}

func backSqrt(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += out.Grad.Data[i] * 0.5 / out.Value.Data[i]
		}
	}
}

// Sqrt applies the square root elementwise. Inputs must be positive (the
// derivative diverges at zero); callers add an epsilon where needed.
func Sqrt(a *Node) *Node {
	g := a.graph
	val := tensor.SqrtTo(g.AllocLikeUninit(a.Value), a.Value)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backSqrt, a
	return out
}

func backSoftplus(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += out.Grad.Data[i] / (1 + math.Exp(-out.a.Value.Data[i]))
		}
	}
}

// Softplus applies log(1+e^x) elementwise — a smooth non-negativity map used
// for learnable gain parameters.
func Softplus(a *Node) *Node {
	g := a.graph
	val := tensor.SoftplusTo(g.AllocLikeUninit(a.Value), a.Value)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backSoftplus, a
	return out
}

func backMulScalarNode(out *Node) {
	a, s := out.a, out.b
	if a.requires {
		tensor.AxpyInPlace(a.ensureGrad(), out.x0, out.Grad)
	}
	if s.requires {
		gs := s.ensureGrad()
		for i := range out.Grad.Data {
			gs.Data[0] += out.Grad.Data[i] * a.Value.Data[i]
		}
	}
}

// MulScalarNode multiplies every element of a by the single-element node s.
func MulScalarNode(a, s *Node) *Node {
	g := sameGraph("MulScalarNode", a, s)
	if s.Value.Size() != 1 {
		panic(fmt.Sprintf("autodiff: MulScalarNode scalar has shape %v", s.Value.Shape()))
	}
	sv := s.Value.Data[0]
	val := tensor.ScaleTo(g.AllocLikeUninit(a.Value), a.Value, sv)
	out := g.newNode(val, a.requires || s.requires)
	out.backFn, out.a, out.b, out.x0 = backMulScalarNode, a, s, sv
	return out
}

func backSoftmaxRows(out *Node) {
	if !out.a.requires {
		return
	}
	rows, cols := out.i0, out.i1
	ga := out.a.ensureGrad()
	for r := 0; r < rows; r++ {
		// dx_i = s_i * (dy_i - Σ_j dy_j s_j)
		dot := 0.0
		for j := 0; j < cols; j++ {
			dot += out.Grad.Data[r*cols+j] * out.Value.Data[r*cols+j]
		}
		for j := 0; j < cols; j++ {
			s := out.Value.Data[r*cols+j]
			ga.Data[r*cols+j] += s * (out.Grad.Data[r*cols+j] - dot)
		}
	}
}

// SoftmaxRows applies a numerically stable softmax independently to each row
// of a rank-2 node (or to the whole of a rank-1 node).
func SoftmaxRows(a *Node) *Node {
	g := a.graph
	var rows, cols int
	switch a.Value.Rank() {
	case 1:
		rows, cols = 1, a.Value.Dim(0)
	case 2:
		rows, cols = a.Value.Dim(0), a.Value.Dim(1)
	default:
		panic(fmt.Sprintf("autodiff: SoftmaxRows requires rank 1 or 2, got %v", a.Value.Shape()))
	}
	val := g.AllocLike(a.Value)
	for r := 0; r < rows; r++ {
		row := a.Value.Data[r*cols : (r+1)*cols]
		max := math.Inf(-1)
		for _, x := range row {
			if x > max {
				max = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - max)
			val.Data[r*cols+j] = e
			sum += e
		}
		for j := 0; j < cols; j++ {
			val.Data[r*cols+j] /= sum
		}
	}
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.i0, out.i1 = backSoftmaxRows, a, rows, cols
	return out
}

func backDropout(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += out.Grad.Data[i] * out.ext.Data[i]
		}
	}
}

// Dropout zeroes each element with probability p during training and scales
// the survivors by 1/(1-p) (inverted dropout). With train=false it is the
// identity.
func Dropout(a *Node, p float64, train bool, rng *rand.Rand) *Node {
	if !train || p <= 0 {
		return a
	}
	if p >= 1 {
		panic("autodiff: Dropout probability must be < 1")
	}
	g := a.graph
	mask := g.AllocLike(a.Value)
	scale := 1 / (1 - p)
	for i := range mask.Data {
		if rng.Float64() >= p {
			mask.Data[i] = scale
		}
	}
	val := tensor.MulTo(g.AllocLikeUninit(a.Value), a.Value, mask)
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.ext = backDropout, a, mask
	return out
}

package autodiff

import (
	"fmt"

	"ovs/internal/tensor"
)

func backSum(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		gr := out.Grad.Data[0]
		for i := range ga.Data {
			ga.Data[i] += gr
		}
	}
}

// Sum reduces a node to a scalar (shape [1]) by summing all elements.
func Sum(a *Node) *Node {
	g := a.graph
	val := g.Alloc(1)
	val.Data[0] = a.Value.Sum()
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backSum, a
	return out
}

// Mean reduces a node to a scalar (shape [1]) by averaging all elements.
func Mean(a *Node) *Node {
	return Scale(Sum(a), 1/float64(a.Value.Size()))
}

// MSE returns the scalar mean squared error between pred and a constant
// target tensor. This is the main loss of Eq. 12 (up to the mean/sum
// convention, which is absorbed by the learning rate).
func MSE(pred *Node, target *tensor.Tensor) *Node {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autodiff: MSE shape mismatch %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	diff := Sub(pred, pred.graph.Const(target))
	return Mean(Mul(diff, diff))
}

func backRow(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		i, n := out.i0, out.Value.Dim(0)
		for j := 0; j < n; j++ {
			ga.Data[i*n+j] += out.Grad.Data[j]
		}
	}
}

// Row extracts row i of a rank-2 node as a rank-1 node.
func Row(a *Node, i int) *Node {
	if a.Value.Rank() != 2 {
		panic(fmt.Sprintf("autodiff: Row requires rank-2, got %v", a.Value.Shape()))
	}
	g := a.graph
	n := a.Value.Dim(1)
	val := g.Alloc(n)
	copy(val.Data, a.Value.Data[i*n:(i+1)*n])
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.i0 = backRow, a, i
	return out
}

func backStackRows(out *Node) {
	n := out.Value.Dim(1)
	for i, r := range out.srcs {
		if !r.requires {
			continue
		}
		gr := r.ensureGrad()
		for j := 0; j < n; j++ {
			gr.Data[j] += out.Grad.Data[i*n+j]
		}
	}
}

// StackRows stacks rank-1 nodes of equal length into a rank-2 node, one row
// per input node.
func StackRows(rows []*Node) *Node {
	if len(rows) == 0 {
		panic("autodiff: StackRows requires at least one row")
	}
	g := sameGraph("StackRows", rows...)
	n := rows[0].Value.Dim(0)
	req := false
	for i, r := range rows {
		if r.Value.Rank() != 1 || r.Value.Dim(0) != n {
			panic(fmt.Sprintf("autodiff: StackRows row %d shape %v, want [%d]", i, r.Value.Shape(), n))
		}
		req = req || r.requires
	}
	val := g.Alloc(len(rows), n)
	for i, r := range rows {
		copy(val.Data[i*n:(i+1)*n], r.Value.Data)
	}
	out := g.newNode(val, req)
	out.backFn, out.srcs = backStackRows, rows
	return out
}

func backStackSteps(out *Node) {
	n := out.Value.Dim(1)
	steps := len(out.srcs)
	for t, s := range out.srcs {
		if !s.requires {
			continue
		}
		gs := s.ensureGrad().Data
		for b := 0; b < s.Value.Dim(0); b++ {
			row := out.Grad.Data[(b*steps+t)*n : (b*steps+t+1)*n]
			gr := gs[b*n : (b+1)*n]
			for j, v := range row {
				gr[j] += v
			}
		}
	}
}

// StackSteps assembles the per-timestep outputs of a batched recurrence into
// one sequence-major node: every steps[t] is (batch × n), and row b·T+t of
// the (batch·T × n) result is row b of steps[t], so each sequence's T rows
// are contiguous. With batch 1 it stacks the steps' single rows in order, as
// StackRows does.
func StackSteps(steps []*Node) *Node {
	if len(steps) == 0 {
		panic("autodiff: StackSteps requires at least one step")
	}
	g := sameGraph("StackSteps", steps...)
	first := steps[0].Value
	req := false
	for t, s := range steps {
		if first.Rank() != 2 || !s.Value.SameShape(first) {
			panic(fmt.Sprintf("autodiff: StackSteps step %d shape %v, want a rank-2 %v", t, s.Value.Shape(), first.Shape()))
		}
		req = req || s.requires
	}
	batch, n := first.Dim(0), first.Dim(1)
	// Every row b·T+t is copied from exactly one step below.
	val := g.AllocUninit(batch*len(steps), n)
	for t, s := range steps {
		for b := 0; b < batch; b++ {
			copy(val.Data[(b*len(steps)+t)*n:(b*len(steps)+t+1)*n], s.Value.Data[b*n:(b+1)*n])
		}
	}
	out := g.newNode(val, req)
	out.backFn, out.srcs = backStackSteps, steps
	return out
}

func backConcatCols(out *Node) {
	rows, cols := out.Value.Dim(0), out.Value.Dim(1)
	off := 0
	for _, p := range out.srcs {
		w := p.Value.Dim(1)
		if p.requires {
			gp := p.ensureGrad().Data
			for r := 0; r < rows; r++ {
				gr := gp[r*w : (r+1)*w]
				for j, v := range out.Grad.Data[r*cols+off : r*cols+off+w] {
					gr[j] += v
				}
			}
		}
		off += w
	}
}

// ConcatCols concatenates rank-2 nodes with equal row counts side by side:
// row r of the result is row r of every part, in argument order.
func ConcatCols(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("autodiff: ConcatCols requires at least one part")
	}
	g := sameGraph("ConcatCols", parts...)
	rows := parts[0].Value.Dim(0)
	cols := 0
	req := false
	for _, p := range parts {
		if p.Value.Rank() != 2 || p.Value.Dim(0) != rows {
			panic(fmt.Sprintf("autodiff: ConcatCols part shape %v, want %d rows", p.Value.Shape(), rows))
		}
		cols += p.Value.Dim(1)
		req = req || p.requires
	}
	val := g.Alloc(rows, cols)
	off := 0
	for _, p := range parts {
		w := p.Value.Dim(1)
		for r := 0; r < rows; r++ {
			copy(val.Data[r*cols+off:r*cols+off+w], p.Value.Data[r*w:(r+1)*w])
		}
		off += w
	}
	out := g.newNode(val, req)
	out.backFn, out.srcs = backConcatCols, parts
	return out
}

func backConcatVec(out *Node) {
	off := 0
	for _, p := range out.srcs {
		n := p.Value.Dim(0)
		if p.requires {
			gp := p.ensureGrad()
			for j := 0; j < n; j++ {
				gp.Data[j] += out.Grad.Data[off+j]
			}
		}
		off += n
	}
}

// ConcatVec concatenates rank-1 nodes into one long rank-1 node.
func ConcatVec(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("autodiff: ConcatVec requires at least one part")
	}
	g := sameGraph("ConcatVec", parts...)
	total := 0
	req := false
	for _, p := range parts {
		if p.Value.Rank() != 1 {
			panic(fmt.Sprintf("autodiff: ConcatVec requires rank-1 parts, got %v", p.Value.Shape()))
		}
		total += p.Value.Dim(0)
		req = req || p.requires
	}
	val := g.Alloc(total)
	off := 0
	for _, p := range parts {
		copy(val.Data[off:], p.Value.Data)
		off += p.Value.Dim(0)
	}
	out := g.newNode(val, req)
	out.backFn, out.srcs = backConcatVec, parts
	return out
}

func backSliceVec(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		lo, hi := out.i0, out.i1
		for j := lo; j < hi; j++ {
			ga.Data[j] += out.Grad.Data[j-lo]
		}
	}
}

// SliceVec extracts elements [lo, hi) of a rank-1 node.
func SliceVec(a *Node, lo, hi int) *Node {
	if a.Value.Rank() != 1 {
		panic(fmt.Sprintf("autodiff: SliceVec requires rank-1, got %v", a.Value.Shape()))
	}
	if lo < 0 || hi > a.Value.Dim(0) || lo >= hi {
		panic(fmt.Sprintf("autodiff: SliceVec bounds [%d,%d) invalid for length %d", lo, hi, a.Value.Dim(0)))
	}
	g := a.graph
	val := g.Alloc(hi - lo)
	copy(val.Data, a.Value.Data[lo:hi])
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.i0, out.i1 = backSliceVec, a, lo, hi
	return out
}

// SumNodes adds any number of same-shaped nodes elementwise. It is the
// aggregation step of Eq. 7 (summing per-route embeddings into the system
// embedding).
func SumNodes(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("autodiff: SumNodes requires at least one part")
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = Add(out, p)
	}
	return out
}

func backReshape(out *Node) {
	if out.a.requires {
		ga := out.a.ensureGrad()
		for i := range ga.Data {
			ga.Data[i] += out.Grad.Data[i]
		}
	}
}

// Reshape returns a copy of a with a new shape of the same total size.
// Gradients flow through unchanged (the flat layout is identical). The copy —
// rather than a tensor view — keeps the output graph-owned and poolable: a
// view would alias the operand's backing array, which the arena must never
// see twice.
func Reshape(a *Node, shape ...int) *Node {
	g := a.graph
	val := g.Alloc(shape...)
	if len(val.Data) != len(a.Value.Data) {
		panic(fmt.Sprintf("autodiff: Reshape size mismatch %v -> %v", a.Value.Shape(), shape))
	}
	copy(val.Data, a.Value.Data)
	out := g.newNode(val, a.requires)
	out.backFn, out.a = backReshape, a
	return out
}

func backLagAttend(out *Node) {
	alpha, p := out.a, out.b
	w, tt := alpha.Value.Dim(0), alpha.Value.Dim(1)
	if alpha.requires {
		ga := alpha.ensureGrad()
		for t := 0; t < tt; t++ {
			for lag := 0; lag < w && lag <= t; lag++ {
				ga.Data[lag*tt+t] += out.Grad.Data[t] * p.Value.Data[t-lag]
			}
		}
	}
	if p.requires {
		gp := p.ensureGrad()
		for t := 0; t < tt; t++ {
			for lag := 0; lag < w && lag <= t; lag++ {
				gp.Data[t-lag] += out.Grad.Data[t] * alpha.Value.Data[lag*tt+t]
			}
		}
	}
}

// LagAttend computes the lag-attention contraction at the heart of the
// TOD-volume mapping (Eq. 4):
//
//	out[t] = Σ_{w=0..W-1} alpha[w, t] * p[t-w]
//
// where alpha is rank-2 (W × T) and p is rank-1 (T). Indices t-w < 0 refer
// to traffic before the horizon and contribute zero.
func LagAttend(alpha, p *Node) *Node {
	g := sameGraph("LagAttend", alpha, p)
	if alpha.Value.Rank() != 2 || p.Value.Rank() != 1 {
		panic(fmt.Sprintf("autodiff: LagAttend requires (rank-2, rank-1), got %v, %v", alpha.Value.Shape(), p.Value.Shape()))
	}
	w, tt := alpha.Value.Dim(0), alpha.Value.Dim(1)
	if p.Value.Dim(0) != tt {
		panic(fmt.Sprintf("autodiff: LagAttend time dims differ: alpha %v vs p %v", alpha.Value.Shape(), p.Value.Shape()))
	}
	val := g.Alloc(tt)
	for t := 0; t < tt; t++ {
		s := 0.0
		for lag := 0; lag < w && lag <= t; lag++ {
			s += alpha.Value.Data[lag*tt+t] * p.Value.Data[t-lag]
		}
		val.Data[t] = s
	}
	out := g.newNode(val, alpha.requires || p.requires)
	out.backFn, out.a, out.b = backLagAttend, alpha, p
	return out
}

func backConv1DSame(out *Node) {
	x, kernels, bias := out.a, out.b, out.c
	cin, tt := x.Value.Dim(0), x.Value.Dim(1)
	cout, k := kernels.Value.Dim(0), kernels.Value.Dim(2)
	half := k / 2
	for co := 0; co < cout; co++ {
		for t := 0; t < tt; t++ {
			gOut := out.Grad.Data[co*tt+t]
			//ovslint:ignore floateq exact-zero gradient skip is a sparsity fast path; any nonzero value must propagate
			if gOut == 0 {
				continue
			}
			if bias.requires {
				bias.ensureGrad().Data[co] += gOut
			}
			for ci := 0; ci < cin; ci++ {
				for kk := 0; kk < k; kk++ {
					src := t + kk - half
					if src < 0 || src >= tt {
						continue
					}
					if kernels.requires {
						kernels.ensureGrad().Data[(co*cin+ci)*k+kk] += gOut * x.Value.Data[ci*tt+src]
					}
					if x.requires {
						x.ensureGrad().Data[ci*tt+src] += gOut * kernels.Value.Data[(co*cin+ci)*k+kk]
					}
				}
			}
		}
	}
}

// Conv1DSame applies a multi-channel 1-D convolution with "same" zero
// padding along the time axis. Input x is (Cin × T), kernels is
// (Cout × Cin × K) with K odd, bias is (Cout). Output is (Cout × T).
// This realizes the 1×3 convolution layers of the attention network
// (Eqs. 5-6, Table IV).
func Conv1DSame(x, kernels, bias *Node) *Node {
	g := sameGraph("Conv1DSame", x, kernels, bias)
	if x.Value.Rank() != 2 || kernels.Value.Rank() != 3 || bias.Value.Rank() != 1 {
		panic(fmt.Sprintf("autodiff: Conv1DSame shapes x=%v kernels=%v bias=%v", x.Value.Shape(), kernels.Value.Shape(), bias.Value.Shape()))
	}
	cin, tt := x.Value.Dim(0), x.Value.Dim(1)
	cout, cin2, k := kernels.Value.Dim(0), kernels.Value.Dim(1), kernels.Value.Dim(2)
	if cin != cin2 || bias.Value.Dim(0) != cout {
		panic(fmt.Sprintf("autodiff: Conv1DSame channel mismatch x=%v kernels=%v bias=%v", x.Value.Shape(), kernels.Value.Shape(), bias.Value.Shape()))
	}
	if k%2 == 0 {
		panic("autodiff: Conv1DSame requires an odd kernel width")
	}
	half := k / 2
	val := g.Alloc(cout, tt)
	for co := 0; co < cout; co++ {
		for t := 0; t < tt; t++ {
			s := bias.Value.Data[co]
			for ci := 0; ci < cin; ci++ {
				for kk := 0; kk < k; kk++ {
					src := t + kk - half
					if src < 0 || src >= tt {
						continue
					}
					s += kernels.Value.Data[(co*cin+ci)*k+kk] * x.Value.Data[ci*tt+src]
				}
			}
			val.Data[co*tt+t] = s
		}
	}
	out := g.newNode(val, x.requires || kernels.requires || bias.requires)
	out.backFn, out.a, out.b, out.c = backConv1DSame, x, kernels, bias
	return out
}

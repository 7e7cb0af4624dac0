package autodiff

import (
	"fmt"
	"math"

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

func backGatherRows(out *Node) {
	if !out.a.requires {
		return
	}
	ga := out.a.ensureGrad().Data
	n := out.Value.Dim(1)
	// Descending, the order a tape of one row copy per output row replays
	// them in, so a row gathered several times sums its gradients in that
	// order.
	for i := len(out.idx) - 1; i >= 0; i-- {
		dst := ga[out.idx[i]*n : (out.idx[i]+1)*n]
		for j, v := range out.Grad.Data[i*n : (i+1)*n] {
			dst[j] += v
		}
	}
}

// GatherRows returns the (len(idx) × n) node whose row i is row idx[i] of
// the rank-2 (m × n) node a. Indices may repeat. The node keeps idx for its
// backward rule, so idx must not change while the node is on the tape.
func GatherRows(a *Node, idx []int) *Node {
	if a.Value.Rank() != 2 {
		panic(fmt.Sprintf("autodiff: GatherRows requires rank-2, got %v", a.Value.Shape()))
	}
	n := a.Value.Dim(1)
	g := a.graph
	// Every row is copied in full below.
	val := g.AllocUninit(len(idx), n)
	for i, r := range idx {
		copy(val.Data[i*n:(i+1)*n], a.Value.Data[r*n:(r+1)*n])
	}
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.idx = backGatherRows, a, idx
	return out
}

func backScatterAddRows(out *Node) {
	if !out.a.requires {
		return
	}
	ga := out.a.ensureGrad().Data
	n := out.Value.Dim(1)
	for s, seg := range out.segs {
		row := out.Grad.Data[s*n : (s+1)*n]
		for _, r := range seg {
			dst := ga[r*n : (r+1)*n]
			for j, v := range row {
				dst[j] += v
			}
		}
	}
}

// ScatterAddRows sums groups of rows of the rank-2 (m × n) node a: row s of
// the (len(segs) × n) result is the sum of the rows of a listed in segs[s],
// added left to right in list order as SumNodes adds its parts. An empty
// group gives a zero row. As with GatherRows, segs must not change while the
// node is on the tape.
func ScatterAddRows(a *Node, segs [][]int) *Node {
	if a.Value.Rank() != 2 {
		panic(fmt.Sprintf("autodiff: ScatterAddRows requires rank-2, got %v", a.Value.Shape()))
	}
	n := a.Value.Dim(1)
	g := a.graph
	// Every row is written below: zeroed, or copied from its first member.
	val := g.AllocUninit(len(segs), n)
	for s, seg := range segs {
		dst := val.Data[s*n : (s+1)*n]
		if len(seg) == 0 {
			clear(dst)
			continue
		}
		copy(dst, a.Value.Data[seg[0]*n:(seg[0]+1)*n])
		for _, r := range seg[1:] {
			for j, v := range a.Value.Data[r*n : (r+1)*n] {
				dst[j] += v
			}
		}
	}
	out := g.newNode(val, a.requires)
	out.backFn, out.a, out.segs = backScatterAddRows, a, segs
	return out
}

func backSplitRows(out *Node) {
	a, frac := out.a, out.b
	rows, tt, k := a.Value.Dim(0), a.Value.Dim(1), frac.Value.Dim(1)
	d := out.Grad.Data
	if a.requires {
		ga := a.ensureGrad().Data
		for i := 0; i < rows; i++ {
			f := frac.Value.Data[i*k : (i+1)*k]
			for t := 0; t < tt; t++ {
				// Summed apart from ga and added once, with the copies in
				// descending order, as a tape of one scaled copy per split
				// row would replay them.
				s := 0.0
				for kk := k - 1; kk >= 0; kk-- {
					s += f[kk] * d[(i*k+kk)*tt+t]
				}
				ga[i*tt+t] += s
			}
		}
	}
	if frac.requires {
		gf := frac.ensureGrad().Data
		for r := range gf {
			src := a.Value.Data[(r/k)*tt : (r/k+1)*tt]
			// The dot product as MatMul computes it: one ascending FMA
			// chain from zero, added once.
			s := 0.0
			for t, v := range d[r*tt : (r+1)*tt] {
				s = math.FMA(v, src[t], s)
			}
			gf[r] += s
		}
	}
}

// SplitRows splits every row of a into k weighted copies: for a (N × T) and
// frac (N × k), row i·k+j of the (N·k × T) result is frac[i, j]·a[i]. It is
// the OD → route split of the TOD-volume mapping (Eq. 3), with frac each
// OD's route fractions.
func SplitRows(a, frac *Node) *Node {
	g := sameGraph("SplitRows", a, frac)
	if a.Value.Rank() != 2 || frac.Value.Rank() != 2 || frac.Value.Dim(0) != a.Value.Dim(0) {
		panic(fmt.Sprintf("autodiff: SplitRows shapes a=%v frac=%v", a.Value.Shape(), frac.Value.Shape()))
	}
	rows, tt, k := a.Value.Dim(0), a.Value.Dim(1), frac.Value.Dim(1)
	// Every element is written below.
	val := g.AllocUninit(rows*k, tt)
	for r := 0; r < rows*k; r++ {
		f := frac.Value.Data[r]
		src := a.Value.Data[(r/k)*tt : (r/k+1)*tt]
		for t, v := range src {
			val.Data[r*tt+t] = f * v
		}
	}
	out := g.newNode(val, a.requires || frac.requires)
	out.backFn, out.a, out.b = backSplitRows, a, frac
	return out
}

func backLagAttend(out *Node) {
	alpha, p := out.a, out.b
	batch, tt, w := p.Value.Dim(0), p.Value.Dim(1), alpha.Value.Dim(1)
	if alpha.requires {
		ga := alpha.ensureGrad()
		for b := 0; b < batch; b++ {
			for t := 0; t < tt; t++ {
				row := (b*tt + t) * w
				for lag := 0; lag < w && lag <= t; lag++ {
					ga.Data[row+lag] += out.Grad.Data[b*tt+t] * p.Value.Data[b*tt+t-lag]
				}
			}
		}
	}
	if p.requires {
		gp := p.ensureGrad()
		for b := 0; b < batch; b++ {
			for t := 0; t < tt; t++ {
				row := (b*tt + t) * w
				for lag := 0; lag < w && lag <= t; lag++ {
					gp.Data[b*tt+t-lag] += out.Grad.Data[b*tt+t] * alpha.Value.Data[row+lag]
				}
			}
		}
	}
}

// LagAttend computes the lag-attention contraction at the heart of the
// TOD-volume mapping (Eq. 4) for a batch of B series:
//
//	out[b, t] = Σ_{w=0..W-1} alpha[b·T+t, w] * p[b, t-w]
//
// where p is (B × T) and alpha is (B·T × W): row b·T+t holds series b's
// attention over lags at step t, so a softmax over lags is one SoftmaxRows.
// Indices t-w < 0 refer to traffic before the horizon and contribute zero.
func LagAttend(alpha, p *Node) *Node {
	g := sameGraph("LagAttend", alpha, p)
	if alpha.Value.Rank() != 2 || p.Value.Rank() != 2 || alpha.Value.Dim(0) != p.Value.Size() {
		panic(fmt.Sprintf("autodiff: LagAttend requires alpha (B·T × W) and p (B × T), got %v, %v", alpha.Value.Shape(), p.Value.Shape()))
	}
	batch, tt, w := p.Value.Dim(0), p.Value.Dim(1), alpha.Value.Dim(1)
	// Every element is written below.
	val := g.AllocUninit(batch, tt)
	for b := 0; b < batch; b++ {
		for t := 0; t < tt; t++ {
			row := (b*tt + t) * w
			s := 0.0
			for lag := 0; lag < w && lag <= t; lag++ {
				s += alpha.Value.Data[row+lag] * p.Value.Data[b*tt+t-lag]
			}
			val.Data[b*tt+t] = s
		}
	}
	out := g.newNode(val, alpha.requires || p.requires)
	out.backFn, out.a, out.b = backLagAttend, alpha, p
	return out
}

// convDims returns the batch, channel and time sizes of a Conv1DSame input
// or output: (C × T) is a batch of one, (B × C × T) a batch of B.
func convDims(t *tensor.Tensor) (batch, c, tt int) {
	if t.Rank() == 2 {
		return 1, t.Dim(0), t.Dim(1)
	}
	return t.Dim(0), t.Dim(1), t.Dim(2)
}

func backConv1DSame(out *Node) {
	x, kernels, bias := out.a, out.b, out.c
	batch, cin, tt := convDims(x.Value)
	cout, k := kernels.Value.Dim(0), kernels.Value.Dim(2)
	half := k / 2
	kv := kernels.Value.Data
	// Descending batch items, the order a tape of one convolution per item
	// replays them in, so the shared kernel and bias gradients sum in that
	// order.
	for b := batch - 1; b >= 0; b-- {
		xo := b * cin * tt
		xv := x.Value.Data[xo : xo+cin*tt]
		gOutB := out.Grad.Data[b*cout*tt : (b+1)*cout*tt]
		for co := 0; co < cout; co++ {
			for t := 0; t < tt; t++ {
				gOut := gOutB[co*tt+t]
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
							kernels.ensureGrad().Data[(co*cin+ci)*k+kk] += gOut * xv[ci*tt+src]
						}
						if x.requires {
							x.ensureGrad().Data[xo+ci*tt+src] += gOut * kv[(co*cin+ci)*k+kk]
						}
					}
				}
			}
		}
	}
}

// Conv1DSame applies a multi-channel 1-D convolution with "same" zero
// padding along the time axis. Input x is (Cin × T), or (B × Cin × T) for a
// batch of B independent inputs; kernels is (Cout × Cin × K) with K odd,
// bias is (Cout). Output is (Cout × T), or (B × Cout × T). This realizes the
// 1×3 convolution layers of the attention network (Eqs. 5-6, Table IV).
func Conv1DSame(x, kernels, bias *Node) *Node {
	g := sameGraph("Conv1DSame", x, kernels, bias)
	xr := x.Value.Rank()
	if (xr != 2 && xr != 3) || kernels.Value.Rank() != 3 || bias.Value.Rank() != 1 {
		panic(fmt.Sprintf("autodiff: Conv1DSame shapes x=%v kernels=%v bias=%v", x.Value.Shape(), kernels.Value.Shape(), bias.Value.Shape()))
	}
	batch, cin, tt := convDims(x.Value)
	cout, cin2, k := kernels.Value.Dim(0), kernels.Value.Dim(1), kernels.Value.Dim(2)
	if cin != cin2 || bias.Value.Dim(0) != cout {
		panic(fmt.Sprintf("autodiff: Conv1DSame channel mismatch x=%v kernels=%v bias=%v", x.Value.Shape(), kernels.Value.Shape(), bias.Value.Shape()))
	}
	if k%2 == 0 {
		panic("autodiff: Conv1DSame requires an odd kernel width")
	}
	half := k / 2
	var val *tensor.Tensor
	if xr == 2 {
		val = g.Alloc(cout, tt)
	} else {
		val = g.Alloc(batch, cout, tt)
	}
	kv := kernels.Value.Data
	for b := 0; b < batch; b++ {
		xv := x.Value.Data[b*cin*tt : (b+1)*cin*tt]
		ov := val.Data[b*cout*tt : (b+1)*cout*tt]
		for co := 0; co < cout; co++ {
			for t := 0; t < tt; t++ {
				s := bias.Value.Data[co]
				for ci := 0; ci < cin; ci++ {
					for kk := 0; kk < k; kk++ {
						src := t + kk - half
						if src < 0 || src >= tt {
							continue
						}
						s += kv[(co*cin+ci)*k+kk] * xv[ci*tt+src]
					}
				}
				ov[co*tt+t] = s
			}
		}
	}
	out := g.newNode(val, x.requires || kernels.requires || bias.requires)
	out.backFn, out.a, out.b, out.c = backConv1DSame, x, kernels, bias
	return out
}

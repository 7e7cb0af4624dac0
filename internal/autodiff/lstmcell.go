package autodiff

import (
	"fmt"

	"ovs/internal/tensor"
)

// This file implements the fused, batched LSTM cell: one tape node per
// timestep for a whole batch of independent sequences, in place of the
// ~16-node chain (Row/MatMul/Reshape/Add/SliceVec×4/Sigmoid×3/Tanh×2/Mul×3/
// Add) the graph-built recurrence records per sequence. The input projection
// X·Wx+b is hoisted out of the timestep loop by the caller into a single
// GEMM over every sequence and step (the pre operand); the cell fuses the
// hidden-state projection — one (B×H)·(H×4H) GEMM for the batch — the gate
// nonlinearities and the state update into one forward kernel, and the
// entire step's backward into one hand-written rule whose linear algebra is
// two more GEMMs: dH(t-1) += DG·Whᵀ and dWh += H(t-1)ᵀ·DG.
//
// Bitwise contract. Row b of a batched cell is bitwise-identical — value,
// dh(t-1), dc(t-1) and the pre gradient — to a batch-1 cell run on sequence b
// alone, and a batch-1 cell is bitwise-identical, values and every gradient,
// to the unfused graph path
//
//	flat = Add(Row(pre, t), Reshape(MatMul(h, wh), 4H))
//	i,f,o = Sigmoid(SliceVec(flat, ...)); g = Tanh(SliceVec(flat, ...))
//	cNew  = Add(Mul(f, cPrev), Mul(i, g))
//	hNew  = Mul(o, Tanh(cNew))
//
// in any arena mode and for any input — including signed zeros and
// infinities. The only quantity batching reassociates is dWh: its sum over
// the batch rows runs inside one GEMM instead of as B separate rank-1
// accumulations, so it agrees with the per-sequence sum to rounding, not
// bitwise. The other carve-out is NaN payload bits: x86 NaN propagation
// returns the first NaN source operand, and operand order of commutative
// float ops is a compiler choice, so a NaN combined from two distinct NaNs
// may carry a different sign/payload per path (NaN-ness itself always
// agrees). Three mechanisms carry the guarantee:
//
//  1. Linear algebra runs through the tensor GEMM entry points, whose every
//     path (naive, blocked, packed-cache) computes each output element as the
//     same ascending-k FMA chain with the same sum-then-one-add accumulate
//     (see tensor/gemm.go). A row of H(t-1)·Wh therefore does not depend on
//     the other rows, and at B=1 the products are exactly the (1×H)·(H×4H)
//     ones the graph path records.
//  2. Scalar expressions copy the graph kernels' association exactly — e.g.
//     the cell state is float64(f·cPrev) + float64(i·g), two individually
//     rounded products then one add, matching the two Mul stores and the Add.
//     The gate nonlinearities run through tensor.SigmoidSlice/TanhSlice, the
//     same kernels the graph path's SigmoidTo/TanhTo use, and those are
//     bitwise equal to the scalar math.Exp/math.Tanh expressions.
//  3. The graph path materializes each backward intermediate by accumulating
//     into a freshly zeroed gradient, and 0+x flushes a negative zero to +0.
//     The fused backward inserts the same "0 +" at each point where the graph
//     allocates a fresh gradient, so even signed zeros agree.

// lstmCellExtSlots is the number of (batch × hidden) slots in a cell's
// auxiliary buffer: the forward saves [c | i | f | o | g | tanh(c)] and the
// backward parks the incoming cell-state gradient in the seventh slot
// (dcAcc), written by step t+1's backward before step t's runs (reverse tape
// order guarantees it).
const lstmCellExtSlots = 7

// LSTMCell records one fused LSTM timestep of batch independent sequences
// and returns h(t) as a (batch × hidden) node, row b for sequence b. pre is
// the hoisted input projection X·Wx+b of every sequence, shape
// (batch·T × 4*hidden) with gate order [i|f|o|g], laid out sequence-major:
// row b·T+t holds sequence b at step t. t is the timestep; prev is the
// LSTMCell node of step t-1, or nil at t=0 (zero initial state); wh is the
// (hidden × 4*hidden) recurrent weight node.
func LSTMCell(pre *Node, batch, t int, prev *Node, wh *Node, hidden int) *Node {
	h4 := 4 * hidden
	if batch <= 0 || pre.Value.Rank() != 2 || pre.Value.Dim(1) != h4 || pre.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("autodiff: LSTMCell pre shape %v, want (%d·T × %d)", pre.Value.Shape(), batch, h4))
	}
	steps := pre.Value.Dim(0) / batch
	if t < 0 || t >= steps {
		panic(fmt.Sprintf("autodiff: LSTMCell step %d out of range for %d-step pre", t, steps))
	}
	if wh.Value.Rank() != 2 || wh.Value.Dim(0) != hidden || wh.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTMCell wh shape %v, want [%d %d]", wh.Value.Shape(), hidden, h4))
	}
	bh := batch * hidden
	var g *Graph
	if prev != nil {
		pv := prev.Value
		if prev.ext == nil || len(prev.ext.Data) != lstmCellExtSlots*bh || pv.Rank() != 2 || pv.Dim(0) != batch || pv.Dim(1) != hidden {
			panic("autodiff: LSTMCell prev is not an LSTMCell node of matching batch and hidden size")
		}
		g = sameGraph("LSTMCell", pre, wh, prev)
	} else {
		g = sameGraph("LSTMCell", pre, wh)
	}

	// Slots 0–5 are written in full below before anything reads them; the
	// dcAcc slot is read by this cell's backward and written only if a step
	// t+1 backward runs, so it alone starts from zero.
	ext := g.AllocUninit(lstmCellExtSlots * bh)
	clear(ext.Data[6*bh : 7*bh])
	cv := ext.Data[0:bh]
	iv := ext.Data[bh : 2*bh]
	fv := ext.Data[2*bh : 3*bh]
	ov := ext.Data[3*bh : 4*bh]
	gv := ext.Data[4*bh : 5*bh]
	th := ext.Data[5*bh : 6*bh]

	var hPrev *tensor.Tensor
	var cPrev []float64
	var zero *tensor.Tensor
	if prev != nil {
		hPrev = prev.Value
		cPrev = prev.ext.Data[0:bh]
	} else {
		// The initial state is a genuine zero matrix, and the projection and
		// gate arithmetic run on it honestly: 0·Wh is only ±0 when Wh is
		// finite, and the unfused path computes it, so the fused one must.
		zero = tensor.Get(batch, hidden)
		hPrev, cPrev = zero, zero.Data
	}

	// The gate pre-activations land in their own slots — the i, f, o, g
	// slots are (batch × hidden) each, and i, f, o are adjacent — so the
	// nonlinearities run in place as one kernel call per (batch × gate)
	// slab: one sigmoid call covers i, f and o for the whole batch.
	hw := tensor.MatMulTo(tensor.GetUninit(batch, h4), hPrev, wh.Value)
	for b := 0; b < batch; b++ {
		preRow := pre.Value.Data[(b*steps+t)*h4 : (b*steps+t+1)*h4]
		hwd := hw.Data[b*h4 : (b+1)*h4]
		for gate, slot := range [4][]float64{iv, fv, ov, gv} {
			z := slot[b*hidden : (b+1)*hidden]
			p := preRow[gate*hidden : (gate+1)*hidden]
			q := hwd[gate*hidden : (gate+1)*hidden]
			for j := range z {
				z[j] = p[j] + q[j]
			}
		}
	}
	tensor.Put(hw)
	tensor.SigmoidSlice(ext.Data[bh:4*bh], ext.Data[bh:4*bh])
	tensor.TanhSlice(gv, gv)
	for k := range cv {
		// Two rounded products then one add: the exact association of the
		// graph path's Mul/Mul/Add (the conversions forbid FMA contraction).
		cv[k] = float64(fv[k]*cPrev[k]) + float64(iv[k]*gv[k])
	}
	tensor.TanhSlice(th, cv)
	val := g.AllocUninit(batch, hidden)
	for k, o := range ov {
		val.Data[k] = o * th[k]
	}
	if zero != nil {
		tensor.Put(zero)
	}

	req := pre.requires || wh.requires || (prev != nil && prev.requires)
	out := g.newNode(val, req)
	out.backFn, out.a, out.b, out.c = backLSTMCell, prev, pre, wh
	out.ext, out.i0, out.i1 = ext, t, hidden
	return out
}

// backLSTMCell is the fused backward rule of one batched LSTM step. out.Grad
// holds the total dL/dH(t): the sequence-consumer contribution (StackSteps'
// row gradients) plus DG(t+1)·Whᵀ, which step t+1's backward accumulated
// into this node before the reverse sweep reached it — the same two adds, in
// the same order, the unfused graph performs. The incoming cell-state
// gradient dL/dC(t) waits in this cell's dcAcc slot, parked there by step
// t+1.
//
// Every "0 +" below marks a point where the graph path materializes an
// intermediate gradient by accumulating into a freshly zeroed buffer; the add
// flushes a negative zero to +0 exactly as the unfused accumulation does.
func backLSTMCell(out *Node) {
	prev, pre, wh := out.a, out.b, out.c
	hidden, t := out.i1, out.i0
	batch := out.Value.Dim(0)
	steps := pre.Value.Dim(0) / batch
	h4 := 4 * hidden
	bh := batch * hidden
	ext := out.ext.Data
	iv := ext[bh : 2*bh]
	fv := ext[2*bh : 3*bh]
	ov := ext[3*bh : 4*bh]
	gv := ext[4*bh : 5*bh]
	th := ext[5*bh : 6*bh]
	dcAcc := ext[6*bh : 7*bh]
	grad := out.Grad.Data

	var hPrev *tensor.Tensor
	var cPrev, prevDc []float64
	var zero *tensor.Tensor
	if prev != nil {
		hPrev = prev.Value
		cPrev = prev.ext.Data[0:bh]
		if prev.requires {
			prevDc = prev.ext.Data[6*bh : 7*bh]
		}
	} else {
		zero = tensor.Get(batch, hidden)
		hPrev, cPrev = zero, zero.Data
	}

	dg := tensor.GetUninit(batch, h4) // every gate column is written below
	for b := 0; b < batch; b++ {
		dgd := dg.Data[b*h4 : (b+1)*h4]
		o := b * hidden
		for j := 0; j < hidden; j++ {
			k := o + j
			gj := grad[k]
			tj, oj := th[k], ov[k]
			ij, fj, ggj := iv[k], fv[k], gv[k]
			do := 0 + gj*tj  // o-gate output grad (fresh += G·tanh(c))
			dth := 0 + gj*oj // tanh(c) grad (fresh += G·o)
			// dc = parked dc(t+1) contribution, then the fused tanh-backward
			// add.
			dc := dcAcc[k] + dth*(1-tj*tj)
			dcF := 0 + dc // the fresh Add-backward copies both Mul grads receive
			dgd[j] = 0 + (0+dcF*ggj)*ij*(1-ij)
			dgd[hidden+j] = 0 + (0+dcF*cPrev[k])*fj*(1-fj)
			dgd[2*hidden+j] = 0 + do*oj*(1-oj)
			dgd[3*hidden+j] = 0 + (0+dcF*ij)*(1-ggj*ggj)
			if prevDc != nil {
				prevDc[k] = 0 + dcF*fj // parked for step t-1's backward
			}
		}
	}

	// dH(t-1) += DG·Whᵀ — skipped at t=0, where the unfused path's h(0) is a
	// gradient-free Const leaf.
	if prev != nil && prev.requires {
		tensor.MatMulNTAcc(prev.ensureGrad(), dg, wh.Value)
	}
	// dWh += H(t-1)ᵀ·DG — at t=0 H(t-1) is the zero matrix and the unfused
	// path still accumulates the ±0 products; reproduce that rather than
	// skip it.
	if wh.requires {
		tensor.MatMulTNAcc(wh.ensureGrad(), hPrev, dg)
	}
	if pre.requires {
		pg := pre.ensureGrad().Data
		for b := 0; b < batch; b++ {
			prow := pg[(b*steps+t)*h4 : (b*steps+t+1)*h4]
			for j, v := range dg.Data[b*h4 : (b+1)*h4] {
				prow[j] += v
			}
		}
	}
	tensor.Put(dg)
	if zero != nil {
		tensor.Put(zero)
	}
}

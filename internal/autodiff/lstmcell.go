package autodiff

import (
	"fmt"

	"ovs/internal/tensor"
)

// This file implements the fused, batched LSTM recurrence: one tape node for
// all T steps of a whole batch of independent sequences, in place of the
// ~16-node chain per step (Row/MatMul/Reshape/Add/SliceVec×4/Sigmoid×3/
// Tanh×2/Mul×3/Add) the graph-built recurrence records per sequence. The
// input projection X·Wx+b is hoisted out of the timestep loop by the caller
// into a single GEMM over every sequence and step (the pre operand); the node
// fuses, per step, the hidden-state projection — one (B×H)·(H×4H) GEMM for
// the batch — the gate nonlinearities and the state update into its forward
// loop, and runs the whole reverse-time backward in one hand-written rule
// whose linear algebra is two more GEMMs per step: dH(t-1) += DG(t)·Whᵀ and
// dWh += H(t-1)ᵀ·DG(t). The running dH and dC live in local scratch, so no
// state crosses from one tape node to another.
//
// Bitwise contract. Row b of a batched recurrence is bitwise-identical —
// value, dH, dC and the pre gradient — to a batch-1 recurrence run on
// sequence b alone, and a batch-1 recurrence is bitwise-identical, values and
// every gradient, to the unfused graph path, per step
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
//     path (row, packed) computes each output element as the same
//     ascending-k FMA chain with the same sum-then-one-add accumulate (see
//     tensor/gemm.go). A row of H(t-1)·Wh therefore does not depend on the
//     other rows, and at B=1 the products are exactly the (1×H)·(H×4H) ones
//     the graph path records; accumulating it into a copy of pre(t) is the
//     graph path's Add. dH(t) is (0 + the consumer's row) plus DG(t+1)·Whᵀ
//     in one accumulate, and dWh takes one H(t-1)ᵀ·DG(t) accumulate per
//     step from t = T−1 down to 0: the adds and their order are the graph
//     path's.
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

// lstmSlots is the number of (batch × hidden) slots the forward saves per
// step for the backward: [c | i | f | o | g | tanh(c)].
const lstmSlots = 6

// LSTM records the recurrence of batch independent LSTM sequences over all
// their timesteps as one node and returns the hidden states, (batch·T ×
// hidden) and sequence-major: row b·T+t is h(t) of sequence b. pre is the
// hoisted input projection X·Wx+b of every sequence, shape
// (batch·T × 4*hidden) with gate order [i|f|o|g], in the same layout; wh is
// the (hidden × 4*hidden) recurrent weight node. The initial hidden and cell
// states are zero.
func LSTM(pre *Node, batch int, wh *Node, hidden int) *Node {
	h4 := 4 * hidden
	if batch <= 0 || pre.Value.Rank() != 2 || pre.Value.Dim(1) != h4 || pre.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("autodiff: LSTM pre shape %v, want (%d·T × %d)", pre.Value.Shape(), batch, h4))
	}
	if wh.Value.Rank() != 2 || wh.Value.Dim(0) != hidden || wh.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTM wh shape %v, want [%d %d]", wh.Value.Shape(), hidden, h4))
	}
	g := sameGraph("LSTM", pre, wh)
	steps := pre.Value.Dim(0) / batch
	bh := batch * hidden

	// Every slot of every step, and every output row, is written below
	// before anything reads it.
	ext := g.AllocUninit(steps * lstmSlots * bh)
	val := g.AllocUninit(batch*steps, hidden)
	// h is H(t-1), the GEMM operand of step t: one contiguous (batch ×
	// hidden) matrix, overwritten with h(t) once step t's product is taken,
	// so no per-step tensor header is needed. The initial state is a genuine
	// zero matrix, and the projection and gate arithmetic run on it honestly:
	// 0·Wh is only ±0 when Wh is finite, and the unfused path computes it, so
	// the fused one must. Step 0's cPrev is the same zeros, read before h(0)
	// overwrites them.
	h := tensor.Get(batch, hidden)
	cPrev := h.Data
	z := tensor.GetUninit(batch, h4)
	for t := 0; t < steps; t++ {
		s := ext.Data[t*lstmSlots*bh : (t+1)*lstmSlots*bh]
		cv, iv, fv, ov, gv, th := s[0:bh], s[bh:2*bh], s[2*bh:3*bh], s[3*bh:4*bh], s[4*bh:5*bh], s[5*bh:6*bh]

		// z = pre(t) + H(t-1)·Wh: the GEMM's accumulate epilogue adds each
		// finished product once to the pre row copied in, the one add of
		// the graph path's Add. The nonlinearities then read z and write
		// each gate of each row into its slot.
		for b := 0; b < batch; b++ {
			copy(z.Data[b*h4:(b+1)*h4], pre.Value.Data[(b*steps+t)*h4:(b*steps+t+1)*h4])
		}
		tensor.MatMulAcc(z, h, wh.Value)
		for b := 0; b < batch; b++ {
			zb, r := z.Data[b*h4:(b+1)*h4], b*hidden
			tensor.SigmoidSlice(iv[r:r+hidden], zb[:hidden])
			tensor.SigmoidSlice(fv[r:r+hidden], zb[hidden:2*hidden])
			tensor.SigmoidSlice(ov[r:r+hidden], zb[2*hidden:3*hidden])
			tensor.TanhSlice(gv[r:r+hidden], zb[3*hidden:])
		}
		for k := range cv {
			// Two rounded products then one add: the exact association of the
			// graph path's Mul/Mul/Add (the conversions forbid FMA contraction).
			cv[k] = float64(fv[k]*cPrev[k]) + float64(iv[k]*gv[k])
		}
		tensor.TanhSlice(th, cv)
		for k, o := range ov {
			h.Data[k] = o * th[k]
		}
		for b := 0; b < batch; b++ {
			copy(val.Data[(b*steps+t)*hidden:(b*steps+t+1)*hidden], h.Data[b*hidden:(b+1)*hidden])
		}
		cPrev = cv
	}
	tensor.Put(z)
	tensor.Put(h)

	out := g.newNode(val, pre.requires || wh.requires)
	out.backFn, out.a, out.b = backLSTM, pre, wh
	out.ext, out.i0, out.i1 = ext, hidden, batch
	return out
}

// backLSTM is the fused backward rule of the batched recurrence: one
// reverse-time loop from t = T−1 down to 0. At step t, dH holds the total
// dL/dH(t) — the consumer's row gradient plus DG(t+1)·Whᵀ, the same two adds
// in the same order the unfused graph performs — and dC holds dL/dC(t)
// flowing back from step t+1 (zero at the last step).
//
// Every "0 +" below marks a point where the graph path materializes an
// intermediate gradient by accumulating into a freshly zeroed buffer; the add
// flushes a negative zero to +0 exactly as the unfused accumulation does.
func backLSTM(out *Node) {
	pre, wh := out.a, out.b
	hidden, batch := out.i0, out.i1
	steps := out.Value.Dim(0) / batch
	h4 := 4 * hidden
	bh := batch * hidden
	ext := out.ext.Data
	grad, hs := out.Grad.Data, out.Value.Data
	// Every row of pre belongs to exactly one step of one sequence, so the
	// gate gradients cover pre's gradient once. Nothing has written it yet
	// when no other consumer's backward ran before this one: it is then
	// drawn un-zeroed and the gate gradients are stored, which equals the
	// add into zeros bit for bit because each is already a canonical 0 + x.
	var pg []float64
	store := false
	if pre.requires {
		if pre.Grad == nil {
			pre.Grad = pre.graph.AllocLikeUninit(pre.Value)
			store = true
		}
		pg = pre.Grad.Data
	}

	// whT is Whᵀ, taken once so that every step's dH += DG(t+1)·Whᵀ runs as
	// an NN accumulate over the same per-element chains as the NT form.
	whT := tensor.TransposeTo(tensor.GetUninit(h4, hidden), wh.Value)
	dH := tensor.GetUninit(batch, hidden) // refilled from the consumer rows every step
	dC := tensor.Get(batch, hidden)       // no cell-state gradient enters after the last step
	h := tensor.GetUninit(batch, hidden)  // H(t-1), gathered from the output rows or zeroed
	dg := tensor.GetUninit(batch, h4)     // every gate column is written every step
	for t := steps - 1; t >= 0; t-- {
		s := ext[t*lstmSlots*bh : (t+1)*lstmSlots*bh]
		iv, fv, ov, gv, th := s[bh:2*bh], s[2*bh:3*bh], s[3*bh:4*bh], s[4*bh:5*bh], s[5*bh:6*bh]

		for b := 0; b < batch; b++ {
			row := grad[(b*steps+t)*hidden : (b*steps+t+1)*hidden]
			d := dH.Data[b*hidden : (b+1)*hidden]
			for j, v := range row {
				d[j] = 0 + v
			}
		}
		if t+1 < steps {
			tensor.MatMulAcc(dH, dg, whT) // dg still holds DG(t+1)
		}
		var cPrev []float64
		if t > 0 {
			cPrev = ext[(t-1)*lstmSlots*bh : (t-1)*lstmSlots*bh+bh]
			for b := 0; b < batch; b++ {
				copy(h.Data[b*hidden:(b+1)*hidden], hs[(b*steps+t-1)*hidden:(b*steps+t)*hidden])
			}
		} else {
			clear(h.Data)
			cPrev = h.Data
		}

		dcv := dC.Data
		for b := 0; b < batch; b++ {
			dgd := dg.Data[b*h4 : (b+1)*h4]
			o := b * hidden
			for j := 0; j < hidden; j++ {
				k := o + j
				gj := dH.Data[k]
				tj, oj := th[k], ov[k]
				ij, fj, ggj := iv[k], fv[k], gv[k]
				do := 0 + gj*tj  // o-gate output grad (fresh += G·tanh(c))
				dth := 0 + gj*oj // tanh(c) grad (fresh += G·o)
				// dc = dc(t+1) contribution, then the fused tanh-backward add.
				dc := dcv[k] + dth*(1-tj*tj)
				dcF := 0 + dc // the fresh Add-backward copies both Mul grads receive
				dgd[j] = 0 + (0+dcF*ggj)*ij*(1-ij)
				dgd[hidden+j] = 0 + (0+dcF*cPrev[k])*fj*(1-fj)
				dgd[2*hidden+j] = 0 + do*oj*(1-oj)
				dgd[3*hidden+j] = 0 + (0+dcF*ij)*(1-ggj*ggj)
				dcv[k] = 0 + dcF*fj // dC(t-1) for the next iteration
			}
		}

		// dWh += H(t-1)ᵀ·DG(t) — at t=0 H(t-1) is the zero matrix and the
		// unfused path still accumulates the ±0 products; reproduce that
		// rather than skip it.
		if wh.requires {
			tensor.MatMulTNAcc(wh.ensureGrad(), h, dg)
		}
		if pg != nil {
			for b := 0; b < batch; b++ {
				prow := pg[(b*steps+t)*h4 : (b*steps+t+1)*h4]
				dgd := dg.Data[b*h4 : (b+1)*h4]
				if store {
					copy(prow, dgd)
					continue
				}
				for j, v := range dgd {
					prow[j] += v
				}
			}
		}
	}
	tensor.Put(dg)
	tensor.Put(h)
	tensor.Put(dC)
	tensor.Put(dH)
	tensor.Put(whT)
}

package autodiff

import (
	"fmt"

	"ovs/internal/tensor"
)

// This file implements the fused, batched LSTM layer: one tape node for the
// input projection and all T steps of a whole batch of independent
// sequences, in place of the Affine node plus the ~16-node chain per step
// (Row/MatMul/Reshape/Add/SliceVec×4/Sigmoid×3/Tanh×2/Mul×3/Add) the
// graph-built recurrence records per sequence.
//
// The node owns one (batch·T × 4H) sequence-major buffer, row b·T+t for
// sequence b at step t, and everything the recurrence does to a gate row
// happens in place in it:
//
//   - The input projection X·Wx+b of every sequence and step is one GEMM
//     with the bias in its epilogue, written into the buffer: pre.
//   - Step t accumulates H(t-1)·Wh into its rows, one (B×H)·(H×4H) GEMM for
//     the batch, whose A operand is read straight from the output rows
//     b·T+t-1 (row stride T·H) and whose output rows lie T·4H apart: z.
//   - The gate nonlinearities overwrite z with the gates [i|f|o|g], and h(t)
//     is written directly into output row b·T+t.
//   - The backward overwrites step t's gates with the gate gradients DG(t)
//     once it has read them. The next step's dH(t-1) += DG(t)·Whᵀ reads
//     them at row stride T·4H, and dWh += H(t-1)ᵀ·DG(t) reads both operands
//     where they lie; it is skipped when Wh is frozen.
//   - Once the recurrence is done, the buffer holds the whole gate gradient,
//     and the node runs the Affine backward's three products on it.
//
// The only other per-step state is the cell state c(t) and tanh(c(t)), two
// (batch × hidden) slots per step kept after the buffer. The running dH and
// dC live in local scratch, so no state crosses from one tape node to
// another. The strided products go through tensor.GEMMStrided, the GEMM core
// behind every matrix-product entry point, so no row is copied in or out.
// Every element-wise pass of a step covers the whole batch in one call on
// rows T·4H apart: the gate nonlinearities (tensor.SigmoidRows/TanhRows),
// the cell and hidden states (tensor.LSTMCellRows/LSTMHiddenRows), the dH
// refill (tensor.FlushRows) and the gate gradients (tensor.LSTMGateGradRows),
// each a vector kernel across the hidden units of a row.
//
// Bitwise contract. Row b of a batched recurrence is bitwise-identical —
// value, dH, dC and the gate gradient — to a batch-1 recurrence run on
// sequence b alone, and a batch-1 recurrence is bitwise-identical, values and
// every gradient, to the unfused graph path,
//
//	pre   = Affine(x, wx, b)
//	flat  = Add(Row(pre, t), Reshape(MatMul(h, wh), 4H))      per step
//	i,f,o = Sigmoid(SliceVec(flat, ...)); g = Tanh(SliceVec(flat, ...))
//	cNew  = Add(Mul(f, cPrev), Mul(i, g))
//	hNew  = Mul(o, Tanh(cNew))
//
// in any arena mode and for any input — including signed zeros and
// infinities. The only quantity batching reassociates is the weight
// gradients: their sum over the batch rows runs inside one GEMM instead of
// as B separate accumulations, so they agree with the per-sequence sum to
// rounding, not bitwise. The other carve-out is NaN payload bits: x86 NaN
// propagation returns the first NaN source operand, and operand order of
// commutative float ops is a compiler choice, so a NaN combined from two
// distinct NaNs may carry a different sign/payload per path (NaN-ness itself
// always agrees). Three mechanisms carry the guarantee:
//
//  1. Linear algebra runs through the tensor GEMM core, whose every path
//     (row, packed) computes each output element as the same ascending-k FMA
//     chain with the same sum-then-one-add accumulate, whatever the strides
//     (see tensor/gemm.go). A row of H(t-1)·Wh therefore does not depend on
//     the other rows, and at B=1 the products are exactly the (1×H)·(H×4H)
//     ones the graph path records; accumulating it into the pre row is the
//     graph path's Add. dH(t) is (0 + the consumer's row) plus DG(t+1)·Whᵀ
//     in one accumulate, and dWh takes one H(t-1)ᵀ·DG(t) accumulate per
//     step from t = T−1 down to 0: the adds and their order are the graph
//     path's. The closing products are Affine's backward calls, on the same
//     operands, in the same order.
//  2. Element-wise expressions copy the graph kernels' association exactly —
//     e.g. the cell state is float64(f·cPrev) + float64(i·g), two
//     individually rounded products then one add, matching the two Mul
//     stores and the Add. The tensor row kernels run them at vector width
//     with only multiplies, adds and subtracts in that association, never an
//     FMA, so every lane equals the scalar expression; the scalar reference
//     and the graph path's backward kernels (backMul, SigmoidBackwardAcc,
//     TanhBackwardAcc) round every product that feeds an add through a
//     float64 conversion, so no build (GOAMD64=v3 included) contracts either
//     side. The gate nonlinearities run through the same sigmoid/tanh
//     kernels as the graph path's SigmoidTo/TanhTo, and those are bitwise
//     equal to the scalar math.Exp/math.Tanh expressions.
//  3. The graph path materializes each backward intermediate by accumulating
//     into a freshly zeroed gradient, and 0+x flushes a negative zero to +0.
//     The fused backward inserts the same "0 +" at each point where the graph
//     allocates a fresh gradient, so even signed zeros agree. The gate
//     gradients are such sums, so the buffer never holds −0 when Affine's
//     products read it, exactly like the gradient Affine's backward reads.

// lstmStates is the number of (batch × hidden) slots the forward saves per
// step for the backward, after the gate buffer: [c | tanh(c)].
const lstmStates = 2

// LSTM records one LSTM layer over batch independent sequences and all their
// timesteps as one node and returns the hidden states, (batch·T × hidden)
// and sequence-major: row b·T+t is h(t) of sequence b. x is the input of
// every sequence, (batch·T × in) in the same layout; wx (in × 4*hidden), b
// (4*hidden) and wh (hidden × 4*hidden) are the input weight, bias and
// recurrent weight nodes, with gate order [i|f|o|g]. The initial hidden and
// cell states are zero.
func LSTM(x, wx, b, wh *Node, batch, hidden int) *Node {
	h4 := 4 * hidden
	if batch <= 0 || x.Value.Rank() != 2 || x.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("autodiff: LSTM input shape %v is not %d equal-length sequences", x.Value.Shape(), batch))
	}
	in := x.Value.Dim(1)
	if wx.Value.Rank() != 2 || wx.Value.Dim(0) != in || wx.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTM wx shape %v, want [%d %d]", wx.Value.Shape(), in, h4))
	}
	if b.Value.Rank() != 1 || b.Value.Dim(0) != h4 {
		panic(fmt.Sprintf("autodiff: LSTM bias shape %v, want [%d]", b.Value.Shape(), h4))
	}
	if wh.Value.Rank() != 2 || wh.Value.Dim(0) != hidden || wh.Value.Dim(1) != h4 {
		panic(fmt.Sprintf("autodiff: LSTM wh shape %v, want [%d %d]", wh.Value.Shape(), hidden, h4))
	}
	g := sameGraph("LSTM", x, wx, b, wh)
	rows := x.Value.Dim(0)
	steps := rows / batch
	bh := batch * hidden

	// Every gate row, every state slot and every output row is written below
	// before anything reads it.
	ext := g.AllocUninit(rows*h4 + steps*lstmStates*bh)
	buf, states := ext.Data[:rows*h4], ext.Data[rows*h4:]
	val := g.AllocUninit(rows, hidden)
	hs := val.Data
	tensor.GEMMStrided(buf, h4, tensor.View{Data: x.Value.Data, RS: in, CS: 1},
		tensor.View{Data: wx.Value.Data, RS: h4, CS: 1}, rows, h4, in, false, b.Value.Data)

	// The initial state is a genuine zero matrix, and the projection and
	// gate arithmetic run on it honestly: 0·Wh is only ±0 when Wh is finite,
	// and the unfused path computes it, so the fused one must.
	zero := tensor.Get(batch, hidden)
	whv := tensor.View{Data: wh.Value.Data, RS: h4, CS: 1}
	for t := 0; t < steps; t++ {
		s := states[t*lstmStates*bh : (t+1)*lstmStates*bh]
		cv, th := s[:bh], s[bh:]
		hPrev, cPrev := tensor.View{Data: zero.Data, RS: hidden, CS: 1}, zero.Data
		if t > 0 {
			hPrev = tensor.View{Data: hs[(t-1)*hidden:], RS: steps * hidden, CS: 1}
			cPrev = states[(t-1)*lstmStates*bh:][:bh]
		}

		// z = pre(t) + H(t-1)·Wh: the GEMM's accumulate epilogue adds each
		// finished product once to the pre row, the one add of the graph
		// path's Add. The nonlinearities then turn z into the gates in place,
		// each over the whole batch in one strided call.
		gates := buf[t*h4:]
		tensor.GEMMStrided(gates, steps*h4, hPrev, whv, batch, h4, hidden, true, nil)
		tensor.SigmoidRows(gates, steps*h4, batch, 3*hidden)
		tensor.TanhRows(gates[3*hidden:], steps*h4, batch, hidden)
		tensor.LSTMCellRows(cv, cPrev, gates, steps*h4, batch, hidden)
		tensor.TanhSlice(th, cv)
		tensor.LSTMHiddenRows(hs[t*hidden:], steps*hidden, gates, steps*h4, th, batch, hidden)
	}
	tensor.Put(zero)

	out := g.newNode(val, x.requires || wx.requires || b.requires || wh.requires)
	out.backFn, out.a, out.b, out.c, out.d = backLSTM, x, wx, b, wh
	out.ext, out.i0, out.i1 = ext, hidden, batch
	return out
}

// backLSTM is the fused backward rule of the layer: one reverse-time loop
// from t = T−1 down to 0, then the input projection's products. At step t,
// dH holds the total dL/dH(t) — the consumer's row gradient plus
// DG(t+1)·Whᵀ, the same two adds in the same order the unfused graph
// performs — and dC holds dL/dC(t) flowing back from step t+1 (zero at the
// last step).
//
// The dH refill and the gate gradients (tensor.FlushRows and
// tensor.LSTMGateGradRows) add a "0 +" at every point where the graph path
// materializes an intermediate gradient by accumulating into a freshly zeroed
// buffer; the add flushes a negative zero to +0 exactly as the unfused
// accumulation does.
func backLSTM(out *Node) {
	x, wx, b, wh := out.a, out.b, out.c, out.d
	hidden, batch := out.i0, out.i1
	rows, in := x.Value.Dim(0), x.Value.Dim(1)
	steps := rows / batch
	h4 := 4 * hidden
	bh := batch * hidden
	buf, states := out.ext.Data[:rows*h4], out.ext.Data[rows*h4:]
	grad, hs := out.Grad.Data, out.Value.Data

	// whT is Whᵀ, taken once so that every step's dH += DG(t+1)·Whᵀ runs as
	// an NN accumulate over the same per-element chains as the NT form.
	whT := tensor.TransposeTo(tensor.GetUninit(h4, hidden), wh.Value)
	dH := tensor.GetUninit(batch, hidden) // refilled from the consumer rows every step
	dC := tensor.Get(batch, hidden)       // no cell-state gradient enters after the last step
	zero := tensor.Get(batch, hidden)     // H(-1) and C(-1)
	for t := steps - 1; t >= 0; t-- {
		th := states[t*lstmStates*bh+bh:][:bh]
		tensor.FlushRows(dH.Data, grad[t*hidden:], steps*hidden, batch, hidden)
		if t+1 < steps {
			// The buffer rows of step t+1 already hold DG(t+1).
			tensor.GEMMStrided(dH.Data, hidden, tensor.View{Data: buf[(t+1)*h4:], RS: steps * h4, CS: 1},
				tensor.View{Data: whT.Data, RS: hidden, CS: 1}, batch, hidden, h4, true, nil)
		}
		cPrev := zero.Data
		if t > 0 {
			cPrev = states[(t-1)*lstmStates*bh:][:bh]
		}
		// Step t's gates become DG(t) in place, and dC becomes dC(t-1).
		tensor.LSTMGateGradRows(buf[t*h4:], steps*h4, dH.Data, th, dC.Data, cPrev, batch, hidden)

		// dWh += H(t-1)ᵀ·DG(t) — at t=0 H(t-1) is the zero matrix and the
		// unfused path still accumulates the ±0 products; reproduce that
		// rather than skip it.
		if wh.requires {
			hPrev := tensor.View{Data: zero.Data, RS: 1, CS: hidden}
			if t > 0 {
				hPrev = tensor.View{Data: hs[(t-1)*hidden:], RS: 1, CS: steps * hidden}
			}
			tensor.GEMMStrided(wh.ensureGrad().Data, h4, hPrev, tensor.View{Data: buf[t*h4:], RS: steps * h4, CS: 1},
				hidden, h4, batch, true, nil)
		}
	}
	tensor.Put(zero)
	tensor.Put(dC)
	tensor.Put(dH)
	tensor.Put(whT)

	// The input projection's backward on the whole gate gradient: Affine's
	// products (dX += DG·Wxᵀ, dWx += Xᵀ·DG, then the bias rows summed in
	// ascending order), on the same operands and in the same order.
	dg := tensor.View{Data: buf, RS: h4, CS: 1}
	if x.requires {
		tensor.GEMMStrided(x.ensureGrad().Data, in, dg, tensor.View{Data: wx.Value.Data, RS: 1, CS: h4}, rows, in, h4, true, nil)
	}
	if wx.requires {
		tensor.GEMMStrided(wx.ensureGrad().Data, h4, tensor.View{Data: x.Value.Data, RS: 1, CS: in}, dg, in, h4, rows, true, nil)
	}
	if b.requires {
		gb := b.ensureGrad().Data
		for i := 0; i < rows; i++ {
			for j, v := range buf[i*h4 : (i+1)*h4] {
				gb[j] += v
			}
		}
	}
}

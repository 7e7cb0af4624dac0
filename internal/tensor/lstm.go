package tensor

import "fmt"

// This file holds the element-wise loops of the fused LSTM layer
// (autodiff.LSTM) over one step of a batch of sequences: the cell state, the
// hidden state, the refill of the running hidden-state gradient and the
// gate gradients. Each works on rows rows of a (· × 4·hidden) gate buffer,
// z[r*zs:] = [i|f|o|g] of sequence r, and on (rows × hidden) state slots
// stored one row after another.
//
// With AVX each has a four-lane kernel in lstm_amd64.s, dispatched with the
// GEMM row kernels (gemmHasAsm). Lanes run across the hidden units of a row;
// a row's last hidden mod 4 units run one at a time through the same
// instructions. The expressions only multiply, add and subtract, so each
// lane issues VMULPD/VADDPD/VSUBPD in the association of the scalar loops
// below, and no FMA: every element is bitwise equal to them (NaN payloads
// aside, which follow operand order). The scalar loops pin every product
// that feeds an add with a float64 conversion, so a build whose baseline has
// FMA (GOAMD64=v3) cannot contract them either. These passes only multiply,
// add and copy, so they are bound by memory traffic: 8-lane AVX-512 twins
// of all four measured no faster than these kernels on manhattan-refit.

// LSTMCellRows sets c[r*hidden+j] = f·cPrev[r*hidden+j] + i·g for every row
// r < rows and unit j < hidden, with i, f, g the gates of z[r*zs:]: two
// individually rounded products, then one add.
func LSTMCellRows(c, cPrev, z []float64, zs, rows, hidden int) {
	if !lstmShape("LSTMCellRows", z, zs, rows, hidden, c, cPrev) {
		return
	}
	if gemmHasAsm {
		lstmCellAsm(&c[0], &cPrev[0], &z[0], zs, rows, hidden)
	} else {
		lstmCellGo(c, cPrev, z, zs, rows, hidden)
	}
}

func lstmCellGo(c, cPrev, z []float64, zs, rows, hidden int) {
	for r := 0; r < rows; r++ {
		zr := z[r*zs : r*zs+4*hidden]
		cr, cp := c[r*hidden:(r+1)*hidden], cPrev[r*hidden:(r+1)*hidden]
		for j := range cr {
			cr[j] = float64(zr[hidden+j]*cp[j]) + float64(zr[j]*zr[3*hidden+j])
		}
	}
}

// LSTMHiddenRows sets h[r*hs+j] = o·th[r*hidden+j] for every row r < rows
// and unit j < hidden, with o the output gate of z[r*zs:].
func LSTMHiddenRows(h []float64, hs int, z []float64, zs int, th []float64, rows, hidden int) {
	if !lstmShape("LSTMHiddenRows", z, zs, rows, hidden, th) {
		return
	}
	needRows("LSTMHiddenRows", h, hs, rows, hidden)
	if gemmHasAsm {
		lstmHiddenAsm(&h[0], hs, &z[0], zs, &th[0], rows, hidden)
	} else {
		lstmHiddenGo(h, hs, z, zs, th, rows, hidden)
	}
}

func lstmHiddenGo(h []float64, hs int, z []float64, zs int, th []float64, rows, hidden int) {
	for r := 0; r < rows; r++ {
		o := z[r*zs+2*hidden : r*zs+3*hidden]
		hr, tr := h[r*hs:r*hs+hidden], th[r*hidden:(r+1)*hidden]
		for j := range hr {
			hr[j] = o[j] * tr[j]
		}
	}
}

// FlushRows sets dst[r*n+j] = 0 + src[r*ss+j] for every row r < rows and
// column j < n: a copy of rows ss apart into consecutive rows that turns
// −0 into +0, as accumulating into a freshly zeroed buffer does.
func FlushRows(dst, src []float64, ss, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	needRows("FlushRows", dst, n, rows, n)
	needRows("FlushRows", src, ss, rows, n)
	if gemmHasAsm {
		flushRowsAsm(&dst[0], &src[0], ss, rows, n)
	} else {
		flushRowsGo(dst, src, ss, rows, n)
	}
}

func flushRowsGo(dst, src []float64, ss, rows, n int) {
	for r := 0; r < rows; r++ {
		d := dst[r*n : (r+1)*n]
		for j, v := range src[r*ss : r*ss+n] {
			d[j] = 0 + v
		}
	}
}

// LSTMGateGradRows is one step of the fused LSTM backward for rows
// sequences. On entry z[r*zs:] holds the step's gates [i|f|o|g] of sequence
// r, and the (rows × hidden) slots dH, th, dC and cPrev hold dL/dh(t),
// tanh(c(t)), the cell-state gradient flowing back from step t+1, and
// c(t-1). It overwrites the gates with their pre-activation gradients
// [di|df|do|dg] and dC with dL/dc(t-1). Every "0 +" marks a point where the
// unfused graph path accumulates into a freshly zeroed gradient, flushing a
// −0 to +0 as it does (see autodiff's lstmcell.go).
func LSTMGateGradRows(z []float64, zs int, dH, th, dC, cPrev []float64, rows, hidden int) {
	if !lstmShape("LSTMGateGradRows", z, zs, rows, hidden, dH, th, dC, cPrev) {
		return
	}
	if gemmHasAsm {
		lstmGateGradAsm(&z[0], zs, &dH[0], &th[0], &dC[0], &cPrev[0], rows, hidden)
	} else {
		lstmGateGradGo(z, zs, dH, th, dC, cPrev, rows, hidden)
	}
}

func lstmGateGradGo(z []float64, zs int, dH, th, dC, cPrev []float64, rows, hidden int) {
	for r := 0; r < rows; r++ {
		zr := z[r*zs : r*zs+4*hidden]
		o := r * hidden
		for j := 0; j < hidden; j++ {
			k := o + j
			gj := dH[k]
			tj, oj := th[k], zr[2*hidden+j]
			ij, fj, ggj := zr[j], zr[hidden+j], zr[3*hidden+j]
			do := 0 + float64(gj*tj)  // o-gate output grad (fresh += G·tanh(c))
			dth := 0 + float64(gj*oj) // tanh(c) grad (fresh += G·o)
			// dc = dc(t+1) contribution, then the fused tanh-backward add.
			dc := dC[k] + float64(dth*(1-float64(tj*tj)))
			dcF := 0 + dc // the fresh Add-backward copies both Mul grads receive
			zr[j] = 0 + float64((0+float64(dcF*ggj))*ij*(1-ij))
			zr[hidden+j] = 0 + float64((0+float64(dcF*cPrev[k]))*fj*(1-fj))
			zr[2*hidden+j] = 0 + float64(do*oj*(1-oj))
			zr[3*hidden+j] = 0 + float64((0+float64(dcF*ij))*(1-float64(ggj*ggj)))
			dC[k] = 0 + float64(dcF*fj) // dC(t-1) for the next step
		}
	}
}

// lstmShape checks the gate rows z and the (rows × hidden) slots of an LSTM
// row kernel and reports whether there is anything to do.
func lstmShape(what string, z []float64, zs, rows, hidden int, slots ...[]float64) bool {
	if rows <= 0 || hidden <= 0 {
		return false
	}
	if zs < 4*hidden {
		panic(fmt.Sprintf("tensor: %s gate row stride %d below 4·hidden = %d", what, zs, 4*hidden))
	}
	needRows(what, z, zs, rows, 4*hidden)
	for _, s := range slots {
		needRows(what, s, hidden, rows, hidden)
	}
	return true
}

// needRows panics unless s holds rows rows of n elements, stride apart.
func needRows(what string, s []float64, stride, rows, n int) {
	if need := (rows-1)*stride + n; stride < n || len(s) < need {
		panic(fmt.Sprintf("tensor: %s needs %d rows of %d at stride %d, have %d elements", what, rows, n, stride, len(s)))
	}
}

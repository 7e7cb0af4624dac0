package tensor

import "math"

// This file implements the packed, cache-blocked GEMM core behind every
// matrix-product entry point (MatMul, MatMulTo, MatMulNTAcc, MatMulTNAcc).
// The design is the classic BLIS/gemmlowp decomposition, restated for a pure
// Go kernel:
//
//   - The operands are addressed through gemmView (a base slice plus logical
//     row/column strides), so transposition is absorbed into packing index
//     arithmetic — the inner loops never branch on a transpose flag.
//   - B is packed into column micro-panels of width gemmNR and A into row
//     micro-panels of height gemmMR, both laid out so the micro-kernel walks
//     them with unit stride. Panels are sized to the cache blocking
//     parameters (gemmKC, gemmNC, gemmMC) and drawn from the tensor arena, so
//     a steady-state GEMM allocates nothing.
//   - The micro-kernel holds a gemmMR×gemmNR accumulator tile in registers
//     and advances along the packed K panel with one fused multiply-add per
//     cell per step (math.FMA — a single correctly-rounded hardware
//     instruction on amd64/arm64, with an exact softfloat fallback
//     elsewhere, so results are identical across machines).
//
// Determinism and bitwise equivalence. Every output element C[i,j] receives
// exactly the sequence
//
//	s = 0; s = fma(A[i,0], B[0,j], s); s = fma(A[i,1], B[1,j], s); ...
//
// in ascending k order, followed by one of three epilogues:
//
//	overwrite:  dst[i,j] = s
//	accumulate: dst[i,j] += s
//	bias:       dst[i,j] = s + bias[j]
//
// K-panel boundaries only decide when the running value parks between
// register residencies — in dst for overwrite and bias, in a scratch
// accumulator for accumulate — they never reorder or reassociate the adds.
// The bias epilogue runs only when the last K panel stores: it is the one
// IEEE add a separate AddRowVector pass would perform, so fusing it changes
// no bit. The accumulate form must keep the k-sum separate from dst: a
// batched op that accumulates a product into a gradient buffer already
// holding other contributions is then bitwise equal to a build that
// computes the bare product on a node of its own and adds it once — the
// "sum-then-one-add" the per-route and per-link oracle tests of the batched
// autodiff ops rely on. The naive reference kernels below perform the
// identical per-element sequence, so the blocked path is bitwise-equal to
// the reference.

const (
	// gemmMR × gemmNR is the register tile: 32 independent FMA accumulator
	// chains (8 vector accumulators of 4 lanes on amd64), enough to saturate
	// two FMA pipes at 4-5 cycle latency. The amd64 micro-kernel holds the
	// tile in 8 ymm registers; each K step is one B-vector load plus 8
	// broadcast+FMA pairs.
	gemmMR = 8
	gemmNR = 4
	// gemmKC is the K-panel depth: one packed A micro-panel (gemmMR×gemmKC)
	// plus one packed B micro-panel (gemmKC×gemmNR) stay resident in L1
	// while the micro-kernel runs (16 KiB + 8 KiB).
	gemmKC = 256
	// gemmNC bounds the packed B panel (gemmKC×gemmNC ≤ 512 KiB, L2-sized).
	gemmNC = 256
	// gemmMC is the output row-block height: each row block packs and
	// consumes an A panel of gemmMC×gemmKC ≤ 64 KiB, L2-resident beside the
	// B panel.
	gemmMC = 32
)

// gemmBlockedMin is the naive/blocked crossover: the m·n·k scalar-op count
// below which gemm runs the naive kernels, because packing two operands
// cannot pay for itself on tiny products and the training graph is
// dominated by small matmuls. It is a variable (not a const) so the
// equivalence tests in this package can force every shape through the
// blocked path. Both paths compute the identical per-element FMA sequence,
// so the dispatch never affects results, only speed.
var gemmBlockedMin = 1 << 16

// gemmView addresses a logical matrix inside a flat slice: element (i, j)
// lives at data[i*rs + j*cs]. A transposed operand is expressed by swapping
// the strides, which confines transposition to packing arithmetic.
type gemmView struct {
	data   []float64
	rs, cs int
}

// gemm computes dst (+)= A·B (+ bias) where A and B are logical m×k and k×n
// views and dst is the row-major m×n output with leading dimension ldc. acc
// selects accumulate (dst +=) over overwrite (dst =); a non-nil bias (length
// n, overwrite only) selects the bias epilogue. The accumulate form computes
// the product into an arena scratch block — fully written by the overwrite
// pass, so it needs no zero fill — and folds it into dst with a single add
// per element, preserving the "sum-then-one-add" association the
// determinism argument above requires.
func gemm(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool, bias []float64) {
	if acc && bias != nil {
		panic("tensor: gemm bias epilogue with accumulate")
	}
	// k == 0 stays naive too: the blocked path runs no K panel, so it would
	// never store the empty sum.
	if m*n*k < gemmBlockedMin || k == 0 {
		gemmNaive(dst, ldc, a, b, m, n, k, acc, bias)
		return
	}
	if acc {
		scratch := GetUninit(m * n)
		gemmBlocked(scratch.Data, n, a, b, m, n, k, nil)
		for i := 0; i < m; i++ {
			crow := dst[i*ldc : i*ldc+n]
			for j, s := range scratch.Data[i*n : (i+1)*n] {
				crow[j] += s
			}
		}
		Put(scratch)
		return
	}
	gemmBlocked(dst, ldc, a, b, m, n, k, bias)
}

// gemmBlocked overwrites dst = A·B (+ bias) via the packed cache-blocked
// path. B is packed from the operand on every call, one K panel at a time:
// a panel's pack costs kc·nc moves against the m·kc·nc FMAs that use it, so
// keeping packed panels across calls would save at most 1/m of the work. The
// packing buffers need no zero fill: packA/packB write every entry the
// micro-kernels read. One A buffer serves every row block of a K panel.
func gemmBlocked(dst []float64, ldc int, a, b gemmView, m, n, k int, bias []float64) {
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncPad := (nc + gemmNR - 1) / gemmNR * gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			// The first K panel starts its accumulators at zero; every later
			// panel resumes from the value parked in dst.
			load := pc > 0
			// Only the last K panel's store is final; it carries the bias.
			var pbias []float64
			if bias != nil && pc+kc == k {
				pbias = bias[jc : jc+nc]
			}
			bbuf := GetUninit(kc * ncPad)
			packB(bbuf.Data, b, pc, jc, kc, nc)
			abuf := GetUninit(gemmMC * kc)
			for i0 := 0; i0 < m; i0 += gemmMC {
				mc := min(gemmMC, m-i0)
				packA(abuf.Data, a, i0, pc, mc, kc)
				gemmMacro(dst, ldc, abuf.Data, bbuf.Data, i0, jc, mc, nc, kc, load, pbias)
			}
			Put(abuf)
			Put(bbuf)
		}
	}
}

// packB lays the B block (rows [pc, pc+kc), columns [jc, jc+nc)) into
// micro-panels of gemmNR columns: panel jj/gemmNR holds kc rows of gemmNR
// consecutive column values. Entries beyond nc exist in the layout but are
// never read (the edge micro-kernel bounds its column loop), so they are not
// cleared.
func packB(dst []float64, b gemmView, pc, jc, kc, nc int) {
	for jj := 0; jj < nc; jj += gemmNR {
		nr := min(gemmNR, nc-jj)
		out := dst[(jj/gemmNR)*kc*gemmNR:]
		if nr == gemmNR && b.cs == 1 {
			// Contiguous rows: copy four columns per K step directly.
			for p := 0; p < kc; p++ {
				src := b.data[(pc+p)*b.rs+jc+jj:]
				o := out[p*gemmNR : p*gemmNR+4]
				o[0], o[1], o[2], o[3] = src[0], src[1], src[2], src[3]
			}
		} else if nr == gemmNR && b.rs == 1 {
			// Transposed B (MatMulNTAcc): each logical column is a
			// contiguous stored row; walk four of them side by side.
			c0 := b.data[(jc+jj)*b.cs+pc:][:kc]
			c1 := b.data[(jc+jj+1)*b.cs+pc:][:kc]
			c2 := b.data[(jc+jj+2)*b.cs+pc:][:kc]
			c3 := b.data[(jc+jj+3)*b.cs+pc:][:kc]
			for p := range c0 {
				o := out[p*gemmNR : p*gemmNR+4]
				o[0], o[1], o[2], o[3] = c0[p], c1[p], c2[p], c3[p]
			}
		} else {
			for p := 0; p < kc; p++ {
				base := (pc+p)*b.rs + (jc+jj)*b.cs
				for c := 0; c < nr; c++ {
					out[p*gemmNR+c] = b.data[base+c*b.cs]
				}
			}
		}
	}
}

// packA lays the A block (rows [i0, i0+mc), columns [pc, pc+kc)) into
// micro-panels of gemmMR rows: panel ii/gemmMR holds, for each of kc K
// steps, gemmMR consecutive row values. Entries beyond mc are never read.
func packA(dst []float64, a gemmView, i0, pc, mc, kc int) {
	for ii := 0; ii < mc; ii += gemmMR {
		mr := min(gemmMR, mc-ii)
		out := dst[(ii/gemmMR)*kc*gemmMR:]
		if mr == gemmMR && a.cs == 1 {
			r0 := a.data[(i0+ii)*a.rs+pc:]
			r1 := a.data[(i0+ii+1)*a.rs+pc:]
			r2 := a.data[(i0+ii+2)*a.rs+pc:]
			r3 := a.data[(i0+ii+3)*a.rs+pc:]
			r4 := a.data[(i0+ii+4)*a.rs+pc:]
			r5 := a.data[(i0+ii+5)*a.rs+pc:]
			r6 := a.data[(i0+ii+6)*a.rs+pc:]
			r7 := a.data[(i0+ii+7)*a.rs+pc:]
			for p := 0; p < kc; p++ {
				o := out[p*gemmMR : p*gemmMR+8]
				o[0], o[1], o[2], o[3] = r0[p], r1[p], r2[p], r3[p]
				o[4], o[5], o[6], o[7] = r4[p], r5[p], r6[p], r7[p]
			}
		} else {
			for r := 0; r < mr; r++ {
				base := (i0+ii+r)*a.rs + pc*a.cs
				for p := 0; p < kc; p++ {
					out[p*gemmMR+r] = a.data[base+p*a.cs]
				}
			}
		}
	}
}

// gemmMacro runs the micro-kernel over one packed A block × packed B panel,
// covering output rows [i0, i0+mc) and columns [jc, jc+nc). bias, when
// non-nil, holds the panel's nc bias values for the final store.
func gemmMacro(dst []float64, ldc int, ap, bp []float64, i0, jc, mc, nc, kc int, load bool, bias []float64) {
	for jj := 0; jj < nc; jj += gemmNR {
		nr := min(gemmNR, nc-jj)
		bpanel := bp[(jj/gemmNR)*kc*gemmNR:]
		var tbias []float64
		var tbiasp *float64
		if bias != nil {
			tbias = bias[jj : jj+nr]
			tbiasp = &tbias[0]
		}
		for ii := 0; ii < mc; ii += gemmMR {
			mr := min(gemmMR, mc-ii)
			apanel := ap[(ii/gemmMR)*kc*gemmMR:]
			ctile := dst[(i0+ii)*ldc+jc+jj:]
			switch {
			case mr == gemmMR && nr == gemmNR && gemmHasAsm:
				gemmMicroAsm(&ctile[0], ldc, &apanel[0], &bpanel[0], kc, load, tbiasp)
			case mr == gemmMR && nr == gemmNR:
				gemmMicroGo(ctile, ldc, apanel, bpanel, kc, load, tbias)
			case gemmHasAsm && !load:
				gemmEdgeRowsAsm(ctile, ldc, apanel, bpanel, kc, mr, nr, tbias)
			default:
				gemmMicroEdge(ctile, ldc, apanel, bpanel, kc, mr, nr, load, tbias)
			}
		}
	}
}

// gemmMicroGo is the portable full-tile inner kernel: the 8×4 accumulator
// tile processed as two 4×4 halves so each half's 16 FMA chains plus operand
// temporaries stay register-resident. Both halves read the same packed B
// panel and the gemmMR-strided A panel, so the per-element FMA sequence is
// identical to the amd64 vector kernel (VFMADD231PD lanes are the same
// correctly-rounded IEEE operation as math.FMA).
func gemmMicroGo(c []float64, ldc int, ap, bp []float64, kc int, load bool, bias []float64) {
	gemmMicroGo4(c, ldc, ap, bp, kc, load, bias)
	gemmMicroGo4(c[4*ldc:], ldc, ap[4:], bp, kc, load, bias)
}

// gemmMicroGo4 advances a 4×4 accumulator tile one K step at a time. The A
// panel rows live at ap[p*gemmMR+r] (ap is pre-offset for the upper/lower
// half); load selects whether the tile starts from dst (accumulate / later K
// panel) or zero; a non-nil bias (4 values) is added at the store.
func gemmMicroGo4(c []float64, ldc int, ap, bp []float64, kc int, load bool, bias []float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	if load {
		r0 := c[0*ldc : 0*ldc+4]
		r1 := c[1*ldc : 1*ldc+4]
		r2 := c[2*ldc : 2*ldc+4]
		r3 := c[3*ldc : 3*ldc+4]
		c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
		c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
		c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
	}
	for p := 0; p < kc; p++ {
		av := ap[p*gemmMR : p*gemmMR+4]
		bv := bp[p*gemmNR : p*gemmNR+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		c20 = math.FMA(a2, b0, c20)
		c21 = math.FMA(a2, b1, c21)
		c22 = math.FMA(a2, b2, c22)
		c23 = math.FMA(a2, b3, c23)
		c30 = math.FMA(a3, b0, c30)
		c31 = math.FMA(a3, b1, c31)
		c32 = math.FMA(a3, b2, c32)
		c33 = math.FMA(a3, b3, c33)
	}
	if bias != nil {
		b0, b1, b2, b3 := bias[0], bias[1], bias[2], bias[3]
		c00, c01, c02, c03 = c00+b0, c01+b1, c02+b2, c03+b3
		c10, c11, c12, c13 = c10+b0, c11+b1, c12+b2, c13+b3
		c20, c21, c22, c23 = c20+b0, c21+b1, c22+b2, c23+b3
		c30, c31, c32, c33 = c30+b0, c31+b1, c32+b2, c33+b3
	}
	r0 := c[0*ldc : 0*ldc+4]
	r1 := c[1*ldc : 1*ldc+4]
	r2 := c[2*ldc : 2*ldc+4]
	r3 := c[3*ldc : 3*ldc+4]
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// gemmEdgeRowsAsm computes a partial fringe tile from zero (the first K
// panel) through the assembly row kernels, reading the packed panels in
// place: tile row r is the packed A column at ap[r] with step gemmMR, and B
// is the packed panel with row stride gemmNR. Only the mr valid rows and nr
// valid columns are read. A later K panel resumes its chains from dst, which
// the from-zero row kernels cannot do, so it stays on gemmMicroEdge.
func gemmEdgeRowsAsm(c []float64, ldc int, ap, bp []float64, kc, mr, nr int, bias []float64) {
	gemmRowsFMA(c, ldc, ap, 1, gemmMR, bp, gemmNR, mr, nr, kc, false)
	if bias != nil {
		for r := 0; r < mr; r++ {
			addBiasRow(c[r*ldc:r*ldc+nr], bias)
		}
	}
}

// gemmMicroEdge handles the partial tiles at the right/bottom fringe that
// gemmEdgeRowsAsm cannot: all of them without the assembly, and with it
// those of a later K panel, whose chains resume from dst. It reads only the
// mr valid rows and nr valid columns of the packed panels, so the unwritten
// padding lanes of the packing layout are never consumed.
func gemmMicroEdge(c []float64, ldc int, ap, bp []float64, kc, mr, nr int, load bool, bias []float64) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+nr]
		for j := 0; j < nr; j++ {
			var s float64
			if load {
				s = crow[j]
			}
			for p := 0; p < kc; p++ {
				s = math.FMA(ap[p*gemmMR+r], bp[p*gemmNR+j], s)
			}
			if bias != nil {
				s += bias[j]
			}
			crow[j] = s
		}
	}
}

// gemmNaive is the retained reference kernel: the plain triple loop with the
// canonical per-element FMA sequence. It is both the small-size fast path
// (packing cannot pay for itself under gemmBlockedMin) and the oracle the
// equivalence tests compare the blocked path against. With the FMA
// assembly available it runs gemmNaiveAsm; otherwise gemmNaiveGo.
func gemmNaive(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool, bias []float64) {
	if gemmHasAsm && n > 0 && k > 0 {
		gemmNaiveAsm(dst, ldc, a, b, m, n, k, acc, bias)
		return
	}
	gemmNaiveGo(dst, ldc, a, b, m, n, k, acc, bias)
}

// gemmNaiveGo is the portable naive path. The three stride patterns the
// entry points produce get cache-aware loop orders; the generic fallback
// covers any other view. The bias epilogue is a trailing pass over the
// stored rows.
func gemmNaiveGo(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool, bias []float64) {
	switch {
	case !acc && a.cs == 1 && b.cs == 1:
		gemmNaiveNN(dst, ldc, a, b, m, n, k)
	case a.cs == 1 && b.rs == 1:
		gemmNaiveNT(dst, ldc, a, b, m, n, k, acc)
	default:
		gemmNaiveGeneric(dst, ldc, a, b, m, n, k, acc)
	}
	if bias != nil {
		for i := 0; i < m; i++ {
			addBiasRow(dst[i*ldc:i*ldc+n], bias)
		}
	}
}

// addBiasRow is the bias epilogue of one stored output row.
func addBiasRow(crow, bias []float64) {
	bias = bias[:len(crow)]
	for j := range crow {
		crow[j] += bias[j]
	}
}

// gemmNTRowMin is the output row count from which an NT product (strided
// B columns, MatMulNTAcc) copies B once into a row-major scratch and runs
// the row kernels instead of one strided dot chain per element. The copy
// costs k·n moves per call, which only amortises over enough output rows.
// Measured per MatMulNTAcc call on a 2-vCPU Intel Xeon VM, median of 6 runs
// (dot kernels vs copy + row kernels, m×n×k): 1×24×96 1.2 vs 1.9 µs,
// 2×24×96 2.3 vs 2.2 µs (a tie within noise), 3×24×96 3.6 vs 2.4 µs,
// 4×24×96 4.6 vs 2.7 µs, 24×24×96 28.3 vs 6.0 µs.
const gemmNTRowMin = 3

// gemmNaiveAsm runs the small-size path through the FMA assembly helpers.
// math.FMA compiled below GOAMD64=v3 pays a feature-dispatch branch on every
// call, which dominates the tiny matmuls the training graph is made of; the
// helpers issue the FMA instructions directly. The per-element chains are
// identical to the portable kernels, so this is a speed-only dispatch.
//
// Unit-stride output columns (MatMulTo's NN and MatMulTNAcc's TN
// orientations) run the row kernels: vector lanes across output columns,
// streaming B rows contiguously, and in the accumulate form one add of each
// finished sum into dst (the sum-then-one-add association, as everywhere).
// Strided output columns (MatMulNTAcc's NT orientation) run them too once m
// reaches gemmNTRowMin, against a row-major copy of B; below that they run
// the dot kernels.
func gemmNaiveAsm(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool, bias []float64) {
	if b.cs != 1 {
		if m < gemmNTRowMin {
			gemmNaiveDotAsm(dst, ldc, a, b, m, n, k, acc, bias)
			return
		}
		bt := GetUninit(k * n)
		transposeView(bt.Data, b, k, n)
		gemmNaiveAsm(dst, ldc, a, gemmView{bt.Data, n, 1}, m, n, k, acc, bias)
		Put(bt)
		return
	}
	gemmRowsFMA(dst, ldc, a.data, a.rs, a.cs, b.data, b.rs, m, n, k, acc)
	if bias != nil {
		for i := 0; i < m; i++ {
			addBiasRow(dst[i*ldc:i*ldc+n], bias)
		}
	}
}

// gemmRowsFMA runs m output rows through the assembly row kernels, two rows
// per call and an odd last row alone: row i of dst (stride ldd) receives the
// from-zero ascending-k FMA chain of A row i (at a[i*ars], step as) against
// B (row stride bs, unit column stride), for n columns — stored, or with acc
// added once.
func gemmRowsFMA(dst []float64, ldd int, a []float64, ars, as int, b []float64, bs, m, n, k int, acc bool) {
	i := 0
	for ; i+2 <= m; i += 2 {
		gemmRow2FMAAsm(&dst[i*ldd], ldd, &a[i*ars], ars, as, &b[0], bs, k, n, acc)
	}
	if i < m {
		gemmRowFMAAsm(&dst[i*ldd], &a[i*ars], as, &b[0], bs, k, n, acc)
	}
}

// transposeView copies the logical k×n view b into dst as a row-major k×n
// matrix. The NT view of an n×k tensor (unit row stride) is copied four
// logical columns — four contiguous storage rows — at a time, so every K
// step writes four adjacent outputs.
func transposeView(dst []float64, b gemmView, k, n int) {
	dst = dst[:k*n]
	j := 0
	if b.rs == 1 {
		for ; j+4 <= n; j += 4 {
			c0 := b.data[j*b.cs : j*b.cs+k]
			c1 := b.data[(j+1)*b.cs:][:len(c0)]
			c2 := b.data[(j+2)*b.cs:][:len(c0)]
			c3 := b.data[(j+3)*b.cs:][:len(c0)]
			for p, v := range c0 {
				o := dst[p*n+j : p*n+j+4]
				o[0], o[1], o[2], o[3] = v, c1[p], c2[p], c3[p]
			}
		}
	}
	for ; j < n; j++ {
		for p := 0; p < k; p++ {
			dst[p*n+j] = b.data[p*b.rs+j*b.cs]
		}
	}
}

// gemmNaiveDotAsm is the NT path for fewer than gemmNTRowMin output rows:
// one strided FMA-chain dot per element, both runs unit-stride in the NT
// case. Four adjacent output columns run interleaved — independent chains,
// each with the exact per-element sequence of the single-dot kernel — to
// keep the FMA pipeline full.
func gemmNaiveDotAsm(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool, bias []float64) {
	var s4 [4]float64
	for i := 0; i < m; i++ {
		crow := dst[i*ldc : i*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			gemmDot4FMAAsm(&s4[0], &a.data[i*a.rs], a.cs, &b.data[j*b.cs], b.rs, b.cs, k)
			if acc {
				crow[j] += s4[0]
				crow[j+1] += s4[1]
				crow[j+2] += s4[2]
				crow[j+3] += s4[3]
			} else {
				crow[j] = s4[0]
				crow[j+1] = s4[1]
				crow[j+2] = s4[2]
				crow[j+3] = s4[3]
			}
		}
		for ; j < n; j++ {
			s := gemmDotFMAAsm(&a.data[i*a.rs], a.cs, &b.data[j*b.cs], b.rs, k)
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
		if bias != nil {
			addBiasRow(crow, bias)
		}
	}
}

// gemmNaiveNN: both operands row-major, overwrite only (MatMulTo). The ikj
// order streams contiguous B rows; per element the k-ascending FMA sequence
// is preserved because each k step applies exactly one FMA to each output
// cell, starting from the zeroed row. The accumulate form cannot use ikj
// (folding k steps directly into dst would break the sum-then-one-add
// association), so acc products route through the dot-product kernels.
func gemmNaiveNN(dst []float64, ldc int, a, b gemmView, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a.data[i*a.rs : i*a.rs+k]
		crow := dst[i*ldc : i*ldc+n]
		for j := range crow {
			crow[j] = 0
		}
		for p, av := range arow {
			brow := b.data[p*b.rs : p*b.rs+n]
			for j, bv := range brow {
				crow[j] = math.FMA(av, bv, crow[j])
			}
		}
	}
}

// gemmNaiveNT: B is a transposed view with contiguous logical columns
// (MatMulNTAcc). Each output cell is a dot product of two contiguous runs.
func gemmNaiveNT(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool) {
	for i := 0; i < m; i++ {
		arow := a.data[i*a.rs : i*a.rs+k]
		crow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bcol := b.data[j*b.cs : j*b.cs+k]
			var s float64
			for p, av := range arow {
				s = math.FMA(av, bcol[p], s)
			}
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

// gemmNaiveGeneric covers arbitrary strides (MatMulTNAcc reaches here: A is
// a transposed view, B row-major).
func gemmNaiveGeneric(dst []float64, ldc int, a, b gemmView, m, n, k int, acc bool) {
	for i := 0; i < m; i++ {
		crow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s = math.FMA(a.data[i*a.rs+p*a.cs], b.data[p*b.rs+j*b.cs], s)
			}
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

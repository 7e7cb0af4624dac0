package tensor

import (
	"fmt"
	"math"
)

// This file implements the GEMM core behind every matrix-product entry point
// (MatMul, MatMulTo, AffineTo, MatMulAcc, MatMulNTAcc, MatMulTNAcc, and
// GEMMStrided, which takes the operand views themselves). It has two paths,
// and gemmOnRows picks one from the shape alone:
//
//   - The unpacked row path (gemmUnpacked). With the FMA assembly it runs
//     the row kernels of gemm_amd64.s straight on the operands: vector lanes
//     across output columns, two output rows per call, B streamed row by row
//     from where it lies (an NT product's B from one row-major copy). The
//     kernels come in two tiers with identical results: 4-lane AVX2 ymm
//     kernels, and on a CPU with AVX-512F their 8-lane zmm twins, which cover
//     the last n mod 8 columns under a lane mask. It serves every product
//     whose B operand stays cache-resident across the row pairs, and every
//     product with too few rows for packing to pay. Without the assembly it
//     is the plain triple loop on math.FMA, for the small products only.
//   - The packed, cache-blocked path (gemmPacked), for products whose B
//     would fall out of cache between row pairs. It is the classic
//     BLIS/gemmlowp decomposition restated for Go.
//
// The packed path in detail:
//
//   - The operands are addressed through View (a base slice plus logical
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
// The bias epilogue is the one IEEE add a separate AddRowVector pass would
// perform, so fusing it changes no bit. The accumulate form must keep the
// k-sum separate from dst: a batched op that accumulates a product into a
// gradient buffer already holding other contributions is then bitwise equal
// to a build that computes the bare product on a node of its own and adds it
// once — the "sum-then-one-add" the per-route and per-link oracle tests of
// the batched autodiff ops rely on. Both paths, and the portable twins of
// the assembly, perform the identical per-element sequence, so the dispatch
// decides speed only.

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

// gemmRowMaxB, gemmRowMaxM and gemmRowFewB are the assembly dispatch's
// measured rule. The row path streams B once per output row pair, so it
// wins while B (k·n elements) stays cache-resident between pairs, and
// whatever B's size while there are few pairs: below gemmMR rows every
// packed tile is a fringe tile, and up to 16 rows packing still costs more
// than re-streaming B. Measured with the two paths side by side on a 2-vCPU
// Intel Xeon VM (48 KiB L1d, 2 MiB L2 per core), GFLOPS row vs packed,
// m×n×k: 320³ (B 100 Ki elements) 23.8 vs 18.9, 128×1024×128 (128 Ki) 20.8
// vs 15.9, 512³ (256 Ki) 11.5 vs 20.7; with B at 256 Ki, 16×512×512 10.2 vs
// 8.0 and 32×512×512 10.4 vs 12.6; 5×96×2160 TN (203 Ki) 10.9 vs 0.75.
// Between 128 Ki and 256 Ki the runs disagree (384³: 16.4 vs 18.9, and 19.5
// vs 16.5 on a repeat), so gemmRowMaxB takes the low end.
//
// Up to 32 rows the row path also keeps a B of up to gemmRowFewB (7/8 of
// L2) resident across its few pairs. With the 8-lane kernels, ranges of
// five runs, row vs packed: 24×96×2160 TN (203 Ki, the V2S lstm2 dWx at
// Manhattan scale) 14.0–17.8 vs 11.5–13.7, 32×96×2160 TN 13.4–17.3 vs
// 10.8–15.0, 32×384×512 (192 Ki) 16.8–19.0 vs 12.2–13.4, 32×192×1024 TN
// 15.8–20.3 vs 11.7–13.7, 24×448×448 (196 Ki) 17.9–22.8 vs 7.9–11.5; past
// it, in three runs, 32×128×2160 TN (270 Ki) 6.0–8.4 vs 10.3–11.3 and
// 32×96×4096 TN (384 Ki) 4.3–6.3 vs 8.6–9.2.
const (
	gemmRowMaxB = 1 << 17
	gemmRowMaxM = 16
	gemmRowFewB = 7 << 15
)

// gemmNaiveMax is the portable path's crossover: without the assembly the
// row path is the math.FMA triple loop, which only beats packing two
// operands on products of fewer than gemmNaiveMax scalar FMAs.
const gemmNaiveMax = 1 << 16

// gemmOnRows reports whether an m×n×k product runs on the unpacked row path
// rather than the packed one. It depends on the shape and the CPU only.
func gemmOnRows(m, n, k int) bool {
	if !gemmHasAsm {
		return m*n*k < gemmNaiveMax
	}
	return k*n <= gemmRowMaxB || m <= gemmRowMaxM || m <= 2*gemmRowMaxM && k*n <= gemmRowFewB
}

// View addresses a logical matrix inside a flat slice: element (i, j)
// lives at Data[i*RS + j*CS]. A transposed operand is expressed by swapping
// the strides, which confines transposition to packing arithmetic, and a
// matrix whose rows lie apart in a larger buffer (every T-th row of a
// sequence-major batch) by a row stride wider than its row.
type View struct {
	Data   []float64
	RS, CS int
}

// GEMMStrided computes dst (+)= A·B (+ bias) on views: A is the m×k matrix
// a, B the k×n matrix b, and dst the m×n matrix whose row i starts at
// dst[i*ldd] with unit column stride. acc selects accumulate (one add of
// each finished product into dst) over overwrite; a non-nil bias (n values,
// overwrite only) is added to each finished product. It is the GEMM core
// behind MatMulTo, AffineTo, MatMulAcc, MatMulNTAcc and MatMulTNAcc, which
// are this call with their operands' views, so a product taken here is
// bitwise equal to the same product taken through them, whatever the
// strides. dst must not overlap a or b. It panics if a view reaches past its
// slice or a stride is negative.
func GEMMStrided(dst []float64, ldd int, a, b View, m, n, k int, acc bool, bias []float64) {
	if m < 0 || n < 0 || k < 0 || ldd < n {
		panic(fmt.Sprintf("tensor: GEMMStrided %d×%d×%d with output row stride %d", m, n, k, ldd))
	}
	a.check("A", m, k)
	b.check("B", k, n)
	View{dst, ldd, 1}.check("dst", m, n)
	if bias != nil && len(bias) < n {
		panic(fmt.Sprintf("tensor: GEMMStrided bias has %d values, want %d", len(bias), n))
	}
	gemm(dst, ldd, a, b, m, n, k, acc, bias)
}

// check panics unless v can address an r×c matrix: non-negative strides and
// its last element inside Data.
func (v View) check(name string, r, c int) {
	if v.RS < 0 || v.CS < 0 {
		panic(fmt.Sprintf("tensor: GEMMStrided %s has negative strides (%d, %d)", name, v.RS, v.CS))
	}
	if r > 0 && c > 0 && (r-1)*v.RS+(c-1)*v.CS >= len(v.Data) {
		panic(fmt.Sprintf("tensor: GEMMStrided %s (%d×%d, strides %d, %d) reaches past its %d elements", name, r, c, v.RS, v.CS, len(v.Data)))
	}
}

// gemm computes dst (+)= A·B (+ bias) where A and B are logical m×k and k×n
// views and dst is the row-major m×n output with leading dimension ldc. acc
// selects accumulate (dst +=) over overwrite (dst =); a non-nil bias (length
// n, overwrite only) selects the bias epilogue.
func gemm(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64) {
	if acc && bias != nil {
		panic("tensor: gemm bias epilogue with accumulate")
	}
	if gemmOnRows(m, n, k) {
		gemmUnpacked(dst, ldc, a, b, m, n, k, acc, bias)
		return
	}
	gemmPacked(dst, ldc, a, b, m, n, k, acc, bias)
}

// gemmPacked is gemm on the packed blocked path, for k ≥ 1. The accumulate
// form computes the product into an arena scratch block — fully written by
// the overwrite pass, so it needs no zero fill — and folds it into dst with
// a single add per element, preserving the sum-then-one-add association.
func gemmPacked(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64) {
	if !acc {
		gemmBlocked(dst, ldc, a, b, m, n, k, bias)
		return
	}
	scratch := GetUninit(m * n)
	gemmBlocked(scratch.Data, n, a, b, m, n, k, nil)
	for i := 0; i < m; i++ {
		crow := dst[i*ldc : i*ldc+n]
		for j, s := range scratch.Data[i*n : (i+1)*n] {
			crow[j] += s
		}
	}
	Put(scratch)
}

// gemmBlocked overwrites dst = A·B (+ bias) via the packed cache-blocked
// path. B is packed from the operand on every call, one K panel at a time:
// a panel's pack costs kc·nc moves against the m·kc·nc FMAs that use it, so
// keeping packed panels across calls would save at most 1/m of the work. The
// packing buffers need no zero fill: packA/packB write every entry the
// micro-kernels read. One A buffer serves every row block of a K panel.
func gemmBlocked(dst []float64, ldc int, a, b View, m, n, k int, bias []float64) {
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
func packB(dst []float64, b View, pc, jc, kc, nc int) {
	for jj := 0; jj < nc; jj += gemmNR {
		nr := min(gemmNR, nc-jj)
		out := dst[(jj/gemmNR)*kc*gemmNR:]
		if nr == gemmNR && b.CS == 1 {
			// Contiguous rows: copy four columns per K step directly.
			for p := 0; p < kc; p++ {
				src := b.Data[(pc+p)*b.RS+jc+jj:]
				o := out[p*gemmNR : p*gemmNR+4]
				o[0], o[1], o[2], o[3] = src[0], src[1], src[2], src[3]
			}
		} else if nr == gemmNR && b.RS == 1 {
			// Transposed B (MatMulNTAcc): each logical column is a
			// contiguous stored row; walk four of them side by side.
			c0 := b.Data[(jc+jj)*b.CS+pc:][:kc]
			c1 := b.Data[(jc+jj+1)*b.CS+pc:][:kc]
			c2 := b.Data[(jc+jj+2)*b.CS+pc:][:kc]
			c3 := b.Data[(jc+jj+3)*b.CS+pc:][:kc]
			for p := range c0 {
				o := out[p*gemmNR : p*gemmNR+4]
				o[0], o[1], o[2], o[3] = c0[p], c1[p], c2[p], c3[p]
			}
		} else {
			for p := 0; p < kc; p++ {
				base := (pc+p)*b.RS + (jc+jj)*b.CS
				for c := 0; c < nr; c++ {
					out[p*gemmNR+c] = b.Data[base+c*b.CS]
				}
			}
		}
	}
}

// packA lays the A block (rows [i0, i0+mc), columns [pc, pc+kc)) into
// micro-panels of gemmMR rows: panel ii/gemmMR holds, for each of kc K
// steps, gemmMR consecutive row values. Entries beyond mc are never read.
func packA(dst []float64, a View, i0, pc, mc, kc int) {
	for ii := 0; ii < mc; ii += gemmMR {
		mr := min(gemmMR, mc-ii)
		out := dst[(ii/gemmMR)*kc*gemmMR:]
		if mr == gemmMR && a.CS == 1 {
			r0 := a.Data[(i0+ii)*a.RS+pc:]
			r1 := a.Data[(i0+ii+1)*a.RS+pc:]
			r2 := a.Data[(i0+ii+2)*a.RS+pc:]
			r3 := a.Data[(i0+ii+3)*a.RS+pc:]
			r4 := a.Data[(i0+ii+4)*a.RS+pc:]
			r5 := a.Data[(i0+ii+5)*a.RS+pc:]
			r6 := a.Data[(i0+ii+6)*a.RS+pc:]
			r7 := a.Data[(i0+ii+7)*a.RS+pc:]
			for p := 0; p < kc; p++ {
				o := out[p*gemmMR : p*gemmMR+8]
				o[0], o[1], o[2], o[3] = r0[p], r1[p], r2[p], r3[p]
				o[4], o[5], o[6], o[7] = r4[p], r5[p], r6[p], r7[p]
			}
		} else {
			for r := 0; r < mr; r++ {
				base := (i0+ii+r)*a.RS + pc*a.CS
				for p := 0; p < kc; p++ {
					out[p*gemmMR+r] = a.Data[base+p*a.CS]
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

// gemmMicroEdge handles the partial tiles at the right/bottom fringe, on
// every K panel and with or without the assembly. It reads only the mr
// valid rows and nr valid columns of the packed panels, so the unwritten
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

// gemmUnpacked is gemm on the unpacked row path: with the FMA assembly
// gemmUnpackedAsm, otherwise the portable math.FMA loops of gemmNaiveGo,
// which are also the oracle the assembly is checked against.
func gemmUnpacked(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64) {
	if gemmHasAsm && n > 0 && k > 0 {
		gemmUnpackedAsm(dst, ldc, a, b, m, n, k, acc, bias)
		return
	}
	gemmNaiveGo(dst, ldc, a, b, m, n, k, acc, bias)
}

// gemmNaiveGo is the portable naive path. The three stride patterns the
// entry points produce get cache-aware loop orders; the generic fallback
// covers any other view. The bias epilogue is a trailing pass over the
// stored rows.
func gemmNaiveGo(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64) {
	switch {
	case !acc && a.CS == 1 && b.CS == 1:
		gemmNaiveNN(dst, ldc, a, b, m, n, k)
	case a.CS == 1 && b.RS == 1:
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

// gemmUnpackedAsm runs the row path through the FMA assembly helpers.
// math.FMA compiled below GOAMD64=v3 pays a feature-dispatch branch on every
// call, which dominates the small matmuls the training graph is made of; the
// helpers issue the FMA instructions directly. The per-element chains are
// identical to the portable kernels, so this is a speed-only dispatch.
//
// Every orientation runs the row kernels: vector lanes across output
// columns, streaming B rows contiguously, and in the accumulate form one
// add of each finished sum into dst (the sum-then-one-add association, as
// everywhere). B with unit-stride columns (the NN orientation of MatMulTo,
// AffineTo and MatMulAcc, and MatMulTNAcc's TN) is read where it lies; B
// with strided columns (MatMulNTAcc's NT) is first copied once into a
// row-major scratch. The copy moves k·n elements, which one or two output
// rows do not amortise, but no hot product has that shape.
func gemmUnpackedAsm(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64) {
	if b.CS != 1 {
		bt := GetUninit(k * n)
		transposeView(bt.Data, b, k, n)
		gemmRowsFMA(dst, ldc, a.Data, a.RS, a.CS, bt.Data, n, m, n, k, acc, bias)
		Put(bt)
		return
	}
	gemmRowsFMA(dst, ldc, a.Data, a.RS, a.CS, b.Data, b.RS, m, n, k, acc, bias)
}

// gemmRowsFMA runs m output rows through the assembly row kernels, two rows
// per call and an odd last row alone: row i of dst (stride ldd) receives the
// from-zero ascending-k FMA chain of A row i (at a[i*ars], step as) against
// B (row stride bs, unit column stride), for n columns — stored, or with acc
// added once. A non-nil bias (n values) is added to each finished sum in
// registers before the store.
func gemmRowsFMA(dst []float64, ldd int, a []float64, ars, as int, b []float64, bs, m, n, k int, acc bool, bias []float64) {
	var bp *float64
	if bias != nil {
		bp = &bias[:n][0]
	}
	i := 0
	if gemmHas512 {
		for ; i+2 <= m; i += 2 {
			gemmRow2FMA512Asm(&dst[i*ldd], ldd, &a[i*ars], ars, as, &b[0], bs, k, n, acc, bp)
		}
		if i < m {
			gemmRowFMA512Asm(&dst[i*ldd], &a[i*ars], as, &b[0], bs, k, n, acc, bp)
		}
		return
	}
	for ; i+2 <= m; i += 2 {
		gemmRow2FMAAsm(&dst[i*ldd], ldd, &a[i*ars], ars, as, &b[0], bs, k, n, acc, bp)
	}
	if i < m {
		gemmRowFMAAsm(&dst[i*ldd], &a[i*ars], as, &b[0], bs, k, n, acc, bp)
	}
}

// transposeView copies the logical k×n view b into dst as a row-major k×n
// matrix. The NT view of an n×k tensor (unit row stride) is copied four
// logical columns — four contiguous storage rows — at a time, so every K
// step writes four adjacent outputs.
func transposeView(dst []float64, b View, k, n int) {
	dst = dst[:k*n]
	j := 0
	if b.RS == 1 {
		for ; j+4 <= n; j += 4 {
			c0 := b.Data[j*b.CS : j*b.CS+k]
			c1 := b.Data[(j+1)*b.CS:][:len(c0)]
			c2 := b.Data[(j+2)*b.CS:][:len(c0)]
			c3 := b.Data[(j+3)*b.CS:][:len(c0)]
			for p, v := range c0 {
				o := dst[p*n+j : p*n+j+4]
				o[0], o[1], o[2], o[3] = v, c1[p], c2[p], c3[p]
			}
		}
	}
	for ; j < n; j++ {
		for p := 0; p < k; p++ {
			dst[p*n+j] = b.Data[p*b.RS+j*b.CS]
		}
	}
}

// gemmNaiveNN: both operands row-major, overwrite only (MatMulTo and
// AffineTo). The ikj order streams contiguous B rows; per element the
// k-ascending FMA sequence is preserved because each k step applies exactly
// one FMA to each output cell, starting from the zeroed row. The accumulate
// form cannot use ikj (folding k steps directly into dst would break the
// sum-then-one-add association), so MatMulAcc's products route through
// gemmNaiveGeneric's dot products.
func gemmNaiveNN(dst []float64, ldc int, a, b View, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a.Data[i*a.RS : i*a.RS+k]
		crow := dst[i*ldc : i*ldc+n]
		for j := range crow {
			crow[j] = 0
		}
		for p, av := range arow {
			brow := b.Data[p*b.RS : p*b.RS+n]
			for j, bv := range brow {
				crow[j] = math.FMA(av, bv, crow[j])
			}
		}
	}
}

// gemmNaiveNT: B is a transposed view with contiguous logical columns
// (MatMulNTAcc). Each output cell is a dot product of two contiguous runs.
func gemmNaiveNT(dst []float64, ldc int, a, b View, m, n, k int, acc bool) {
	for i := 0; i < m; i++ {
		arow := a.Data[i*a.RS : i*a.RS+k]
		crow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bcol := b.Data[j*b.CS : j*b.CS+k]
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
// a transposed view, B row-major) and the NN accumulate of MatMulAcc.
func gemmNaiveGeneric(dst []float64, ldc int, a, b View, m, n, k int, acc bool) {
	for i := 0; i < m; i++ {
		crow := dst[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s = math.FMA(a.Data[i*a.RS+p*a.CS], b.Data[p*b.RS+j*b.CS], s)
			}
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

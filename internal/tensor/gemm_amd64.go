//go:build amd64

package tensor

import "math"

// gemmMicroAsm is the AVX2+FMA3 8×4 micro-kernel in gemm_amd64.s. It computes
// the same per-element ascending-k FMA sequence as gemmMicroGo, with the four
// column chains of each row carried in the lanes of one ymm accumulator. A
// non-nil bias points at the tile's four bias values, added at the store.
//
//go:noescape
func gemmMicroAsm(c *float64, ldc int, ap, bp *float64, kc int, load bool, bias *float64)

// gemmRowFMAAsm computes one output row: s[j] = ascending-p FMA chain of
// a[p*as]*b[p*bs+j] from zero for j in [0, n), then dst[j] = s[j], or with
// acc dst[j] += s[j] (the sum-then-one-add association), or with a non-nil
// bias (acc unset) dst[j] = s[j] + bias[j]. Vector lanes run across output
// columns, so each element keeps its own scalar chain.
//
//go:noescape
func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64)

// gemmRow2FMAAsm computes two output rows in one pass: row r in {0, 1} is
// the gemmRowFMAAsm row of a+r*ars, stored (or with acc, added; or with a
// bias, stored plus the bias) at dst+r*ldd. Each B vector load feeds both rows, so a 16-column chunk keeps
// 8 independent ymm chains in flight; every element's FMA sequence is
// unchanged.
//
//go:noescape
func gemmRow2FMAAsm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64)

// gateExpAsm, gateSigmoidAsm and gateTanhAsm are the AVX2 gate kernels in
// gate_amd64.s. Each processes rows rows of n elements (n a positive
// multiple of 4), row r at src + r·stride, into dst + r·stride four lanes
// at a time, and writes ceil(n/64) flag words per row to flags, row after
// row: bit b of a row's word w set means element 64·w+b of that row lies
// outside the kernel's vector range, and dst holds it unchanged from src
// for the caller's scalar fallback. dst may alias src. See gate.go for the
// bitwise contract.
//
//go:noescape
func gateExpAsm(dst, src *float64, stride, n, rows int, flags *uint64)

//go:noescape
func gateSigmoidAsm(dst, src *float64, stride, n, rows int, flags *uint64)

//go:noescape
func gateTanhAsm(dst, src *float64, stride, n, rows int, flags *uint64)

func gemmCPUID(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func gemmXGETBV() (eax, edx uint32)

// cpuFeatures holds the CPUID and XCR0 words the kernel dispatch reads.
type cpuFeatures struct {
	maxID uint32 // CPUID leaf 0 EAX: highest basic leaf
	ecx1  uint32 // CPUID leaf 1 ECX
	ebx7  uint32 // CPUID leaf 7 subleaf 0 EBX
	xcr0  uint32 // XCR0 low word; meaningful only with OSXSAVE
}

const (
	cpuidFMA     = 1 << 12 // leaf 1 ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX
	xcr0SSEAVX   = 0x6     // xmm and ymm state enabled
	xcr0ZMM      = 0xe0    // opmask, upper halves of zmm0-15, and zmm16-31 state enabled
)

// gemm reports whether the GEMM micro-kernels may run: the CPU must
// implement FMA3 and AVX, and the OS must have enabled saving the xmm/ymm
// register state (OSXSAVE + XCR0 bits 1 and 2).
func (f cpuFeatures) gemm() bool {
	if f.maxID < 1 {
		return false
	}
	if f.ecx1&cpuidFMA == 0 || f.ecx1&cpuidOSXSAVE == 0 || f.ecx1&cpuidAVX == 0 {
		return false
	}
	return f.xcr0&xcr0SSEAVX == xcr0SSEAVX
}

// gate reports whether the CPU can run the vector gate kernels. They need
// everything the GEMM needs plus AVX2, for the 256-bit integer ops of the
// exponent scaling (VPMOVSXDQ, VPADDQ, VPSLLQ on ymm).
func (f cpuFeatures) gate() bool {
	return f.gemm() && f.maxID >= 7 && f.ebx7&cpuidAVX2 != 0
}

// avx512 reports whether the CPU can run the 8-lane kernels: everything
// the AVX2 gate kernels need, AVX-512F, and the OS saving the opmask and zmm
// register state (XCR0 bits 5-7). The kernels use AVX-512F instructions
// only (the W forms of the mask ops, the integer forms of the bitwise ops).
func (f cpuFeatures) avx512() bool {
	return f.gate() && f.ebx7&cpuidAVX512F != 0 && f.xcr0&xcr0ZMM == xcr0ZMM
}

// hostFeatures reads the running CPU's feature words.
func hostFeatures() cpuFeatures {
	var f cpuFeatures
	f.maxID, _, _, _ = gemmCPUID(0, 0)
	if f.maxID >= 1 {
		_, _, f.ecx1, _ = gemmCPUID(1, 0)
	}
	if f.maxID >= 7 {
		_, f.ebx7, _, _ = gemmCPUID(7, 0)
	}
	if f.ecx1&cpuidOSXSAVE != 0 {
		f.xcr0, _ = gemmXGETBV()
	}
	return f
}

// gemmHasAsm and gateHasAsm gate the assembly kernels, and gemmHas512 and
// gateHas512 their 8-lane AVX-512 tier: with it, the GEMM row kernels and
// the sigmoid and tanh kernels run on zmm registers, everything else stays
// on AVX2. All four are determined once at init; the dispatch never changes
// mid-run, and every assembly kernel is bitwise-identical to its portable
// counterpart and the 8-lane kernels to their AVX2 twins, so the choice
// affects speed only.
var (
	gemmHasAsm = hostFeatures().gemm()
	gemmHas512 = gemmHasAsm && hostFeatures().avx512()
	gateHasAsm = hostFeatures().gate() && gateExpMatchesMath()
	gateHas512 = gateHasAsm && hostFeatures().avx512() && gate512MatchesMath()
)

// gateExpMatchesMath reports whether gateExpAsm agrees bit for bit with
// math.Exp on a fixed spread of 256 inputs over [-700, 700]. The kernel
// ports the FMA path of math.Exp, but math.Exp chooses its path from the
// runtime's CPU flags, which GODEBUG (cpu.fma=off, cpu.avx=off) can clear
// while CPUID still reports FMA; its non-FMA path rounds differently on
// about one input in eight of this spread. Only call it when the CPU passes
// gate().
func gateExpMatchesMath() bool {
	var src, dst [gateBlock]float64
	var flags uint64
	for blk := 0; blk < 4; blk++ {
		for i := range src {
			src[i] = -700 + 1400*float64(blk*gateBlock+i)/255 + 0.1234567
		}
		if gateExpAsm(&dst[0], &src[0], gateBlock, gateBlock, 1, &flags); flags != 0 {
			return false
		}
		for i, x := range src {
			if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(x)) {
				return false
			}
		}
	}
	return true
}

// gate512MatchesMath is gateExpMatchesMath for the 8-lane tier: it runs the
// same spread of inputs through gateSigmoid512Asm, whose exp lanes are the
// 8-lane port, and requires every lane bitwise equal to the scalar
// 1/(1+math.Exp(-x)). Only call it when the CPU passes avx512().
func gate512MatchesMath() bool {
	var src, dst [gateBlock]float64
	var flags uint64
	for blk := 0; blk < 4; blk++ {
		for i := range src {
			src[i] = -700 + 1400*float64(blk*gateBlock+i)/255 + 0.1234567
		}
		if gateSigmoid512Asm(&dst[0], &src[0], gateBlock, gateBlock, 1, &flags); flags != 0 {
			return false
		}
		for i, x := range src {
			if math.Float64bits(dst[i]) != math.Float64bits(1/(1+math.Exp(-x))) {
				return false
			}
		}
	}
	return true
}

// gemmRowFMA512Asm, gemmRow2FMA512Asm, gateSigmoid512Asm and gateTanh512Asm
// are the 8-lane AVX-512F twins of gemmRowFMAAsm, gemmRow2FMAAsm,
// gateSigmoidAsm and gateTanhAsm: the same arguments, contracts and
// results, bit for bit, with the lanes in zmm registers.
//
//go:noescape
func gemmRowFMA512Asm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64)

//go:noescape
func gemmRow2FMA512Asm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64)

//go:noescape
func gateSigmoid512Asm(dst, src *float64, stride, n, rows int, flags *uint64)

//go:noescape
func gateTanh512Asm(dst, src *float64, stride, n, rows int, flags *uint64)

// lstmCellAsm, lstmHiddenAsm, flushRowsAsm and lstmGateGradAsm are the
// four-lane LSTM row kernels in lstm_amd64.s: the same arguments and
// results, bit for bit, as lstmCellGo, lstmHiddenGo, flushRowsGo and
// lstmGateGradGo (see lstm.go).
// rows and hidden (n) must be positive.
//
//go:noescape
func lstmCellAsm(c, cPrev, z *float64, zs, rows, hidden int)

//go:noescape
func lstmHiddenAsm(h *float64, hs int, z *float64, zs int, th *float64, rows, hidden int)

//go:noescape
func flushRowsAsm(dst, src *float64, ss, rows, n int)

//go:noescape
func lstmGateGradAsm(z *float64, zs int, dH, th, dC, cPrev *float64, rows, hidden int)

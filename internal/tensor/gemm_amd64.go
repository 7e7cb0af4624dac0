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

// gemmRowFMAAsm computes one output row from zero: dst[j] = ascending-p FMA
// chain of a[p*as]*b[p*bs+j] for j in [0, n). Vector lanes run across output
// columns, so each element keeps its own scalar chain.
//
//go:noescape
func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int)

// gemmDotFMAAsm is the strided scalar FMA-chain dot product.
//
//go:noescape
func gemmDotFMAAsm(a *float64, as int, b *float64, bs int, k int) float64

// gemmDot4FMAAsm runs four gemmDotFMAAsm chains at once against b vectors
// spaced brs apart, writing the four sums to dst[0:4]. Each chain's FMA
// sequence is identical to the one-at-a-time kernel; the interleave only
// hides FMA latency across independent output elements.
//
//go:noescape
func gemmDot4FMAAsm(dst, a *float64, as int, b *float64, bs, brs int, k int)

// gateExpAsm, gateSigmoidAsm and gateTanhAsm are the AVX2 gate kernels in
// gate_amd64.s. Each processes n elements (n a positive multiple of 4, at
// most 64) of src into dst four lanes at a time and returns a bitmask of
// the lanes it did not compute: bit i set means element i lies outside the
// kernel's vector range, and dst[i] holds src[i] unchanged for the caller's
// scalar fallback. dst may alias src. See gate.go for the bitwise contract.
//
//go:noescape
func gateExpAsm(dst, src *float64, n int) uint64

//go:noescape
func gateSigmoidAsm(dst, src *float64, n int) uint64

//go:noescape
func gateTanhAsm(dst, src *float64, n int) uint64

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
	xcr0SSEAVX   = 0x6     // xmm and ymm state enabled
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

// gemmHasAsm and gateHasAsm gate the assembly kernels. Both are determined
// once at init; the dispatch never changes mid-run, and every assembly
// kernel is bitwise-identical to its portable counterpart, so the choice
// affects speed only.
var (
	gemmHasAsm = hostFeatures().gemm()
	gateHasAsm = hostFeatures().gate() && gateExpMatchesMath()
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
	for blk := 0; blk < 4; blk++ {
		for i := range src {
			src[i] = -700 + 1400*float64(blk*gateBlock+i)/255 + 0.1234567
		}
		if gateExpAsm(&dst[0], &src[0], gateBlock) != 0 {
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

//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestKernelTier logs the kernel tier this CPU dispatches to, so a test log
// records which kernels its bitwise suites exercised, and pins the tiers'
// nesting: the 8-lane tier only ever rides on the AVX2 one.
func TestKernelTier(t *testing.T) {
	t.Logf("kernel tier: gemm %s, gate %s", tierName(gemmHasAsm, gemmHas512), tierName(gateHasAsm, gateHas512))
	if gemmHas512 && !gemmHasAsm || gateHas512 && !gateHasAsm {
		t.Fatal("8-lane kernels enabled without the AVX2 kernels")
	}
}

func tierName(avx2, avx512 bool) string {
	switch {
	case avx512:
		return "avx512"
	case avx2:
		return "avx2"
	default:
		return "portable"
	}
}

// TestTierRequiresAVX512 pins the CPUID gate of the 8-lane tier: everything
// the AVX2 gate kernels need, AVX-512F, and the OS saving the opmask and
// both halves of the zmm file (XCR0 bits 5-7).
func TestTierRequiresAVX512(t *testing.T) {
	full := cpuFeatures{maxID: 7, ecx1: cpuidFMA | cpuidOSXSAVE | cpuidAVX, ebx7: cpuidAVX2 | cpuidAVX512F, xcr0: xcr0SSEAVX | xcr0ZMM}
	if !full.avx512() {
		t.Fatal("AVX2+FMA+AVX-512F with OS zmm support: avx512() = false")
	}
	for _, c := range []struct {
		name string
		f    cpuFeatures
	}{
		{"no AVX-512F", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: cpuidAVX2, xcr0: full.xcr0}},
		{"no AVX2", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: cpuidAVX512F, xcr0: full.xcr0}},
		{"no FMA", cpuFeatures{maxID: 7, ecx1: cpuidOSXSAVE | cpuidAVX, ebx7: full.ebx7, xcr0: full.xcr0}},
		{"no opmask state", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: full.ebx7, xcr0: full.xcr0 &^ 0x20}},
		{"no upper zmm state", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: full.ebx7, xcr0: full.xcr0 &^ 0x40}},
		{"no zmm16-31 state", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: full.ebx7, xcr0: full.xcr0 &^ 0x80}},
	} {
		if c.f.avx512() {
			t.Errorf("%s: avx512() = true", c.name)
		}
	}
}

// skipWithout512 skips a tier test on a CPU without the 8-lane kernels,
// saying why.
func skipWithout512(t *testing.T) {
	t.Helper()
	if !hostFeatures().avx512() {
		t.Skip("CPU or OS lacks AVX-512F with zmm state: the 8-lane kernels cannot run here")
	}
}

// tierSpecials are the values the tier tests plant among ordinary ones:
// signed zeros, infinities, NaNs with and without a payload, and denormals.
var tierSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000abc), 5e-324, -5e-324, 2.2e-308, -1e-310,
}

func tierFill(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(6) == 0 {
			out[i] = tierSpecials[rng.Intn(len(tierSpecials))]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// requireSameBitsStrict compares every bit, NaN payloads included: the two
// tiers issue the same instruction forms with the same operand roles, so
// even a NaN must come out identical.
func requireSameBitsStrict(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: 8-lane %v (%#x), AVX2 %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowKernelTiersAgree calls each 8-lane row kernel and its AVX2 twin on
// the same operands and requires the same bits in the whole output buffer,
// the slack past n and between the two rows included (so a masked tail
// store writes nothing it should not). It covers every n mod 8, chunk mixes
// up to 105 columns, k = 0, all three epilogues, a strided A, and the
// special values.
func TestRowKernelTiersAgree(t *testing.T) {
	skipWithout512(t)
	rng := rand.New(rand.NewSource(25))
	const as, ars, bs, maxN = 3, 2, 107, 105
	for _, k := range []int{0, 1, 2, 7, 24} {
		a := tierFill(rng, ars+max(k-1, 0)*as+1)
		b := tierFill(rng, max(k, 1)*bs)
		bias := tierFill(rng, maxN)
		for n := 1; n <= maxN; n++ {
			if n > 41 && n%8 != 0 && n%8 != 7 && n != 97 {
				continue
			}
			ldd := n + 3
			start := tierFill(rng, 2*ldd)
			for _, c := range []struct {
				name string
				acc  bool
				bias *float64
			}{{"store", false, nil}, {"acc", true, nil}, {"bias", false, &bias[0]}} {
				what := func(kernel string) string {
					return fmt.Sprintf("%s %s n=%d k=%d", kernel, c.name, n, k)
				}
				want := append([]float64(nil), start...)
				got := append([]float64(nil), start...)
				gemmRowFMAAsm(&want[0], &a[0], as, &b[0], bs, k, n, c.acc, c.bias)
				gemmRowFMA512Asm(&got[0], &a[0], as, &b[0], bs, k, n, c.acc, c.bias)
				requireSameBitsStrict(t, what("gemmRowFMA512Asm"), got, want)

				want = append(want[:0], start...)
				got = append(got[:0], start...)
				gemmRow2FMAAsm(&want[0], ldd, &a[0], ars, as, &b[0], bs, k, n, c.acc, c.bias)
				gemmRow2FMA512Asm(&got[0], ldd, &a[0], ars, as, &b[0], bs, k, n, c.acc, c.bias)
				requireSameBitsStrict(t, what("gemmRow2FMA512Asm"), got, want)
			}
		}
	}
}

// TestGateKernelTiersAgree calls the 8-lane sigmoid and tanh kernels and
// their AVX2 twins on the same inputs, at every length the kernels accept
// up to two flag words per row (multiples of 4 up to 2·gateBlock+8), on one
// row and on three rows a stride apart, in place and out of place, and
// requires the same output bits, the same flag words, and the gaps between
// and after the rows untouched. The inputs mix ordinary values with the
// special ones (±0, denormals, NaN), with small inputs inside tanh's
// rational branch, and with inputs on either side of tanh's branch edges
// and exp's range limits.
func TestGateKernelTiersAgree(t *testing.T) {
	skipWithout512(t)
	rng := rand.New(rand.NewSource(26))
	edges := []float64{
		0.625, -0.625, 0.62, 44.01, -44.02, 710, -746, 709.78, -708.4, 1e-300,
		0.6249999999999999, -0.6249999999999999, 0.6250000000000001, -0.6250000000000001,
		1e-160, -1e-160, 0x1p-511, -0.3,
	}
	kernels := []struct {
		name     string
		avx2, zm gateKernel
	}{
		{"sigmoid", gateSigmoidAsm, gateSigmoid512Asm},
		{"tanh", gateTanhAsm, gateTanh512Asm},
	}
	const maxN = 2*gateBlock + 8
	for trial := 0; trial < 20; trial++ {
		for _, rows := range []int{1, 3} {
			for n := 4; n <= maxN; n += 4 {
				stride := n + 1 + rng.Intn(5)
				size := (rows-1)*stride + n + 1
				src := tierFill(rng, size)
				for i := range src {
					switch rng.Intn(5) {
					case 0:
						src[i] = edges[rng.Intn(len(edges))]
					case 1:
						src[i] *= 8
					case 2:
						src[i] *= 0.1 // inside tanh's rational branch
					}
				}
				words := rows * ((n + gateBlock - 1) / gateBlock)
				for _, kern := range kernels {
					what := fmt.Sprintf("%s rows=%d n=%d", kern.name, rows, n)
					want := make([]float64, size)
					got := make([]float64, size)
					for i := range want {
						want[i], got[i] = -7, -7 // outside the rows: must stay untouched
					}
					wantFlags := make([]uint64, words+1)
					gotFlags := make([]uint64, words+1)
					wantFlags[words], gotFlags[words] = 9, 9 // past the last word
					kern.avx2(&want[0], &src[0], stride, n, rows, &wantFlags[0])
					kern.zm(&got[0], &src[0], stride, n, rows, &gotFlags[0])
					requireSameFlags(t, what, gotFlags, wantFlags)
					requireSameBitsStrict(t, what, got, want)

					copy(got, src)
					kern.zm(&got[0], &got[0], stride, n, rows, &gotFlags[0])
					requireSameFlags(t, what+" in place", gotFlags, wantFlags)
					for r := 0; r < rows; r++ {
						requireSameBitsStrict(t, what+" in place", got[r*stride:r*stride+n], want[r*stride:r*stride+n])
					}
				}
			}
		}
	}
}

func requireSameFlags(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: flag word %d is %#x, AVX2 %#x", what, i, got[i], want[i])
		}
	}
}

// lstmKernels is one tier of the LSTM row kernels, by their assembly
// signatures.
type lstmKernels struct {
	cell     func(c, cPrev, z *float64, zs, rows, hidden int)
	hidden   func(h *float64, hs int, z *float64, zs int, th *float64, rows, hidden int)
	flush    func(dst, src *float64, ss, rows, n int)
	gateGrad func(z *float64, zs int, dH, th, dC, cPrev *float64, rows, hidden int)
}

var (
	lstmScalar = lstmKernels{
		cell: func(c, cPrev, z *float64, zs, rows, hidden int) {
			lstmCellGo(unsafe.Slice(c, rows*hidden), unsafe.Slice(cPrev, rows*hidden), unsafe.Slice(z, (rows-1)*zs+4*hidden), zs, rows, hidden)
		},
		hidden: func(h *float64, hs int, z *float64, zs int, th *float64, rows, hidden int) {
			lstmHiddenGo(unsafe.Slice(h, (rows-1)*hs+hidden), hs, unsafe.Slice(z, (rows-1)*zs+4*hidden), zs, unsafe.Slice(th, rows*hidden), rows, hidden)
		},
		flush: func(dst, src *float64, ss, rows, n int) {
			flushRowsGo(unsafe.Slice(dst, rows*n), unsafe.Slice(src, (rows-1)*ss+n), ss, rows, n)
		},
		gateGrad: func(z *float64, zs int, dH, th, dC, cPrev *float64, rows, hidden int) {
			bh := rows * hidden
			lstmGateGradGo(unsafe.Slice(z, (rows-1)*zs+4*hidden), zs, unsafe.Slice(dH, bh), unsafe.Slice(th, bh), unsafe.Slice(dC, bh), unsafe.Slice(cPrev, bh), rows, hidden)
		},
	}
	lstmAVX2 = lstmKernels{lstmCellAsm, lstmHiddenAsm, flushRowsAsm, lstmGateGradAsm}
)

// lstmSpecials are the values TestLSTMKernelTiersAgree plants among the
// ordinary gate and state values: signed zeros, infinities, NaNs, denormals
// and saturated gates (sigmoid at 0 and 1, tanh at ±1).
var lstmSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000abc), 5e-324, -5e-324, 1e-200, -1e-200, 1 - 0x1p-53,
}

func lstmFill(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(5) == 0 {
			out[i] = lstmSpecials[rng.Intn(len(lstmSpecials))]
		} else {
			out[i] = lo + (hi-lo)*rng.Float64()
		}
	}
	return out
}

// lstmKernelRun runs every kernel of one tier on copies of the same inputs
// and returns the buffers each wrote, in the order cell, hidden, flush,
// gate gradient (gates then dC).
func lstmKernelRun(k lstmKernels, z, st, hbuf, src []float64, zs, hs, ss, rows, hidden int) [][]float64 {
	bh := rows * hidden
	cp, dH, th, dC := st[:bh], st[bh:2*bh], st[2*bh:3*bh], st[3*bh:4*bh]
	c := append([]float64(nil), st[4*bh:5*bh]...)
	k.cell(&c[0], &cp[0], &z[0], zs, rows, hidden)
	h := append([]float64(nil), hbuf...)
	k.hidden(&h[0], hs, &z[0], zs, &th[0], rows, hidden)
	fl := append([]float64(nil), st[4*bh:5*bh]...)
	k.flush(&fl[0], &src[0], ss, rows, hidden)
	zg := append([]float64(nil), z...)
	dc := append([]float64(nil), dC...)
	k.gateGrad(&zg[0], zs, &dH[0], &th[0], &dc[0], &cp[0], rows, hidden)
	return [][]float64{c, h, fl, zg, dc}
}

// TestLSTMKernelTiersAgree runs the four LSTM row kernels — cell state,
// hidden state, the dH refill and the gate gradients — in assembly and as
// the scalar loops over the same inputs and compares every output buffer
// whole, the gaps between strided rows included, bit for bit (NaN payloads
// aside: NaN-ness must agree). hidden covers every tail length; the inputs
// mix gates in (0, 1), g and states in (−1, 1) and gradients in (−3, 3)
// with the special values.
func TestLSTMKernelTiersAgree(t *testing.T) {
	if !gemmHasAsm {
		t.Skip("no AVX kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(29))
	for _, hidden := range []int{1, 3, 5, 8, 13, 24, 33} {
		for _, rows := range []int{1, 2, 7} {
			for trial := 0; trial < 8; trial++ {
				zs, hs, ss := 4*hidden+rng.Intn(3)*3, hidden+rng.Intn(3), hidden+rng.Intn(4)
				z := lstmFill(rng, (rows-1)*zs+4*hidden, 0, 1)
				for r := 0; r < rows; r++ {
					copy(z[r*zs+3*hidden:], lstmFill(rng, hidden, -1, 1)) // g
				}
				bh := rows * hidden
				st := append(lstmFill(rng, bh, -1, 1), lstmFill(rng, bh, -3, 3)...) // cPrev, dH
				st = append(st, lstmFill(rng, bh, -1, 1)...)                        // tanh(c)
				st = append(st, lstmFill(rng, 2*bh, -3, 3)...)                      // dC, the stale output
				hbuf := lstmFill(rng, (rows-1)*hs+hidden+1, -9, 9)
				src := lstmFill(rng, (rows-1)*ss+hidden, -3, 3)

				want := lstmKernelRun(lstmScalar, z, st, hbuf, src, zs, hs, ss, rows, hidden)
				avx2 := lstmKernelRun(lstmAVX2, z, st, hbuf, src, zs, hs, ss, rows, hidden)
				for i, out := range []string{"cell", "hidden", "flush", "gate gradient", "gate gradient dC"} {
					what := fmt.Sprintf("%s hidden=%d rows=%d trial %d", out, hidden, rows, trial)
					requireSameBitsNaNAside(t, what, avx2[i], want[i])
				}
			}
		}
	}
}

// requireSameBitsNaNAside compares every bit of two outputs, except that
// two NaNs match whatever their payloads.
func requireSameBitsNaNAside(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: AVX2 %v (%#x), scalar %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

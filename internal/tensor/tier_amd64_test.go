//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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
// (multiples of 4 up to gateBlock), in place and out of place, and requires
// the same output bits and the same flagged-lane mask. The inputs mix
// ordinary values with the special ones and with inputs on either side of
// tanh's branch edges and exp's range limits.
func TestGateKernelTiersAgree(t *testing.T) {
	skipWithout512(t)
	rng := rand.New(rand.NewSource(26))
	edges := []float64{0.625, -0.625, 0.62, 44.01, -44.02, 710, -746, 709.78, -708.4, 1e-300}
	kernels := []struct {
		name     string
		avx2, zm func(dst, src *float64, n int) uint64
	}{
		{"sigmoid", gateSigmoidAsm, gateSigmoid512Asm},
		{"tanh", gateTanhAsm, gateTanh512Asm},
	}
	for trial := 0; trial < 40; trial++ {
		src := tierFill(rng, gateBlock+1)
		for i := range src {
			switch rng.Intn(4) {
			case 0:
				src[i] = edges[rng.Intn(len(edges))]
			case 1:
				src[i] *= 8
			}
		}
		for n := 4; n <= gateBlock; n += 4 {
			for _, kern := range kernels {
				want := make([]float64, n+1)
				got := make([]float64, n+1)
				want[n], got[n] = -7, -7 // past the end: must stay untouched
				wantMask := kern.avx2(&want[0], &src[0], n)
				gotMask := kern.zm(&got[0], &src[0], n)
				what := fmt.Sprintf("%s n=%d", kern.name, n)
				if gotMask != wantMask {
					t.Fatalf("%s: flagged lanes %#x, AVX2 %#x", what, gotMask, wantMask)
				}
				requireSameBitsStrict(t, what, got, want)

				copy(got, src[:n])
				if m := kern.zm(&got[0], &got[0], n); m != wantMask {
					t.Fatalf("%s in place: flagged lanes %#x, AVX2 %#x", what, m, wantMask)
				}
				requireSameBitsStrict(t, what+" in place", got[:n], want[:n])
			}
		}
	}
}

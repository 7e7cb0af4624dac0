package tensor

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ovs/internal/parallel"
)

// The gate kernels promise bitwise equality with the scalar expressions, so
// every comparison here is on bit patterns — NaN payloads included, since a
// NaN input takes the scalar fallback.

type gateCase struct {
	name   string
	vector func(dst, src []float64)
	scalar func(float64) float64
}

var gateCases = []gateCase{
	{"exp", expSlice, math.Exp},
	{"sigmoid", SigmoidSlice, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", TanhSlice, math.Tanh},
}

// checkGateBits runs every gate kernel over src, in place and out of place,
// and reports the first few elements whose bits differ from the scalar.
func checkGateBits(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	inPlace := make([]float64, len(src))
	for _, gc := range gateCases {
		gc.vector(dst, src)
		copy(inPlace, src)
		gc.vector(inPlace, inPlace)
		bad := 0
		for i, x := range src {
			want := math.Float64bits(gc.scalar(x))
			if got := math.Float64bits(dst[i]); got != want {
				bad++
				if bad <= 3 {
					t.Errorf("%s(%v [%#x]) = %#x, want %#x", gc.name, x, math.Float64bits(x), got, want)
				}
			}
			if got := math.Float64bits(inPlace[i]); got != want {
				bad++
				if bad <= 3 {
					t.Errorf("%s(%v) in place = %#x, want %#x", gc.name, x, got, want)
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d mismatches in %d inputs", gc.name, bad, len(src))
		}
	}
}

// gateEdgeInputs lists the boundary inputs: signed zeros, infinities, NaN,
// the edges of the straight-line exp path, the band where math.Exp
// overflows to +Inf although the true value is finite, the denormal-result
// boundary, and tanh's branch edges — each with its float neighbours.
func gateEdgeInputs() []float64 {
	negZero := math.Copysign(0, -1)
	centres := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff8000000000123), // NaN with a payload
		1, -1, 1e-300, -1e-300, 5e-324, -5e-324,
		709.436, 709.43613930310391, 709.44, 709.5, 709.78, 709.782712893384, 709.79, 710,
		-708.3964185322641, -708.39, -708.4, -708.74, -709, -744.4400719213812, -745.1332191019411, -746,
		1022.5 * math.Ln2, -1022.5 * math.Ln2, 1023.5 * math.Ln2, -1021.5 * math.Ln2,
		0.625, -0.625, 0.5 * 8.8029691931113054295988e+01, -0.5 * 8.8029691931113054295988e+01,
		44.01, -44.01, 44.02, -44.02, 22, -22,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	var out []float64
	for _, c := range centres {
		out = append(out, c)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			continue
		}
		lo, hi := c, c
		for i := 0; i < 3; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			out = append(out, lo, hi)
		}
	}
	return out
}

func TestGateKernelsEdgeInputs(t *testing.T) {
	edges := gateEdgeInputs()
	checkGateBits(t, edges)
	// Each edge input once more inside a slab of ordinary lanes, at every
	// lane position, so a flagged lane sits beside computed ones.
	slab := make([]float64, 8)
	for _, e := range edges {
		for pos := range slab {
			for i := range slab {
				slab[i] = float64(i) - 3.5
			}
			slab[pos] = e
			checkGateBits(t, slab)
		}
	}
	// math.Exp on amd64 overflows to +Inf above 709.436 (k rounds to 1024)
	// although e^709.44 < MaxFloat64; the kernels must agree.
	if !math.IsInf(math.Exp(709.44), 1) {
		t.Logf("this platform's math.Exp(709.44) = %v (finite)", math.Exp(709.44))
	}
	got := make([]float64, 4)
	expSlice(got, []float64{709.44, 709.44, 709.44, 709.44})
	for _, v := range got {
		if math.Float64bits(v) != math.Float64bits(math.Exp(709.44)) {
			t.Fatalf("exp(709.44) = %v, want math.Exp's %v", v, math.Exp(709.44))
		}
	}
}

// TestGateKernelsComputeStraightLine pins the split between the vector lanes
// and the scalar fallback: inputs on math.Exp's straight-line path (k in
// [-1022, 1023]) and tanh's exp branch come back unflagged, so the equality
// tests above really compare the assembly against the scalar code.
func TestGateKernelsComputeStraightLine(t *testing.T) {
	if !gateHasAsm {
		t.Skip("no vector gate kernels on this CPU")
	}
	src := []float64{-708.39, -1, 0, 709.43, 1e-300, -1e-300, 3, -700}
	dst := make([]float64, len(src))
	if mask := gateExpAsm(&dst[0], &src[0], len(src)); mask != 0 {
		t.Fatalf("exp flagged lanes %#b on straight-line inputs", mask)
	}
	for i := range src {
		src[i] = -src[i] // sigmoid takes exp(-x)
	}
	if mask := gateSigmoidAsm(&dst[0], &src[0], len(src)); mask != 0 {
		t.Fatalf("sigmoid flagged lanes %#b on straight-line inputs", mask)
	}
	tsrc := []float64{0.625, -0.625, 44.0148459655565, -44.0148459655565, 1, -1, 20, -3}
	if mask := gateTanhAsm(&dst[0], &tsrc[0], len(tsrc)); mask != 0 {
		t.Fatalf("tanh flagged lanes %#b inside its exp branch", mask)
	}
	// -708.4 has k = -1022, so its denormal result comes off the straight
	// line (one rounded multiply by 2^-1022); -708.8 has k = -1023 and takes
	// math.Exp's two-step denormal scaling, which the lanes leave to scalar.
	if mask := gateExpAsm(&dst[0], &[]float64{-708.4, -708.4, -708.4, -708.4}[0], 4); mask != 0 {
		t.Fatalf("exp flagged %#b on -708.4", mask)
	}
	out := []float64{-708.8, 709.44, math.NaN(), math.Inf(1)}
	if mask := gateExpAsm(&dst[0], &out[0], len(out)); mask != 0xf {
		t.Fatalf("exp flagged %#b, want 0b1111 for denormal branch, overflow, NaN, +Inf", mask)
	}
	tout := []float64{math.NaN(), math.Inf(1), 0.6, 45, -1e-9, 0, 0.6249999999999999, -44.02}
	if mask := gateTanhAsm(&dst[0], &tout[0], len(tout)); mask != 0xff {
		t.Fatalf("tanh flagged %#b, want 0b11111111 outside its exp branch", mask)
	}
}

// TestGateKernelsRandom compares vector against scalar bit for bit on 10⁸
// inputs (10⁶ under -short) per kernel: a third uniform over [-745, 710], a
// third N(0, 4²), a third random bit patterns, in odd-length slabs so the
// scalar tail runs too.
func TestGateKernelsRandom(t *testing.T) {
	total := 100_000_000
	if testing.Short() {
		total = 1_000_000
	}
	const slab = 4099
	var mu sync.Mutex
	failed := 0
	err := parallel.ForWorkersCtx(context.Background(), 0, (total+slab-1)/slab, 1, func(lo, hi int) {
		src := make([]float64, slab)
		dst := make([]float64, slab)
		rng := rand.New(rand.NewSource(int64(lo)))
		for s := lo; s < hi; s++ {
			for i := range src {
				switch i % 3 {
				case 0:
					src[i] = -745 + 1455*rng.Float64()
				case 1:
					src[i] = 4 * rng.NormFloat64()
				default:
					src[i] = math.Float64frombits(rng.Uint64())
				}
			}
			for _, gc := range gateCases {
				gc.vector(dst, src)
				for i, x := range src {
					if math.Float64bits(dst[i]) != math.Float64bits(gc.scalar(x)) {
						mu.Lock()
						if failed < 5 {
							t.Errorf("%s(%v [%#x]) = %v, want %v", gc.name, x, math.Float64bits(x), dst[i], gc.scalar(x))
						}
						failed++
						mu.Unlock()
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Fatalf("%d mismatches", failed)
	}
}

// FuzzGateKernels feeds arbitrary bit patterns through the gate kernels.
func FuzzGateKernels(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0, 1, -1, 0.5, 2, -3, 0.7, 44))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 709.44, -708.4, 0.625, 44.02, 1e-310))
	f.Add(seed(-745, 710, 88, -88, 20, 1e300))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkGateBits(t, src)
	})
}

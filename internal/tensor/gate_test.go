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
// boundary, tanh's branch edges, and small inputs inside tanh's rational
// branch whose square is denormal or underflows to zero — each with its
// float neighbours.
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
		0.3, -0.3, 1e-160, -1e-160, 0x1p-511, -0x1p-511, 2.2250738585072014e-308, -1e-310,
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
// [-1022, 1023]) and tanh's exp and rational branches (±0 included) come
// back unflagged, so the equality tests above really compare the assembly
// against the scalar code.
func TestGateKernelsComputeStraightLine(t *testing.T) {
	if !gateHasAsm {
		t.Skip("no vector gate kernels on this CPU")
	}
	src := []float64{-708.39, -1, 0, 709.43, 1e-300, -1e-300, 3, -700}
	dst := make([]float64, len(src))
	if mask := oneRow(gateExpAsm, dst, src); mask != 0 {
		t.Fatalf("exp flagged lanes %#b on straight-line inputs", mask)
	}
	for i := range src {
		src[i] = -src[i] // sigmoid takes exp(-x)
	}
	if mask := oneRow(gateSigmoidAsm, dst, src); mask != 0 {
		t.Fatalf("sigmoid flagged lanes %#b on straight-line inputs", mask)
	}
	tsrc := []float64{0.625, -0.625, 44.0148459655565, -44.0148459655565, 1, -1, 20, -3}
	if mask := oneRow(gateTanhAsm, dst, tsrc); mask != 0 {
		t.Fatalf("tanh flagged lanes %#b inside its exp branch", mask)
	}
	rsrc := []float64{0.6249999999999999, -0.6249999999999999, 0.6, -1e-9, 0, math.Copysign(0, -1), 5e-324, -0.3}
	if mask := oneRow(gateTanhAsm, dst, rsrc); mask != 0 {
		t.Fatalf("tanh flagged lanes %#b inside its rational branch or on ±0", mask)
	}
	// -708.4 has k = -1022, so its denormal result comes off the straight
	// line (one rounded multiply by 2^-1022); -708.8 has k = -1023 and takes
	// math.Exp's two-step denormal scaling, which the lanes leave to scalar.
	if mask := oneRow(gateExpAsm, dst, []float64{-708.4, -708.4, -708.4, -708.4}); mask != 0 {
		t.Fatalf("exp flagged %#b on -708.4", mask)
	}
	out := []float64{-708.8, 709.44, math.NaN(), math.Inf(1)}
	if mask := oneRow(gateExpAsm, dst, out); mask != 0xf {
		t.Fatalf("exp flagged %#b, want 0b1111 for denormal branch, overflow, NaN, +Inf", mask)
	}
	tout := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 45, -44.02, 1e300, -math.NaN(), 44.015}
	if mask := oneRow(gateTanhAsm, dst, tout); mask != 0xff {
		t.Fatalf("tanh flagged %#b, want 0b11111111 for NaN and the ±1 saturation", mask)
	}
}

// TestGateRowsMatchScalar runs gateRows on strided rows, in place and out
// of place, and requires every element bitwise equal to the scalar
// expression, the gaps between rows untouched and an out-of-place source
// unchanged. The inputs mix both tanh branches, ±0, denormals and NaN
// (gateEdgeInputs). The shapes cover a tail of every length, rows of one and of
// several flag words, one split across several kernel calls by row (600
// rows of two words), and one row split by column (longer than
// gateFlagWords words).
func TestGateRowsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := gateEdgeInputs()
	shapes := []struct{ rows, n int }{
		{1, 1}, {3, 3}, {5, 5}, {2, 8}, {7, 13}, {9, 64}, {4, 72}, {40, 24}, {600, 72}, {1, gateFlagWords*gateBlock + 37},
	}
	kinds := []struct {
		name   string
		f      gateFunc
		scalar func(float64) float64
	}{{"sigmoid", gateSigmoid, gateCases[1].scalar}, {"tanh", gateTanh, gateCases[2].scalar}}
	for _, sh := range shapes {
		stride := sh.n + rng.Intn(4)
		src := make([]float64, (sh.rows-1)*stride+sh.n+2)
		for i := range src {
			// Half the draws sit mostly inside tanh's rational branch.
			src[i] = 3 * rng.NormFloat64()
			if i%2 == 1 {
				src[i] *= 0.1
			}
			if rng.Intn(8) == 0 {
				src[i] = edges[rng.Intn(len(edges))]
			}
		}
		for _, k := range kinds {
			// In place the gaps keep src; out of place they keep dst's own
			// contents, which start as a constant no input takes.
			inPlace := append([]float64(nil), src...)
			outOf := make([]float64, len(src))
			for i := range outOf {
				outOf[i] = 42
			}
			wantIn := append([]float64(nil), inPlace...)
			wantOut := append([]float64(nil), outOf...)
			for r := 0; r < sh.rows; r++ {
				for j := r * stride; j < r*stride+sh.n; j++ {
					wantIn[j] = k.scalar(src[j])
					wantOut[j] = wantIn[j]
				}
			}
			gateRows(k.f, inPlace, inPlace, stride, sh.rows, sh.n)
			srcAfter := append([]float64(nil), src...)
			gateRows(k.f, outOf, srcAfter, stride, sh.rows, sh.n)
			for _, c := range []struct {
				how       string
				got, want []float64
			}{{"in place", inPlace, wantIn}, {"out of place", outOf, wantOut}, {"source of out of place", srcAfter, src}} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s %s rows=%d n=%d stride=%d: element %d is %v, want %v", k.name, c.how, sh.rows, sh.n, stride, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// gateKernel is the signature every assembly gate kernel shares.
type gateKernel func(dst, src *float64, stride, n, rows int, flags *uint64)

// oneRow runs kernel on the first len(src) ≤ gateBlock elements of dst as
// one row and returns its flag word.
func oneRow(kernel gateKernel, dst, src []float64) uint64 {
	var flags uint64
	kernel(&dst[0], &src[0], len(src), len(src), 1, &flags)
	return flags
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
	// One task per slab, seeded by the slab's index.
	slabs := make([]func(), (total+slab-1)/slab)
	for s := range slabs {
		slabs[s] = func() {
			src := make([]float64, slab)
			dst := make([]float64, slab)
			rng := rand.New(rand.NewSource(int64(s)))
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
	}
	if err := parallel.RunCtx(context.Background(), 0, slabs...); err != nil {
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

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gemmShapes are the (m, n, k) triples the equivalence tests sweep: tiny and
// degenerate shapes, shapes straddling the gemmMR/gemmNR/gemmKC tile
// boundaries by ±1, ragged non-multiples, and a few square sizes.
func gemmShapes() [][3]int {
	return [][3]int{
		{1, 1, 1},
		{1, 5, 3},
		{3, 1, 7},
		{3, 5, 7},
		{gemmMR, gemmNR, 4},
		{gemmMR - 1, gemmNR + 1, 5},
		{gemmMR + 1, gemmNR - 1, gemmKC + 1},
		{17, 19, 23},
		{gemmMC, gemmNC, gemmKC},
		{gemmMC + 1, gemmNC - 1, gemmKC - 1},
		{33, 129, 65},
		{65, 67, 3},
		{100, 100, 100},
		{256, 64, 32},
	}
}

// forceBlocked routes every product through the packed blocked path for the
// duration of fn, regardless of size.
func forceBlocked(t *testing.T, fn func()) {
	t.Helper()
	old := gemmBlockedMin
	gemmBlockedMin = 1
	defer func() { gemmBlockedMin = old }()
	fn()
}

// bitwiseEqual distinguishes -0.0 from +0.0 and compares NaN payloads, which
// AllClose(·, ·, 0) would conflate; the determinism contract is exact bits.
func bitwiseEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// refProduct is the test-local oracle, written independently of the
// production kernels: per element, the ascending-k FMA chain from zero,
// followed by one add for the accumulate forms. aT / bT select transposed
// reads (A is kxm when aT, B is nxk when bT).
func refProduct(dst, a, b *Tensor, m, n, k int, aT, bT, acc bool) {
	at := func(i, p int) float64 {
		if aT {
			return a.Data[p*m+i]
		}
		return a.Data[i*k+p]
	}
	bt := func(p, j int) float64 {
		if bT {
			return b.Data[j*k+p]
		}
		return b.Data[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s = math.FMA(at(i, p), bt(p, j), s)
			}
			if acc {
				dst.Data[i*n+j] += s
			} else {
				dst.Data[i*n+j] = s
			}
		}
	}
}

// TestGEMMBlockedMatchesReference checks all four entry points, on both the
// blocked and naive paths, against the independent oracle — bitwise — for
// every ragged shape, with the arena on and off.
func TestGEMMBlockedMatchesReference(t *testing.T) {
	defer SetPooling(true)

	rng := rand.New(rand.NewSource(42))
	for _, pooling := range []bool{true, false} {
		SetPooling(pooling)
		for _, shape := range gemmShapes() {
			m, n, k := shape[0], shape[1], shape[2]
			a := RandUniform(rng, -1, 1, m, k)
			b := RandUniform(rng, -1, 1, k, n)
			aT := RandUniform(rng, -1, 1, k, m) // A operand of TNAcc, stored kxm
			bT := RandUniform(rng, -1, 1, n, k) // B operand of NTAcc, stored nxk
			seed := RandUniform(rng, -1, 1, m, n)
			bias := RandUniform(rng, -1, 1, n)

			wantTo := New(m, n)
			refProduct(wantTo, a, b, m, n, k, false, false, false)
			wantAff := wantTo.Clone()
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					wantAff.Data[i*n+j] += bias.Data[j]
				}
			}
			// NaN-filled outputs prove the overwrite forms write every
			// element: their destinations come from un-zeroed arena gets.
			nanOut := func() *Tensor { return Full(math.NaN(), m, n) }
			wantNT := seed.Clone()
			refProduct(wantNT, a, bT, m, n, k, false, true, true)
			wantTN := seed.Clone()
			refProduct(wantTN, aT, b, m, n, k, true, false, true)

			check := func(label string, want, got *Tensor) {
				t.Helper()
				if !bitwiseEqual(got, want) {
					t.Fatalf("pooling=%v shape=%dx%dx%d: %s differs bitwise from reference",
						pooling, m, n, k, label)
				}
			}
			// Default dispatch (small shapes take the naive path).
			check("MatMul", wantTo, MatMul(a, b))
			check("MatMulTo", wantTo, MatMulTo(nanOut(), a, b))
			check("AffineTo", wantAff, AffineTo(nanOut(), a, b, bias))
			check("MatMulNTAcc", wantNT, MatMulNTAcc(seed.Clone(), a, bT))
			check("MatMulTNAcc", wantTN, MatMulTNAcc(seed.Clone(), aT, b))
			// Forced blocked path.
			forceBlocked(t, func() {
				check("blocked MatMul", wantTo, MatMul(a, b))
				check("blocked MatMulTo", wantTo, MatMulTo(nanOut(), a, b))
				check("blocked AffineTo", wantAff, AffineTo(nanOut(), a, b, bias))
				check("blocked MatMulNTAcc", wantNT, MatMulNTAcc(seed.Clone(), a, bT))
				check("blocked MatMulTNAcc", wantTN, MatMulTNAcc(seed.Clone(), aT, b))
			})
		}
	}
}

// sameBits reports whether x and y have equal bits. With nanClass set, any
// two NaNs also count as equal: a product that ends in a plain add (the
// accumulate and bias epilogues) returns one of two NaN operands' payloads,
// IEEE 754 leaves which one unspecified, and the Go compiler is free to
// commute the operands of a float add, so only the FMA chain itself pins
// NaN payloads.
func sameBits(x, y float64, nanClass bool) bool {
	if nanClass && math.IsNaN(x) && math.IsNaN(y) {
		return true
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// firstDiff returns the first index where got and want differ under
// sameBits, or -1.
func firstDiff(got, want []float64, nanClass bool) int {
	for i := range want {
		if !sameBits(got[i], want[i], nanClass) {
			return i
		}
	}
	return -1
}

// gemmSpecials are the special values the bitwise tests draw operands from:
// signed zeros, ±Inf and NaN beside ordinary ±1.
var gemmSpecials = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}

// randSpecial returns a tensor of the given shape with every element drawn
// from gemmSpecials.
func randSpecial(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = gemmSpecials[rng.Intn(len(gemmSpecials))]
	}
	return t
}

// TestGEMMBlockedMatchesNaiveSpecialValues pushes signed zeros, infinities
// and NaNs through every entry point on the default and the forced blocked
// path and requires the independent oracle's bits, even where zero-skip
// style shortcuts would diverge. Forms that end in a plain add pin NaN-ness
// but not the NaN payload (see sameBits). The shapes reach each small-product
// branch: NT below the row-kernel crossover (m 1 and 2, dot kernels) and
// above it (m 3, 4 and 9, transposed B); odd m for the two-row kernel's single
// last row; column counts whose 16-wide remainder is 4, 7 or 11 and that are
// not multiples of 4; blocked fringe tiles with fewer than gemmMR rows or
// gemmNR columns; and k > gemmKC, whose later K panels resume fringe tiles
// in Go.
func TestGEMMBlockedMatchesNaiveSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 20, 7}, {2, 23, 5}, {3, 23, 5}, {4, 20, 9}, {9, 23, 6}, {5, 27, 11},
		{gemmMR + 1, 11, gemmKC + 3}, {4, 7, gemmKC + 1},
	}
	for _, shape := range shapes {
		m, n, k := shape[0], shape[1], shape[2]
		a := randSpecial(rng, m, k)
		b := randSpecial(rng, k, n)
		aT := randSpecial(rng, k, m)
		bT := randSpecial(rng, n, k)
		seed := randSpecial(rng, m, n)
		bias := randSpecial(rng, n)

		wantTo := New(m, n)
		refProduct(wantTo, a, b, m, n, k, false, false, false)
		wantAff := wantTo.Clone()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				wantAff.Data[i*n+j] += bias.Data[j]
			}
		}
		wantNT := seed.Clone()
		refProduct(wantNT, a, bT, m, n, k, false, true, true)
		wantTN := seed.Clone()
		refProduct(wantTN, aT, b, m, n, k, true, false, true)

		run := func(path string) {
			// endsInAdd marks the forms whose last operation is a plain add,
			// where only NaN-ness, not the payload, is pinned (see sameBits).
			check := func(label string, endsInAdd bool, want, got *Tensor) {
				t.Helper()
				if i := firstDiff(got.Data, want.Data, endsInAdd); i >= 0 {
					t.Fatalf("%s path, shape %dx%dx%d: %s element %d is %v, reference %v", path, m, n, k, label, i, got.Data[i], want.Data[i])
				}
			}
			check("MatMul", false, wantTo, MatMul(a, b))
			check("MatMulTo", false, wantTo, MatMulTo(Full(1, m, n), a, b))
			check("AffineTo", true, wantAff, AffineTo(Full(1, m, n), a, b, bias))
			check("MatMulNTAcc", true, wantNT, MatMulNTAcc(seed.Clone(), a, bT))
			check("MatMulTNAcc", true, wantTN, MatMulTNAcc(seed.Clone(), aT, b))
		}
		run("default")
		forceBlocked(t, func() { run("blocked") })
	}
}

// TestGEMMNaiveKernelsAgree runs the portable naive kernels and the
// assembly naive path side by side, for every orientation the entry points
// produce (NN overwrite with and without bias, NT overwrite and accumulate
// on both sides of the row-kernel crossover, TN accumulate), and requires
// equal bits, up to the NaN payload of a final add (see sameBits). It also
// checks the two-row kernel against two one-row calls. The dispatch picks
// one path per CPU, so without this test the portable kernels would go
// unchecked on machines that have the assembly.
func TestGEMMNaiveKernelsAgree(t *testing.T) {
	if !gemmHasAsm {
		t.Skip("no assembly kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(13))
	// fill mixes ordinary values with the special ones.
	fill := func(n int) []float64 {
		out := RandUniform(rng, -1, 1, n).Data
		for i := range out {
			if rng.Intn(8) == 0 {
				out[i] = gemmSpecials[rng.Intn(len(gemmSpecials))]
			}
		}
		return out
	}
	for _, shape := range [][3]int{{1, 1, 1}, {1, 24, 96}, {2, 23, 5}, {3, 23, 5}, {4, 20, 9}, {9, 27, 6}, {24, 96, 24}, {24, 24, 96}, {7, 37, 13}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := fill(m * k)
		b := fill(k * n)
		aT := fill(k * m)
		bT := fill(n * k)
		start := fill(m * n)
		bias := fill(n)
		cases := []struct {
			name string
			a, b gemmView
			acc  bool
			bias []float64
		}{
			{"NN", gemmView{a, k, 1}, gemmView{b, n, 1}, false, nil},
			{"NN+bias", gemmView{a, k, 1}, gemmView{b, n, 1}, false, bias},
			{"NT", gemmView{a, k, 1}, gemmView{bT, 1, k}, false, nil},
			{"NT acc", gemmView{a, k, 1}, gemmView{bT, 1, k}, true, nil},
			{"TN acc", gemmView{aT, 1, m}, gemmView{b, n, 1}, true, nil},
		}
		for _, c := range cases {
			goC := append([]float64(nil), start...)
			asmC := append([]float64(nil), start...)
			gemmNaiveGo(goC, n, c.a, c.b, m, n, k, c.acc, c.bias)
			gemmNaiveAsm(asmC, n, c.a, c.b, m, n, k, c.acc, c.bias)
			if i := firstDiff(asmC, goC, c.acc || c.bias != nil); i >= 0 {
				t.Fatalf("%s %dx%dx%d: element %d: Go %v, asm %v", c.name, m, n, k, i, goC[i], asmC[i])
			}
		}
	}
	// The two-row kernel against two one-row calls, storing and adding,
	// bit for bit (both end in the same vector add), for column counts that
	// exercise its 16-, 8- and 4-wide chunks and its scalar tail, with a
	// strided A (the TN view) and output rows spaced wider than n.
	const k, as, ars, bs = 19, 3, 1, 41
	a := fill(ars + (k-1)*as + 1)
	b := fill(k * bs)
	for _, n := range []int{1, 3, 4, 7, 8, 15, 16, 27, 40, 41} {
		ldd := n + 5
		start := fill(2 * ldd)
		for _, acc := range []bool{false, true} {
			want := append([]float64(nil), start...)
			got := append([]float64(nil), start...)
			gemmRowFMAAsm(&want[0], &a[0], as, &b[0], bs, k, n, acc)
			gemmRowFMAAsm(&want[ldd], &a[ars], as, &b[0], bs, k, n, acc)
			gemmRow2FMAAsm(&got[0], ldd, &a[0], ars, as, &b[0], bs, k, n, acc)
			if i := firstDiff(got, want, false); i >= 0 {
				t.Fatalf("gemmRow2FMAAsm n=%d acc=%v: element %d: %v, two gemmRowFMAAsm calls %v", n, acc, i, got[i], want[i])
			}
		}
	}
}

// TestGEMMMicroKernelsAgree runs the portable and the assembly full-tile
// micro-kernels side by side on the same packed panels — fresh and resumed
// accumulators, with and without the bias epilogue — and requires equal
// bits. The dispatch picks one per CPU, so without this test the portable
// kernel would go unchecked on machines that have the assembly.
func TestGEMMMicroKernelsAgree(t *testing.T) {
	if !gemmHasAsm {
		t.Skip("no assembly micro-kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	const kc, ldc = 37, gemmNR + 3
	ap := RandUniform(rng, -1, 1, gemmMR*kc).Data
	bp := RandUniform(rng, -1, 1, gemmNR*kc).Data
	bias := []float64{0.5, math.Copysign(0, -1), -2, 1e-300}
	start := RandUniform(rng, -1, 1, gemmMR*ldc).Data
	for _, load := range []bool{false, true} {
		for _, b := range [][]float64{nil, bias} {
			goC := append([]float64(nil), start...)
			asmC := append([]float64(nil), start...)
			gemmMicroGo(goC, ldc, ap, bp, kc, load, b)
			var bptr *float64
			if b != nil {
				bptr = &b[0]
			}
			gemmMicroAsm(&asmC[0], ldc, &ap[0], &bp[0], kc, load, bptr)
			for i := range goC {
				if math.Float64bits(goC[i]) != math.Float64bits(asmC[i]) {
					t.Fatalf("load=%v bias=%v: element %d: Go %v, asm %v", load, b != nil, i, goC[i], asmC[i])
				}
			}
		}
	}
}

// TestGEMMAccSumThenAdd pins the accumulate association: the k-sum must be
// computed from zero and folded into dst with exactly one add, so that
// accumulating into an existing buffer equals computing the bare product and
// adding it — the invariant that lets a batched autodiff op match, bit for
// bit, a build that sums each product on a node of its own.
func TestGEMMAccSumThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][3]int{{5, 7, 3}, {33, 29, gemmKC + 5}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := RandUniform(rng, -1, 1, m, k)
		bT := RandUniform(rng, -1, 1, n, k)
		seed := RandUniform(rng, -1, 1, m, n)
		run := func() {
			direct := MatMulNTAcc(seed.Clone(), a, bT)
			bare := MatMulNTAcc(New(m, n), a, bT)
			indirect := AddInPlace(seed.Clone(), bare)
			if !bitwiseEqual(direct, indirect) {
				t.Fatalf("shape=%dx%dx%d: acc into seed differs from bare product + add", m, n, k)
			}
		}
		run()
		forceBlocked(t, run)
	}
}

// The GEMM shape-sweep benchmark lives in the repository root bench file
// (BenchmarkGEMM in bench_test.go), where cmd/ovsbench picks it up for
// BENCH_4.json.

package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ovs/internal/parallel"
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
// every ragged shape, at Workers∈{1,2,GOMAXPROCS}, with the arena on and
// off.
func TestGEMMBlockedMatchesReference(t *testing.T) {
	oldWorkers := parallel.Workers()
	defer parallel.SetWorkers(oldWorkers)
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
					t.Fatalf("pooling=%v shape=%dx%dx%d workers=%d: %s differs bitwise from reference",
						pooling, m, n, k, parallel.Workers(), label)
				}
			}
			for _, w := range workerCounts() {
				parallel.SetWorkers(w)
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
}

// TestGEMMBlockedMatchesNaiveSpecialValues pushes signed zeros, infinities
// and NaNs through both paths: the blocked kernel must reproduce the naive
// reference's bits even where the old zero-skip style shortcuts would have
// diverged.
func TestGEMMBlockedMatchesNaiveSpecialValues(t *testing.T) {
	m, n, k := 9, 11, gemmKC+3 // two K panels on the blocked path
	a := New(m, k)
	b := New(k, n)
	rng := rand.New(rand.NewSource(7))
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range a.Data {
		a.Data[i] = specials[rng.Intn(len(specials))]
	}
	for i := range b.Data {
		b.Data[i] = specials[rng.Intn(len(specials))]
	}
	want := MatMul(a, b) // small path: naive reference
	forceBlocked(t, func() {
		got := MatMul(a, b)
		if !bitwiseEqual(got, want) {
			t.Fatal("blocked path differs bitwise from naive reference on special values")
		}
	})
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
// adding it — the invariant the autodiff Fork/Ref/Join gradient path relies
// on for worker-count invariance.
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

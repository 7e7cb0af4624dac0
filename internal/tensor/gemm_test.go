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

// gemmPath is one of the two paths gemm dispatches between.
type gemmPath func(dst []float64, ldc int, a, b View, m, n, k int, acc bool, bias []float64)

// onPath runs the product of entry point op on path: the operands are viewed
// exactly as the entry point views them, and path takes the place of gemm's
// dispatch, so a test covers both paths at every shape, whichever one
// gemmOnRows picks for it. a, b, dst and bias follow op's own signature.
func onPath(path gemmPath, op string, dst, a, b, bias *Tensor) *Tensor {
	switch op {
	case "MatMulTo", "AffineTo", "MatMulAcc":
		m, k, n := a.shape[0], a.shape[1], b.shape[1]
		var bd []float64
		if op == "AffineTo" {
			bd = bias.Data
		}
		path(dst.Data, n, View{a.Data, k, 1}, View{b.Data, n, 1}, m, n, k, op == "MatMulAcc", bd)
	case "MatMulNTAcc":
		m, k, n := a.shape[0], a.shape[1], b.shape[0]
		path(dst.Data, n, View{a.Data, k, 1}, View{b.Data, 1, k}, m, n, k, true, nil)
	case "MatMulTNAcc":
		k, m, n := a.shape[0], a.shape[1], b.shape[1]
		path(dst.Data, n, View{a.Data, 1, m}, View{b.Data, n, 1}, m, n, k, true, nil)
	default:
		panic("onPath: unknown entry point " + op)
	}
	return dst
}

// gemmRunners run an entry point by name: through its public function, and
// on each of the two paths directly.
var gemmRunners = []struct {
	name string
	run  func(op string, dst, a, b, bias *Tensor) *Tensor
}{
	{"default", func(op string, dst, a, b, bias *Tensor) *Tensor {
		switch op {
		case "MatMulTo":
			return MatMulTo(dst, a, b)
		case "AffineTo":
			return AffineTo(dst, a, b, bias)
		case "MatMulAcc":
			return MatMulAcc(dst, a, b)
		case "MatMulNTAcc":
			return MatMulNTAcc(dst, a, b)
		default:
			return MatMulTNAcc(dst, a, b)
		}
	}},
	{"rows", func(op string, dst, a, b, bias *Tensor) *Tensor { return onPath(gemmUnpacked, op, dst, a, b, bias) }},
	{"packed", func(op string, dst, a, b, bias *Tensor) *Tensor { return onPath(gemmPacked, op, dst, a, b, bias) }},
}

// TestGEMMDispatch pins the path the benchmarked shapes take with the FMA
// assembly: the Volume-Speed LSTM's products run on the row kernels — the
// 24×96×2160 TN lstm2 dWx of Manhattan training included — and 512³ still
// packs, so BenchmarkMatMulPacked measures the packed path. The few-rows
// rule's edges are pinned on either side.
func TestGEMMDispatch(t *testing.T) {
	if !gemmHasAsm {
		t.Skip("no assembly kernels on this CPU: the dispatch is the m·n·k crossover")
	}
	for _, c := range []struct {
		m, n, k int
		rows    bool
	}{
		{360, 96, 24, true}, {360, 24, 96, true}, {24, 96, 360, true}, {2160, 96, 5, true},
		{5, 96, 2160, true}, {256, 256, 256, true}, {16, 512, 512, true},
		{24, 96, 2160, true}, {32, 384, 512, true}, {33, 96, 2160, false}, {32, 128, 2160, false},
		{512, 512, 512, false}, {32, 512, 512, false}, {384, 384, 384, false},
	} {
		if got := gemmOnRows(c.m, c.n, c.k); got != c.rows {
			t.Errorf("gemmOnRows(%d, %d, %d) = %v, want %v", c.m, c.n, c.k, got, c.rows)
		}
	}
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

// TestGEMMBlockedMatchesReference checks every entry point — MatMul,
// MatMulTo, AffineTo, MatMulAcc, MatMulNTAcc and MatMulTNAcc — on the default
// dispatch and on the row and the packed path directly against the
// independent oracle, bitwise, for every ragged shape, with the arena on and
// off.
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
			wantAcc := seed.Clone()
			refProduct(wantAcc, a, b, m, n, k, false, false, true)
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
			check("MatMul", wantTo, MatMul(a, b))
			for _, r := range gemmRunners {
				check(r.name+" MatMulTo", wantTo, r.run("MatMulTo", nanOut(), a, b, nil))
				check(r.name+" AffineTo", wantAff, r.run("AffineTo", nanOut(), a, b, bias))
				check(r.name+" MatMulAcc", wantAcc, r.run("MatMulAcc", seed.Clone(), a, b, nil))
				check(r.name+" MatMulNTAcc", wantNT, r.run("MatMulNTAcc", seed.Clone(), a, bT, nil))
				check(r.name+" MatMulTNAcc", wantTN, r.run("MatMulTNAcc", seed.Clone(), aT, b, nil))
			}
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
// and NaNs through every entry point on the default dispatch and on the row
// and the packed path directly, and requires the independent oracle's bits,
// even where zero-skip style shortcuts would diverge. Forms that end in a
// plain add pin NaN-ness but not the NaN payload (see sameBits). The shapes
// reach each row-path branch: NT at m 1, 2, 3, 4 and 9 (transposed B); odd m
// for the two-row kernel's single last row; column counts whose 16-wide
// remainder is 4, 7 or 11 and that are not multiples of 4. On the packed
// path they reach fringe tiles with fewer than gemmMR rows or gemmNR
// columns, and k > gemmKC, whose later K panels resume fringe tiles.
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
		wantAcc := seed.Clone()
		refProduct(wantAcc, a, b, m, n, k, false, false, true)
		wantNT := seed.Clone()
		refProduct(wantNT, a, bT, m, n, k, false, true, true)
		wantTN := seed.Clone()
		refProduct(wantTN, aT, b, m, n, k, true, false, true)

		// endsInAdd marks the forms whose last operation is a plain add,
		// where only NaN-ness, not the payload, is pinned (see sameBits).
		check := func(path, label string, endsInAdd bool, want, got *Tensor) {
			t.Helper()
			if i := firstDiff(got.Data, want.Data, endsInAdd); i >= 0 {
				t.Fatalf("%s path, shape %dx%dx%d: %s element %d is %v, reference %v", path, m, n, k, label, i, got.Data[i], want.Data[i])
			}
		}
		check("default", "MatMul", false, wantTo, MatMul(a, b))
		for _, r := range gemmRunners {
			check(r.name, "MatMulTo", false, wantTo, r.run("MatMulTo", Full(1, m, n), a, b, nil))
			check(r.name, "AffineTo", true, wantAff, r.run("AffineTo", Full(1, m, n), a, b, bias))
			check(r.name, "MatMulAcc", true, wantAcc, r.run("MatMulAcc", seed.Clone(), a, b, nil))
			check(r.name, "MatMulNTAcc", true, wantNT, r.run("MatMulNTAcc", seed.Clone(), a, bT, nil))
			check(r.name, "MatMulTNAcc", true, wantTN, r.run("MatMulTNAcc", seed.Clone(), aT, b, nil))
		}
	}
}

// TestGEMMNaiveKernelsAgree runs the portable naive kernels and the
// assembly row path side by side, for every orientation the entry points
// produce (NN overwrite with and without bias, NN accumulate, NT overwrite
// and accumulate, TN accumulate), and requires equal bits, up to the NaN
// payload of a final add (see sameBits). 1×64×432 is the NN baseline's
// output-layer dX, the one-row NT product the program runs, and 2×64×432
// its two-row twin. It also checks the two-row kernel against two one-row
// calls. The dispatch picks one path per CPU, so without this test the
// portable kernels would go unchecked on machines that have the assembly.
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
	for _, shape := range [][3]int{{1, 1, 1}, {1, 24, 96}, {2, 23, 5}, {3, 23, 5}, {4, 20, 9}, {9, 27, 6}, {24, 96, 24}, {24, 24, 96}, {7, 37, 13}, {1, 64, 432}, {2, 64, 432}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := fill(m * k)
		b := fill(k * n)
		aT := fill(k * m)
		bT := fill(n * k)
		start := fill(m * n)
		bias := fill(n)
		cases := []struct {
			name string
			a, b View
			acc  bool
			bias []float64
		}{
			{"NN", View{a, k, 1}, View{b, n, 1}, false, nil},
			{"NN+bias", View{a, k, 1}, View{b, n, 1}, false, bias},
			{"NN acc", View{a, k, 1}, View{b, n, 1}, true, nil},
			{"NT", View{a, k, 1}, View{bT, 1, k}, false, nil},
			{"NT acc", View{a, k, 1}, View{bT, 1, k}, true, nil},
			{"TN acc", View{aT, 1, m}, View{b, n, 1}, true, nil},
		}
		for _, c := range cases {
			goC := append([]float64(nil), start...)
			asmC := append([]float64(nil), start...)
			gemmNaiveGo(goC, n, c.a, c.b, m, n, k, c.acc, c.bias)
			gemmUnpackedAsm(asmC, n, c.a, c.b, m, n, k, c.acc, c.bias)
			if i := firstDiff(asmC, goC, c.acc || c.bias != nil); i >= 0 {
				t.Fatalf("%s %dx%dx%d: element %d: Go %v, asm %v", c.name, m, n, k, i, goC[i], asmC[i])
			}
		}
	}
	// The two-row kernel against two one-row calls, storing, adding and
	// adding a bias, bit for bit (both end in the same vector add), for
	// column counts that exercise its 16-, 8- and 4-wide chunks and its
	// scalar tail, with a strided A (the TN view) and output rows spaced
	// wider than n.
	const k, as, ars, bs = 19, 3, 1, 41
	a := fill(ars + (k-1)*as + 1)
	b := fill(k * bs)
	bias := fill(41)
	for _, n := range []int{1, 3, 4, 7, 8, 15, 16, 27, 40, 41} {
		ldd := n + 5
		start := fill(2 * ldd)
		for _, c := range []struct {
			acc  bool
			bias *float64
		}{{false, nil}, {true, nil}, {false, &bias[0]}} {
			want := append([]float64(nil), start...)
			got := append([]float64(nil), start...)
			gemmRowFMAAsm(&want[0], &a[0], as, &b[0], bs, k, n, c.acc, c.bias)
			gemmRowFMAAsm(&want[ldd], &a[ars], as, &b[0], bs, k, n, c.acc, c.bias)
			gemmRow2FMAAsm(&got[0], ldd, &a[0], ars, as, &b[0], bs, k, n, c.acc, c.bias)
			if i := firstDiff(got, want, false); i >= 0 {
				t.Fatalf("gemmRow2FMAAsm n=%d acc=%v bias=%v: element %d: %v, two gemmRowFMAAsm calls %v", n, c.acc, c.bias != nil, i, got[i], want[i])
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
// bit, a build that sums each product on a node of its own. It holds for the
// NN, NT and TN accumulates on the default dispatch and on both paths.
func TestGEMMAccSumThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][3]int{{5, 7, 3}, {33, 29, gemmKC + 5}} {
		m, n, k := shape[0], shape[1], shape[2]
		seed := RandUniform(rng, -1, 1, m, n)
		for _, c := range []struct {
			op   string
			a, b *Tensor
		}{
			{"MatMulAcc", RandUniform(rng, -1, 1, m, k), RandUniform(rng, -1, 1, k, n)},
			{"MatMulNTAcc", RandUniform(rng, -1, 1, m, k), RandUniform(rng, -1, 1, n, k)},
			{"MatMulTNAcc", RandUniform(rng, -1, 1, k, m), RandUniform(rng, -1, 1, k, n)},
		} {
			for _, r := range gemmRunners {
				direct := r.run(c.op, seed.Clone(), c.a, c.b, nil)
				bare := r.run(c.op, New(m, n), c.a, c.b, nil)
				indirect := AddInPlace(seed.Clone(), bare)
				if !bitwiseEqual(direct, indirect) {
					t.Fatalf("%s path, %s shape=%dx%dx%d: acc into seed differs from bare product + add", r.name, c.op, m, n, k)
				}
			}
		}
	}
}

// TestGEMMStrided takes products on every T-th row of sequence-major
// buffers — the fused LSTM's per-step operands — through GEMMStrided, and
// requires bitwise the result of the named entry point on gathered
// contiguous copies: NN accumulate with strided A and dst, TN accumulate
// with strided A and B, and the bias form, at an odd and an even batch. It
// also requires a panic for views that reach past their slice or have a
// negative stride, and for a bias shorter than a row.
func TestGEMMStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const steps, step = 5, 3
	for _, batch := range []int{7, 40} {
		const h, h4 = 6, 24
		hs := RandUniform(rng, -1, 1, batch*steps, h)   // rows b·T+t
		buf := RandUniform(rng, -1, 1, batch*steps, h4) // rows b·T+t
		w := RandUniform(rng, -1, 1, h, h4)
		bias := RandUniform(rng, -1, 1, h4)
		rowsOf := func(x *Tensor, n int) *Tensor {
			out := New(batch, n)
			for b := 0; b < batch; b++ {
				copy(out.Data[b*n:(b+1)*n], x.Data[(b*steps+step)*n:(b*steps+step+1)*n])
			}
			return out
		}
		hRows, gRows := rowsOf(hs, h), rowsOf(buf, h4)
		aView := View{hs.Data[step*h:], steps * h, 1}
		gView := View{buf.Data[step*h4:], steps * h4, 1}

		// NN accumulate into strided dst rows.
		got := buf.Clone()
		GEMMStrided(got.Data[step*h4:], steps*h4, aView, View{w.Data, h4, 1}, batch, h4, h, true, nil)
		want := MatMulAcc(gRows.Clone(), hRows, w)
		if !bitwiseEqual(rowsOf(got, h4), want) {
			t.Fatalf("batch %d: strided NN accumulate differs from MatMulAcc", batch)
		}
		// TN accumulate: Hᵀ·G with both operands strided.
		seed := RandUniform(rng, -1, 1, h, h4)
		gotTN := seed.Clone()
		GEMMStrided(gotTN.Data, h4, View{hs.Data[step*h:], 1, steps * h}, gView, h, h4, batch, true, nil)
		if !bitwiseEqual(gotTN, MatMulTNAcc(seed.Clone(), hRows, gRows)) {
			t.Fatalf("batch %d: strided TN accumulate differs from MatMulTNAcc", batch)
		}
		// Bias form into a contiguous dst.
		gotB := New(batch, h4)
		GEMMStrided(gotB.Data, h4, aView, View{w.Data, h4, 1}, batch, h4, h, false, bias.Data)
		if !bitwiseEqual(gotB, AffineTo(New(batch, h4), hRows, w, bias)) {
			t.Fatalf("batch %d: strided bias form differs from AffineTo", batch)
		}
	}

	for _, c := range []struct {
		name string
		run  func()
	}{
		{"A past its slice", func() {
			GEMMStrided(make([]float64, 4), 2, View{make([]float64, 3), 2, 1}, View{make([]float64, 4), 2, 1}, 2, 2, 2, false, nil)
		}},
		{"B negative stride", func() {
			GEMMStrided(make([]float64, 4), 2, View{make([]float64, 4), 2, 1}, View{make([]float64, 4), -2, 1}, 2, 2, 2, false, nil)
		}},
		{"dst past its slice", func() {
			GEMMStrided(make([]float64, 4), 3, View{make([]float64, 4), 2, 1}, View{make([]float64, 4), 2, 1}, 2, 2, 2, false, nil)
		}},
		{"short bias", func() {
			GEMMStrided(make([]float64, 4), 2, View{make([]float64, 4), 2, 1}, View{make([]float64, 4), 2, 1}, 2, 2, 2, false, []float64{1})
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: GEMMStrided did not panic", c.name)
				}
			}()
			c.run()
		}()
	}
}

// The GEMM shape-sweep benchmark lives in the repository root bench file
// (BenchmarkGEMM in bench_test.go), where cmd/ovsbench picks it up for
// BENCH_4.json.

package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// gradCheck verifies backprop gradients against central finite differences
// for every parameter used by build. build must construct a fresh graph from
// the shared parameters and return its scalar loss node.
func gradCheck(t *testing.T, params []*Parameter, build func(g *Graph) *Node) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-4

	for _, p := range params {
		p.ZeroGrad()
	}
	g := NewGraph()
	loss := build(g)
	g.Backward(loss)

	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := build(NewGraph()).Value.Data[0]
			p.Value.Data[i] = orig - eps
			down := build(NewGraph()).Value.Data[0]
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %q[%d]: analytic grad %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func randParam(rng *rand.Rand, name string, shape ...int) *Parameter {
	return NewParameter(name, tensor.Randn(rng, 0.5, shape...))
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, "a", 3, 4)
	b := randParam(rng, "b", 4, 2)
	target := tensor.Randn(rng, 1, 3, 2)
	gradCheck(t, []*Parameter{a, b}, func(g *Graph) *Node {
		return MSE(MatMul(g.Param(a), g.Param(b)), target)
	})
}

func TestGradElementwiseOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, "a", 2, 3)
	b := randParam(rng, "b", 2, 3)
	target := tensor.Randn(rng, 1, 2, 3)
	gradCheck(t, []*Parameter{a, b}, func(g *Graph) *Node {
		na, nb := g.Param(a), g.Param(b)
		x := Add(Mul(na, nb), Sub(na, Scale(nb, 0.3)))
		return MSE(AddScalar(x, 0.1), target)
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		act  func(*Node) *Node
	}{
		{"sigmoid", Sigmoid},
		{"tanh", Tanh},
		{"relu", ReLU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := randParam(rng, "a", 3, 3)
			// Nudge values away from the ReLU kink where the numerical
			// derivative is undefined.
			for i := range a.Value.Data {
				if math.Abs(a.Value.Data[i]) < 1e-3 {
					a.Value.Data[i] = 0.1
				}
			}
			target := tensor.Randn(rng, 1, 3, 3)
			gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
				return MSE(tc.act(g.Param(a)), target)
			})
		})
	}
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, "a", 3, 5)
	target := tensor.Randn(rng, 1, 3, 5)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(SoftmaxRows(g.Param(a)), target)
	})
}

func TestGradSoftmaxVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, "a", 6)
	target := tensor.Randn(rng, 1, 6)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(SoftmaxRows(g.Param(a)), target)
	})
}

func TestGradAddRowVectorAndTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, "a", 4, 3)
	v := randParam(rng, "v", 3)
	target := tensor.Randn(rng, 1, 3, 4)
	gradCheck(t, []*Parameter{a, v}, func(g *Graph) *Node {
		return MSE(Transpose(AddRowVector(g.Param(a), g.Param(v))), target)
	})
}

func TestGradStructuralOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, "a", 3, 4)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		na := g.Param(a)
		r0, r2 := Row(na, 0), Row(na, 2)
		joined := Reshape(ConcatCols(Reshape(r0, 1, 4), Reshape(r2, 1, 4)), 8)
		stacked := StackRows([]*Node{r0, r2, SliceVec(joined, 2, 6)})
		return Mean(Mul(stacked, stacked))
	})
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, "a", 2, 6)
	target := tensor.Randn(rng, 1, 3, 4)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(Reshape(g.Param(a), 3, 4), target)
	})
}

func TestGradLagAttend(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Two series of 8 steps over 3 lags.
	alpha := randParam(rng, "alpha", 2*8, 3)
	p := randParam(rng, "p", 2, 8)
	target := tensor.Randn(rng, 1, 2, 8)
	gradCheck(t, []*Parameter{alpha, p}, func(g *Graph) *Node {
		return MSE(LagAttend(g.Param(alpha), g.Param(p)), target)
	})
}

func TestLagAttendValue(t *testing.T) {
	g := NewGraph()
	// W=2, T=3, two series: out[b,t] = a[b·3+t,0]*p[b,t] + a[b·3+t,1]*p[b,t-1]
	alpha := g.Const(tensor.FromSlice([]float64{
		1, 4,
		2, 5,
		3, 6,
		1, 1,
		0, 2,
		1, 0,
	}, 6, 2))
	p := g.Const(tensor.FromSlice([]float64{
		10, 20, 30,
		1, 2, 3,
	}, 2, 3))
	out := LagAttend(alpha, p)
	want := tensor.FromSlice([]float64{
		1 * 10, 2*20 + 5*10, 3*30 + 6*20,
		1 * 1, 0*2 + 2*1, 1*3 + 0*2,
	}, 2, 3)
	if !tensor.AllClose(out.Value, want, 1e-12) {
		t.Fatalf("LagAttend = %v, want %v", out.Value, want)
	}
}

func TestGradGatherScatterSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, "a", 3, 4)
	frac := randParam(rng, "frac", 3, 2)
	target := tensor.Randn(rng, 1, 4, 4)
	gradCheck(t, []*Parameter{a, frac}, func(g *Graph) *Node {
		routes := SplitRows(g.Param(a), g.Param(frac))           // (6 × 4)
		picked := GatherRows(routes, []int{5, 0, 5, 2, 3, 0, 1}) // repeats
		sums := ScatterAddRows(picked, [][]int{{2, 0}, {}, {6, 1, 3}, {4, 5}})
		return MSE(sums, target)
	})
}

// TestGatherScatterMatchRowOps: GatherRows is bitwise a stack of Row copies,
// gradient included, and ScatterAddRows bitwise a SumNodes per group over
// those rows.
func TestGatherScatterMatchRowOps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := tensor.Randn(rng, 1, 5, 3)
	weights := tensor.Randn(rng, 1, 3, 3)
	idx := []int{4, 1, 4, 0, 4, 2, 1}
	segs := [][]int{{3, 0, 6}, {}, {1, 2, 4, 5}}
	run := func(batched bool) (val, grad *tensor.Tensor) {
		a := NewParameter("a", src.Clone())
		g := NewGraph()
		defer g.Release()
		na := g.Param(a)
		var sums *Node
		if batched {
			sums = ScatterAddRows(GatherRows(na, idx), segs)
		} else {
			rows := make([]*Node, len(idx))
			for i, r := range idx {
				rows[i] = Row(na, r)
			}
			out := make([]*Node, len(segs))
			for s, seg := range segs {
				if len(seg) == 0 {
					out[s] = g.Const(g.Alloc(3))
					continue
				}
				parts := make([]*Node, len(seg))
				for j, i := range seg {
					parts[j] = rows[i]
				}
				out[s] = SumNodes(parts...)
			}
			sums = StackRows(out)
		}
		g.Backward(Sum(Mul(sums, g.Const(weights))))
		return sums.Value.Clone(), a.Grad.Clone()
	}
	val, grad := run(true)
	wantVal, wantGrad := run(false)
	requireBits(t, "value", val.Data, wantVal.Data)
	requireBits(t, "grad", grad.Data, wantGrad.Data)
}

func TestGradConv1DSame(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randParam(rng, "x", 2, 7)
	k := randParam(rng, "k", 3, 2, 3)
	b := randParam(rng, "b", 3)
	target := tensor.Randn(rng, 1, 3, 7)
	gradCheck(t, []*Parameter{x, k, b}, func(g *Graph) *Node {
		return MSE(Conv1DSame(g.Param(x), g.Param(k), g.Param(b)), target)
	})
}

func TestGradConv1DSameBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randParam(rng, "x", 3, 2, 6)
	k := randParam(rng, "k", 2, 2, 3)
	b := randParam(rng, "b", 2)
	target := tensor.Randn(rng, 1, 3, 2, 6)
	gradCheck(t, []*Parameter{x, k, b}, func(g *Graph) *Node {
		return MSE(Conv1DSame(g.Param(x), g.Param(k), g.Param(b)), target)
	})
}

// TestConv1DSameBatchMatchesPerItem: a batched convolution is bitwise the
// convolutions of its items recorded one after another on one tape — its
// output and the input, kernel and bias gradients.
func TestConv1DSameBatchMatchesPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const batch, cin, cout, steps = 5, 2, 3, 7
	xT := tensor.Randn(rng, 1, batch, cin, steps)
	kT := tensor.Randn(rng, 0.5, cout, cin, 3)
	bT := tensor.Randn(rng, 0.5, cout)
	weights := tensor.Randn(rng, 1, batch, cout, steps)
	run := func(batched bool) []*tensor.Tensor {
		x := NewParameter("x", xT.Clone())
		k := NewParameter("k", kT.Clone())
		b := NewParameter("b", bT.Clone())
		g := NewGraph()
		defer g.Release()
		nx := g.Param(x)
		var out *Node
		if batched {
			out = Conv1DSame(nx, g.Param(k), g.Param(b))
		} else {
			flat := Reshape(nx, batch*cin, steps)
			items := make([]*Node, batch)
			for i := range items {
				xi := GatherRows(flat, []int{i * cin, i*cin + 1})
				items[i] = Reshape(Conv1DSame(xi, g.Param(k), g.Param(b)), cout*steps)
			}
			out = Reshape(StackRows(items), batch, cout, steps)
		}
		g.Backward(Sum(Mul(out, g.Const(weights))))
		return []*tensor.Tensor{out.Value.Clone(), x.Grad.Clone(), k.Grad.Clone(), b.Grad.Clone()}
	}
	got, want := run(true), run(false)
	for i, name := range []string{"out", "x.Grad", "k.Grad", "b.Grad"} {
		requireBits(t, name, got[i].Data, want[i].Data)
	}
}

func TestGradTransposeBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randParam(rng, "a", 2, 3, 4)
	target := tensor.Randn(rng, 1, 2, 4, 3)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(Transpose(g.Param(a)), target)
	})
}

func TestFrozenParameterGetsNoGradient(t *testing.T) {
	p := NewParameter("w", tensor.Ones(3))
	q := NewParameter("v", tensor.Ones(3))
	q.SetFrozen(true)
	g := NewGraph()
	loss := Mean(Mul(g.Param(p), g.Param(q)))
	g.Backward(loss)
	if p.Grad.Norm2() == 0 {
		t.Fatal("unfrozen parameter received no gradient")
	}
	if q.Grad.Norm2() != 0 {
		t.Fatalf("frozen parameter received gradient %v", q.Grad.Data)
	}
	q.SetFrozen(false)
	g2 := NewGraph()
	g2.Backward(Mean(Mul(g2.Param(p), g2.Param(q))))
	if q.Grad.Norm2() == 0 {
		t.Fatal("unfreezing did not restore gradient flow")
	}
}

func TestConv1DSameIdentityKernel(t *testing.T) {
	g := NewGraph()
	x := g.Const(tensor.FromSlice([]float64{1, 2, 3, 4, 5}, 1, 5))
	// Identity kernel [0 1 0], zero bias -> output equals input.
	k := g.Const(tensor.FromSlice([]float64{0, 1, 0}, 1, 1, 3))
	b := g.Const(tensor.New(1))
	out := Conv1DSame(x, k, b)
	if !tensor.AllClose(out.Value, x.Value, 1e-12) {
		t.Fatalf("identity conv = %v", out.Value)
	}
}

func TestConv1DSameZeroPadding(t *testing.T) {
	g := NewGraph()
	x := g.Const(tensor.FromSlice([]float64{1, 1, 1}, 1, 3))
	// Averaging kernel: edges see one zero-padded neighbor.
	k := g.Const(tensor.FromSlice([]float64{1, 1, 1}, 1, 1, 3))
	b := g.Const(tensor.New(1))
	out := Conv1DSame(x, k, b)
	want := tensor.FromSlice([]float64{2, 3, 2}, 1, 3)
	if !tensor.AllClose(out.Value, want, 1e-12) {
		t.Fatalf("padded conv = %v, want %v", out.Value, want)
	}
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// Using the same parameter twice must sum both contributions.
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, "a", 2, 2)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		na := g.Param(a)
		return Mean(Mul(na, na))
	})
}

func TestConstHasNoGradient(t *testing.T) {
	g := NewGraph()
	c := g.Const(tensor.FromSlice([]float64{1, 2}, 2))
	p := NewParameter("p", tensor.FromSlice([]float64{3, 4}, 2))
	out := Mean(Mul(g.Param(p), c))
	g.Backward(out)
	if c.Grad != nil && c.Grad.Norm2() != 0 {
		t.Fatal("constant received gradient")
	}
	if p.Grad.Norm2() == 0 {
		t.Fatal("parameter received no gradient")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	g := NewGraph()
	p := NewParameter("p", tensor.New(2, 2))
	n := g.Param(p)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar did not panic")
		}
	}()
	g.Backward(n)
}

func TestMixedGraphPanics(t *testing.T) {
	g1, g2 := NewGraph(), NewGraph()
	a := g1.Const(tensor.New(2))
	b := g2.Const(tensor.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("mixing graphs did not panic")
		}
	}()
	Add(a, b)
}

func TestDropoutTrainEvalBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := NewGraph()
	x := g.Const(tensor.Ones(100, 100))
	eval := Dropout(x, 0.5, false, rng)
	if eval != x {
		t.Fatal("eval-mode dropout must be the identity node")
	}
	train := Dropout(x, 0.5, true, rng)
	zeros := 0
	for _, v := range train.Value.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept and scaled by 1/(1-p)
		default:
			t.Fatalf("dropout produced unexpected value %v", v)
		}
	}
	frac := float64(zeros) / float64(train.Value.Size())
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout zero fraction = %v, want ~0.5", frac)
	}
}

func TestGradDropout(t *testing.T) {
	// With a fixed mask (reconstructed via the same seed) the gradient should
	// match finite differences. We instead test the simpler invariant: the
	// gradient is zero exactly where the mask zeroed the activation.
	rng := rand.New(rand.NewSource(13))
	p := NewParameter("p", tensor.Ones(10, 10))
	g := NewGraph()
	out := Dropout(g.Param(p), 0.3, true, rng)
	g.Backward(Mean(out))
	for i := range out.Value.Data {
		zeroed := out.Value.Data[i] == 0
		gradZero := p.Grad.Data[i] == 0
		if zeroed != gradZero {
			t.Fatalf("dropout grad mask mismatch at %d: value=%v grad=%v", i, out.Value.Data[i], p.Grad.Data[i])
		}
	}
}

func TestGraphNodeCountGrows(t *testing.T) {
	g := NewGraph()
	a := g.Const(tensor.New(2))
	before := g.NumNodes()
	_ = Add(a, a)
	if g.NumNodes() != before+1 {
		t.Fatalf("node count %d, want %d", g.NumNodes(), before+1)
	}
}

func TestGradSoftplus(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randParam(rng, "a", 3, 3)
	target := tensor.Randn(rng, 1, 3, 3)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(Softplus(g.Param(a)), target)
	})
}

func TestSoftplusValues(t *testing.T) {
	g := NewGraph()
	x := g.Const(tensor.FromSlice([]float64{0, 100, -100}, 3))
	y := Softplus(x)
	if math.Abs(y.Value.Data[0]-math.Log(2)) > 1e-12 {
		t.Fatalf("softplus(0) = %v", y.Value.Data[0])
	}
	if math.Abs(y.Value.Data[1]-100) > 1e-9 {
		t.Fatalf("softplus(100) = %v", y.Value.Data[1])
	}
	if y.Value.Data[2] < 0 || y.Value.Data[2] > 1e-9 {
		t.Fatalf("softplus(-100) = %v", y.Value.Data[2])
	}
}

func TestGradMulScalarNode(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randParam(rng, "a", 4)
	s := randParam(rng, "s", 1)
	target := tensor.Randn(rng, 1, 4)
	gradCheck(t, []*Parameter{a, s}, func(g *Graph) *Node {
		return MSE(MulScalarNode(g.Param(a), g.Param(s)), target)
	})
}

func TestGradSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := NewParameter("a", tensor.RandUniform(rng, 0.5, 4, 3, 3))
	target := tensor.Randn(rng, 1, 3, 3)
	gradCheck(t, []*Parameter{a}, func(g *Graph) *Node {
		return MSE(Sqrt(g.Param(a)), target)
	})
}

func TestSqrtValues(t *testing.T) {
	g := NewGraph()
	out := Sqrt(g.Const(tensor.FromSlice([]float64{4, 9, 0.25}, 3)))
	want := tensor.FromSlice([]float64{2, 3, 0.5}, 3)
	if !tensor.AllClose(out.Value, want, 1e-12) {
		t.Fatalf("Sqrt = %v", out.Value)
	}
}

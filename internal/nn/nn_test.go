package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

func TestDenseShapesAndForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, "d", 3, 5, ActNone)
	if d.In() != 3 || d.Out() != 5 {
		t.Fatalf("In/Out = %d/%d", d.In(), d.Out())
	}
	g := autodiff.NewGraph()
	x := g.Const(tensor.Ones(4, 3))
	y := d.Forward(x, false)
	if y.Value.Dim(0) != 4 || y.Value.Dim(1) != 5 {
		t.Fatalf("output shape %v", y.Value.Shape())
	}
	// With zero bias, identical rows in must give identical rows out.
	for j := 0; j < 5; j++ {
		if y.Value.At(0, j) != y.Value.At(3, j) {
			t.Fatal("identical input rows produced different outputs")
		}
	}
}

// TestDenseSeesRawWeightWrite writes a Dense layer's weights in place,
// bypassing every tensor method, between two forward passes on the blocked
// GEMM path (32·64·64 scalar ops). The second pass must use the new weights
// bit for bit: no product may serve operand data remembered from an
// earlier call.
func TestDenseSeesRawWeightWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(rng, "d", 64, 64, ActNone)
	for i := range d.B.Value.Data {
		d.B.Value.Data[i] = rng.NormFloat64()
	}
	x := tensor.Randn(rng, 1, 32, 64)
	d.Forward(autodiff.NewGraph().Const(x), false)

	d.W.Value.Data[0] += 1
	for i := range d.W.Value.Data {
		d.W.Value.Data[i] *= -1.5
	}
	got := d.Forward(autodiff.NewGraph().Const(x), false).Value
	want := tensor.AddRowVector(tensor.MatMul(x, d.W.Value.Clone()), d.B.Value)
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("element %d after a raw weight write: got %v, want %v", i, got.Data[i], w)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mlp := MLP(rng, "xor", []int{2, 8, 1}, ActTanh, ActSigmoid)
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	y := tensor.FromSlice([]float64{0, 1, 1, 0}, 4, 1)
	opt := NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 800; epoch++ {
		g := autodiff.NewGraph()
		out := mlp.Forward(g.Const(x), true)
		l := autodiff.MSE(out, y)
		loss = l.Value.Data[0]
		g.Backward(l)
		opt.Step(mlp.Params())
		ZeroGrads(mlp.Params())
	}
	if loss > 0.02 {
		t.Fatalf("XOR did not converge: loss=%v", loss)
	}
	g := autodiff.NewGraph()
	out := mlp.Forward(g.Const(x), false)
	for i := 0; i < 4; i++ {
		pred := out.Value.At(i, 0) > 0.5
		want := y.At(i, 0) > 0.5
		if pred != want {
			t.Fatalf("XOR row %d misclassified: %v", i, out.Value)
		}
	}
}

func TestConv1DLayerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv1D(rng, "c", 2, 4, 3, ActReLU)
	g := autodiff.NewGraph()
	x := g.Const(tensor.Randn(rng, 1, 2, 9))
	y := c.Forward(x, false)
	if y.Value.Dim(0) != 4 || y.Value.Dim(1) != 9 {
		t.Fatalf("conv output shape %v, want [4 9]", y.Value.Shape())
	}
	for _, v := range y.Value.Data {
		if v < 0 {
			t.Fatal("ReLU output contains negatives")
		}
	}
}

func TestLSTMShapesAndStatefulness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, "l", 2, 6)
	if l.Hidden() != 6 {
		t.Fatalf("Hidden = %d", l.Hidden())
	}
	g := autodiff.NewGraph()
	x := tensor.New(5, 2)
	x.Set(1, 2, 0) // single spike at t=2
	y := l.Forward(g.Const(x), 1)
	if y.Value.Dim(0) != 5 || y.Value.Dim(1) != 6 {
		t.Fatalf("LSTM output shape %v, want [5 6]", y.Value.Shape())
	}
	// Zero input before the spike: identical state evolution at t=0,1, so
	// outputs there must be equal; the spike must change t=2 onward.
	r0, r1, r2 := y.Value.Row(0), y.Value.Row(1), y.Value.Row(2)
	if tensor.AllClose(r1, r2, 1e-9) {
		t.Fatal("spike at t=2 did not affect output")
	}
	_ = r0
	// Causality: truncating future input must not change past outputs.
	g2 := autodiff.NewGraph()
	xShort := tensor.New(3, 2)
	xShort.Set(1, 2, 0)
	yShort := l.Forward(g2.Const(xShort), 1)
	for step := 0; step < 3; step++ {
		if !tensor.AllClose(yShort.Value.Row(step), y.Value.Row(step), 1e-12) {
			t.Fatalf("LSTM is not causal at step %d", step)
		}
	}
}

func TestLSTMLearnsRunningMean(t *testing.T) {
	// Task: output at time t should approximate the mean of inputs up to t —
	// requires integrating state, which a stateless map cannot do.
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, "l", 1, 8)
	head := NewDense(rng, "head", 8, 1, ActNone)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(0.01)

	const T = 6
	sample := func(rng *rand.Rand) (*tensor.Tensor, *tensor.Tensor) {
		x := tensor.New(T, 1)
		y := tensor.New(T, 1)
		sum := 0.0
		for i := 0; i < T; i++ {
			v := rng.Float64()
			sum += v
			x.Set(v, i, 0)
			y.Set(sum/float64(i+1), i, 0)
		}
		return x, y
	}
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		x, y := sample(rng)
		g := autodiff.NewGraph()
		out := head.Forward(l.Forward(g.Const(x), 1), true)
		lnode := autodiff.MSE(out, y)
		loss = lnode.Value.Data[0]
		g.Backward(lnode)
		opt.Step(params)
		ZeroGrads(params)
	}
	if loss > 0.01 {
		t.Fatalf("LSTM did not learn running mean: loss=%v", loss)
	}
}

func TestSGDMomentumDiffersFromPlain(t *testing.T) {
	p1 := autodiff.NewParameter("p1", tensor.FromSlice([]float64{1}, 1))
	p2 := autodiff.NewParameter("p2", tensor.FromSlice([]float64{1}, 1))
	plain := NewSGD(0.1, 0)
	mom := NewSGD(0.1, 0.9)
	for i := 0; i < 3; i++ {
		p1.Grad.Data[0] = 1
		p2.Grad.Data[0] = 1
		plain.Step([]*autodiff.Parameter{p1})
		mom.Step([]*autodiff.Parameter{p2})
	}
	if p1.Value.Data[0] <= p2.Value.Data[0] {
		t.Fatalf("momentum should have moved farther: plain=%v momentum=%v", p1.Value.Data[0], p2.Value.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := autodiff.NewParameter("p", tensor.FromSlice([]float64{5, -3}, 2))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		// grad of 0.5*||p||^2 is p
		copy(p.Grad.Data, p.Value.Data)
		opt.Step([]*autodiff.Parameter{p})
		p.ZeroGrad()
	}
	if p.Value.Norm2() > 1e-2 {
		t.Fatalf("Adam failed to minimize quadratic: %v", p.Value)
	}
}

func TestClipGrads(t *testing.T) {
	p := autodiff.NewParameter("p", tensor.New(2))
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGrads([]*autodiff.Parameter{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if math.Abs(p.Grad.Norm2()-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", p.Grad.Norm2())
	}
	// Below the threshold nothing changes.
	ClipGrads([]*autodiff.Parameter{p}, 10)
	if math.Abs(p.Grad.Norm2()-1) > 1e-12 {
		t.Fatal("clip below threshold modified gradients")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mlp := MLP(rng, "m", []int{3, 4, 2}, ActSigmoid, ActNone)
	var buf bytes.Buffer
	if err := SaveParams(&buf, mlp.Params()); err != nil {
		t.Fatal(err)
	}
	// Fresh network with different weights.
	mlp2 := MLP(rand.New(rand.NewSource(99)), "m", []int{3, 4, 2}, ActSigmoid, ActNone)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), mlp2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range mlp.Params() {
		if !tensor.AllClose(p.Value, mlp2.Params()[i].Value, 0) {
			t.Fatalf("param %q differs after round trip", p.Name)
		}
	}
}

func TestLoadParamsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mlp := MLP(rng, "m", []int{2, 2}, ActNone, ActNone)
	var buf bytes.Buffer
	if err := SaveParams(&buf, mlp.Params()); err != nil {
		t.Fatal(err)
	}
	// Missing parameter.
	other := MLP(rng, "other", []int{2, 2}, ActNone, ActNone)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("expected error for missing parameter name")
	}
	// Shape mismatch.
	bigger := MLP(rng, "m", []int{3, 2}, ActNone, ActNone)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), bigger.Params()); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestSaveParamsRejectsDuplicates(t *testing.T) {
	p := autodiff.NewParameter("dup", tensor.New(1))
	q := autodiff.NewParameter("dup", tensor.New(1))
	var buf bytes.Buffer
	if err := SaveParams(&buf, []*autodiff.Parameter{p, q}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestActivationString(t *testing.T) {
	for act, want := range map[Activation]string{
		ActNone: "none", ActSigmoid: "sigmoid", ActTanh: "tanh", ActReLU: "relu",
	} {
		if act.String() != want {
			t.Fatalf("String(%d) = %q", act, act.String())
		}
	}
}

func TestSequentialParamsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSequential(
		NewDense(rng, "a", 2, 3, ActSigmoid),
		NewDropout(rng, 0.3),
		NewDense(rng, "b", 3, 1, ActNone),
	)
	if len(s.Params()) != 4 { // two Dense layers x (W, b)
		t.Fatalf("Params count = %d, want 4", len(s.Params()))
	}
}

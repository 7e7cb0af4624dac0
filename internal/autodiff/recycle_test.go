package autodiff

import (
	"math/rand"
	"testing"

	"ovs/internal/tensor"
)

// buildLossPass records a representative mix of ops (matmul, activations,
// structural ops, a per-row fan-out) on g and runs Backward, returning the
// scalar loss. Parameter gradients accumulate into p1/p2.
func buildLossPass(g *Graph, p1, p2 *Parameter, x *tensor.Tensor) float64 {
	in := g.Const(x)
	h := Tanh(MatMul(in, g.Param(p1)))
	rows := make([]*Node, x.Dim(0))
	for i := range rows {
		r := Row(h, i)
		rows[i] = Sigmoid(SliceVec(r, 0, r.Value.Dim(0)))
	}
	s := Reshape(StackRows(rows), x.Dim(0)*p1.Value.Dim(1))
	v := MatMul(Reshape(s, 1, s.Value.Dim(0)), g.Param(p2))
	loss := Mean(Mul(v, v))
	g.Backward(loss)
	return loss.Value.Data[0]
}

func testParams(seed int64) (*Parameter, *Parameter, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	p1 := NewParameter("p1", tensor.Randn(rng, 0.5, 3, 4))
	p2 := NewParameter("p2", tensor.Randn(rng, 0.5, 5*4, 2))
	x := tensor.Randn(rng, 1, 5, 3)
	return p1, p2, x
}

// TestGraphResetReuseGradientEquality checks the recycling contract: a graph
// reused via Reset must produce bitwise-identical losses and parameter
// gradients to a freshly constructed graph, pass after pass.
func TestGraphResetReuseGradientEquality(t *testing.T) {
	p1, p2, x := testParams(7)

	// Reference: a fresh graph per pass.
	fresh := NewGraph()
	refLoss := buildLossPass(fresh, p1, p2, x)
	refG1 := p1.Grad.Clone()
	refG2 := p2.Grad.Clone()
	fresh.Release()

	// Recycled: one graph, Reset between passes.
	g := NewGraph()
	defer g.Release()
	for pass := 0; pass < 3; pass++ {
		g.Reset()
		p1.ZeroGrad()
		p2.ZeroGrad()
		loss := buildLossPass(g, p1, p2, x)
		if loss != refLoss {
			t.Fatalf("pass %d: recycled loss %v != fresh loss %v", pass, loss, refLoss)
		}
		if !tensor.AllClose(p1.Grad, refG1, 0) || !tensor.AllClose(p2.Grad, refG2, 0) {
			t.Fatalf("pass %d: recycled gradients differ from fresh graph", pass)
		}
	}
}

// TestPooledVsFreshGradients checks that toggling the tensor arena cannot
// change a single bit of the forward values or gradients.
func TestPooledVsFreshGradients(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)

	run := func(pooled bool) (float64, *tensor.Tensor, *tensor.Tensor) {
		tensor.SetPooling(pooled)
		p1, p2, x := testParams(11)
		g := NewGraph()
		defer g.Release()
		loss := buildLossPass(g, p1, p2, x)
		return loss, p1.Grad.Clone(), p2.Grad.Clone()
	}

	lossP, g1P, g2P := run(true)
	lossF, g1F, g2F := run(false)
	if lossP != lossF {
		t.Fatalf("pooled loss %v != fresh loss %v", lossP, lossF)
	}
	if !tensor.AllClose(g1P, g1F, 0) || !tensor.AllClose(g2P, g2F, 0) {
		t.Fatal("pooled gradients differ from fresh gradients")
	}
}

// TestResetReclaimsOwnedTensors checks that Reset actually returns owned
// tensors to the arena (the second pass is served from the pool) and that
// Release leaves the graph reusable.
func TestResetReclaimsOwnedTensors(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)
	tensor.SetPooling(true)

	p1, p2, x := testParams(13)
	g := NewGraph()
	buildLossPass(g, p1, p2, x)
	before := tensor.Default.Stats()
	g.Reset()
	after := tensor.Default.Stats()
	if after.Puts <= before.Puts {
		t.Fatal("Reset returned no tensors to the arena")
	}
	if g.NumNodes() != 0 {
		t.Fatalf("Reset left %d nodes on the tape", g.NumNodes())
	}

	// The graph keeps working after Release (it just starts cold).
	g.Release()
	p1.ZeroGrad()
	p2.ZeroGrad()
	buildLossPass(g, p1, p2, x)
	g.Release()
}

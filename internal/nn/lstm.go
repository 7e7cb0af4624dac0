package nn

import (
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// LSTM is a single-layer long short-term memory network processing a
// sequence laid out as a rank-2 tensor (T × in) and emitting the hidden
// state sequence (T × hidden). The paper's Volume-Speed mapping stacks two
// of these followed by fully connected layers (Table IV), with weights
// shared across all road links.
type LSTM struct {
	// Wx maps the input, Wh the previous hidden state, into the concatenated
	// gate pre-activations [i | f | o | g], each of width hidden.
	Wx, Wh, B *autodiff.Parameter
	hidden    int
}

// NewLSTM constructs an LSTM with the given input and hidden sizes. The
// forget-gate bias is initialized to 1, the standard trick to preserve
// gradient flow early in training.
func NewLSTM(rng *rand.Rand, name string, in, hidden int) *LSTM {
	b := tensor.New(4 * hidden)
	for i := hidden; i < 2*hidden; i++ {
		b.Data[i] = 1 // forget gate bias
	}
	l := &LSTM{
		Wx:     autodiff.NewParameter(name+".Wx", tensor.Xavier(rng, in, 4*hidden, in, 4*hidden)),
		Wh:     autodiff.NewParameter(name+".Wh", tensor.Xavier(rng, hidden, 4*hidden, hidden, 4*hidden)),
		B:      autodiff.NewParameter(name+".b", b),
		hidden: hidden,
	}
	// Both weight matrices are B-side GEMM operands that change only at
	// optimizer steps: prime candidates for the persistent pack cache.
	l.Wx.Value.MarkPackable()
	l.Wh.Value.MarkPackable()
	return l
}

// Hidden returns the hidden-state width.
func (l *LSTM) Hidden() int { return l.hidden }

// Forward runs the LSTM over the full sequence. x is (T × in); the result is
// (T × hidden), one row per timestep.
//
// The input projection for all timesteps is hoisted into one sequence-level
// GEMM, X·Wx + b, before the recurrence; the timestep loop then records one
// fused autodiff.LSTMCell node per step. The explicit graph-op chain the
// cell replaces lives on as the test oracle in lstm_oracle_test.go.
func (l *LSTM) Forward(x *autodiff.Node, _ bool) *autodiff.Node {
	g := x.Graph()
	steps := x.Value.Dim(0)
	wx, wh, b := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	pre := autodiff.AddRowVector(autodiff.MatMul(x, wx), b) // (T × 4*hidden)
	outs := make([]*autodiff.Node, steps)
	var prev *autodiff.Node
	for step := 0; step < steps; step++ {
		prev = autodiff.LSTMCell(pre, step, prev, wh, l.hidden)
		outs[step] = prev
	}
	return autodiff.StackRows(outs)
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM) Params() []*autodiff.Parameter {
	return []*autodiff.Parameter{l.Wx, l.Wh, l.B}
}

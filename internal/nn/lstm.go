package nn

import (
	"fmt"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// LSTM is a single-layer long short-term memory network. It processes a
// batch of equal-length sequences laid out sequence-major as one rank-2
// tensor (batch·T × in), row b·T+t holding sequence b at step t, and emits
// the hidden states in the same layout (batch·T × hidden). The paper's
// Volume-Speed mapping stacks two of these followed by fully connected
// layers (Table IV), with weights shared across all road links — one
// sequence per link, all links in one batch.
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
	return l
}

// Hidden returns the hidden-state width.
func (l *LSTM) Hidden() int { return l.hidden }

// Forward runs the LSTM over batch sequences at once. x is
// (batch·T × in), sequence-major; the result is (batch·T × hidden) in the
// same layout. batch 1 is a single (T × in) sequence.
//
// The input projection for every sequence and timestep is hoisted into one
// GEMM with the bias in its epilogue, X·Wx + b, before the recurrence; the timestep loop then records one
// fused autodiff.LSTMCell node per step for the whole batch, and StackSteps
// reassembles the per-step (batch × hidden) states. The explicit graph-op
// chain the cell replaces lives on as the test oracle in
// lstm_oracle_test.go.
func (l *LSTM) Forward(x *autodiff.Node, batch int) *autodiff.Node {
	if batch <= 0 || x.Value.Rank() != 2 || x.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("nn: LSTM input shape %v is not %d equal-length sequences", x.Value.Shape(), batch))
	}
	g := x.Graph()
	steps := x.Value.Dim(0) / batch
	wx, wh, b := g.Param(l.Wx), g.Param(l.Wh), g.Param(l.B)
	pre := autodiff.Affine(x, wx, b) // (batch·T × 4*hidden)
	outs := make([]*autodiff.Node, steps)
	var prev *autodiff.Node
	for step := 0; step < steps; step++ {
		prev = autodiff.LSTMCell(pre, batch, step, prev, wh, l.hidden)
		outs[step] = prev
	}
	return autodiff.StackSteps(outs)
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM) Params() []*autodiff.Parameter {
	return []*autodiff.Parameter{l.Wx, l.Wh, l.B}
}

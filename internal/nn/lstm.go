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
// The whole layer is one fused autodiff.LSTM node: the input projection
// for every sequence and timestep, X·Wx + b, hoisted into one GEMM with the
// bias in its epilogue, then the recurrence over every step of the batch,
// in place in the node's gate buffer. The explicit graph-op chain it
// replaces lives on as the test oracle in lstm_oracle_test.go.
func (l *LSTM) Forward(x *autodiff.Node, batch int) *autodiff.Node {
	if batch <= 0 || x.Value.Rank() != 2 || x.Value.Dim(0)%batch != 0 {
		panic(fmt.Sprintf("nn: LSTM input shape %v is not %d equal-length sequences", x.Value.Shape(), batch))
	}
	g := x.Graph()
	return autodiff.LSTM(x, g.Param(l.Wx), g.Param(l.B), g.Param(l.Wh), batch, l.hidden)
}

// Params returns the LSTM's trainable parameters.
func (l *LSTM) Params() []*autodiff.Parameter {
	return []*autodiff.Parameter{l.Wx, l.Wh, l.B}
}

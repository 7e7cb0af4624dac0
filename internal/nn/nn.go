// Package nn builds neural-network layers and optimizers on top of the
// autodiff engine. It provides exactly the building blocks Table IV of the
// paper requires — fully connected layers, 1×3 convolutions, LSTMs, dropout —
// plus the Adam optimizer and parameter serialization.
package nn

import (
	"fmt"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// Activation names an elementwise nonlinearity applied after a layer.
type Activation int

const (
	// ActNone applies no nonlinearity.
	ActNone Activation = iota
	// ActSigmoid applies the logistic function.
	ActSigmoid
	// ActTanh applies the hyperbolic tangent.
	ActTanh
	// ActReLU applies max(0, x).
	ActReLU
)

// Apply applies the activation to a node.
func (a Activation) Apply(x *autodiff.Node) *autodiff.Node {
	switch a {
	case ActNone:
		return x
	case ActSigmoid:
		return autodiff.Sigmoid(x)
	case ActTanh:
		return autodiff.Tanh(x)
	case ActReLU:
		return autodiff.ReLU(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Layer is a differentiable transformation with trainable parameters.
// Forward records the layer's computation on the graph that produced x.
type Layer interface {
	Forward(x *autodiff.Node, train bool) *autodiff.Node
	Params() []*autodiff.Parameter
}

// Dense is a fully connected layer y = act(x·W + b) operating on rank-2
// inputs (batch × in) and producing (batch × out).
type Dense struct {
	W, B *autodiff.Parameter
	Act  Activation
}

// NewDense constructs a Dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, name string, in, out int, act Activation) *Dense {
	d := &Dense{
		W:   autodiff.NewParameter(name+".W", tensor.Xavier(rng, in, out, in, out)),
		B:   autodiff.NewParameter(name+".b", tensor.New(out)),
		Act: act,
	}
	return d
}

// Forward applies the layer. x must be rank-2 with x.Dim(1) == in.
func (d *Dense) Forward(x *autodiff.Node, _ bool) *autodiff.Node {
	g := x.Graph()
	z := autodiff.Affine(x, g.Param(d.W), g.Param(d.B))
	return d.Act.Apply(z)
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*autodiff.Parameter { return []*autodiff.Parameter{d.W, d.B} }

// Clone returns a deep copy of the layer with independent parameters and
// gradients.
func (d *Dense) Clone() *Dense {
	c := &Dense{
		W:   autodiff.NewParameter(d.W.Name, d.W.Value.Clone()),
		B:   autodiff.NewParameter(d.B.Name, d.B.Value.Clone()),
		Act: d.Act,
	}
	return c
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.W.Value.Dim(0) }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.W.Value.Dim(1) }

// Conv1D is a multi-channel 1-D convolution with "same" padding along the
// time axis: input (Cin × T) → output (Cout × T).
type Conv1D struct {
	Kernels, B *autodiff.Parameter
	Act        Activation
}

// NewConv1D constructs a Conv1D layer with kernel width k (odd).
func NewConv1D(rng *rand.Rand, name string, cin, cout, k int, act Activation) *Conv1D {
	return &Conv1D{
		Kernels: autodiff.NewParameter(name+".K", tensor.Xavier(rng, cin*k, cout*k, cout, cin, k)),
		B:       autodiff.NewParameter(name+".b", tensor.New(cout)),
		Act:     act,
	}
}

// Forward applies the convolution.
func (c *Conv1D) Forward(x *autodiff.Node, _ bool) *autodiff.Node {
	g := x.Graph()
	return c.Act.Apply(autodiff.Conv1DSame(x, g.Param(c.Kernels), g.Param(c.B)))
}

// Params returns the layer's trainable parameters.
func (c *Conv1D) Params() []*autodiff.Parameter { return []*autodiff.Parameter{c.Kernels, c.B} }

// DropoutLayer applies inverted dropout during training.
type DropoutLayer struct {
	P   float64
	Rng *rand.Rand
}

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *DropoutLayer { return &DropoutLayer{P: p, Rng: rng} }

// Forward applies dropout when train is true; identity otherwise.
func (d *DropoutLayer) Forward(x *autodiff.Node, train bool) *autodiff.Node {
	return autodiff.Dropout(x, d.P, train, d.Rng)
}

// Params returns nil; dropout has no trainable state.
func (d *DropoutLayer) Params() []*autodiff.Parameter { return nil }

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward threads x through every layer in order.
func (s *Sequential) Forward(x *autodiff.Node, train bool) *autodiff.Node {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*autodiff.Parameter {
	var ps []*autodiff.Parameter
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// MLP builds a sigmoid multi-layer perceptron with the given layer widths,
// matching the FC stacks of Table IV (e.g. widths = [in, 16, 16, out]).
func MLP(rng *rand.Rand, name string, widths []int, hidden, final Activation) *Sequential {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	var layers []Layer
	for i := 0; i < len(widths)-1; i++ {
		act := hidden
		if i == len(widths)-2 {
			act = final
		}
		layers = append(layers, NewDense(rng, fmt.Sprintf("%s.fc%d", name, i), widths[i], widths[i+1], act))
	}
	return NewSequential(layers...)
}

package nn

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// trainFixture is a small MLP regression: four (input, target) pairs, one
// optimizer step per pair, clipped so the clip path runs too.
type trainFixture struct {
	net     *Sequential
	inputs  []*tensor.Tensor
	targets []*tensor.Tensor
}

func newTrainFixture() *trainFixture {
	rng := rand.New(rand.NewSource(5))
	f := &trainFixture{net: MLP(rng, "train", []int{3, 6, 2}, ActTanh, ActSigmoid)}
	for i := 0; i < 4; i++ {
		f.inputs = append(f.inputs, tensor.Randn(rng, 1, 2, 3))
		f.targets = append(f.targets, tensor.RandUniform(rng, 0, 1, 2, 2))
	}
	return f
}

func (f *trainFixture) loop(epochs int) Loop {
	return Loop{Params: f.net.Params(), Opt: NewAdam(0.05), Clip: 0.5, Steps: len(f.inputs), Epochs: epochs}
}

func (f *trainFixture) loss(g *autodiff.Graph, step int) *autodiff.Node {
	return autodiff.MSE(f.net.Forward(g.Const(f.inputs[step]), true), f.targets[step])
}

// params returns a copy of every parameter value, in Params order.
func (f *trainFixture) params() []float64 {
	var vals []float64
	for _, p := range f.net.Params() {
		vals = append(vals, p.Value.Data...)
	}
	return vals
}

// TestTrainCancelAtEpochBoundary cancels during epoch k, so the k-th poll
// sees it: Train must return the cause with exactly the first k epochs of
// an uncancelled run's history and that run's parameters after k epochs.
// Continuing from there with the same optimizer must finish bitwise on the
// uncancelled run.
func TestTrainCancelAtEpochBoundary(t *testing.T) {
	const epochs = 5
	full := newTrainFixture()
	wantHist, err := Train(context.Background(), full.loop(epochs), full.loss)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantHist) != epochs {
		t.Fatalf("uncancelled history has %d epochs, want %d", len(wantHist), epochs)
	}
	for k := 1; k < epochs; k++ {
		prefix := newTrainFixture()
		if _, err := Train(context.Background(), prefix.loop(k), prefix.loss); err != nil {
			t.Fatal(err)
		}

		f := newTrainFixture()
		stop := errors.New("stop")
		ctx, cancel := context.WithCancelCause(context.Background())
		calls := 0
		cancelling := func(g *autodiff.Graph, step int) *autodiff.Node {
			calls++
			if calls == (k-1)*len(f.inputs)+1 {
				cancel(stop)
			}
			return f.loss(g, step)
		}
		l := f.loop(epochs)
		hist, err := Train(ctx, l, cancelling)
		if err != stop {
			t.Fatalf("k=%d: err = %v, want the cancellation cause", k, err)
		}
		requireSameBits(t, "history", hist, wantHist[:k])
		requireSameBits(t, "parameters", f.params(), prefix.params())

		l.Start, l.Hist = k, hist
		hist, err = Train(context.Background(), l, f.loss)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "resumed history", hist, wantHist)
		requireSameBits(t, "resumed parameters", f.params(), full.params())
	}
}

// TestTrainHookSeesEveryEpoch checks the hook's arguments at each boundary
// and that its error stops training with the partial history.
func TestTrainHookSeesEveryEpoch(t *testing.T) {
	f := newTrainFixture()
	halt := errors.New("halt")
	var done []int
	l := f.loop(4)
	l.Hook = func(d int, hist []float64, opt *Adam, cancelled bool) error {
		if len(hist) != d || opt != l.Opt || cancelled {
			t.Fatalf("hook(%d, %d losses, cancelled=%v)", d, len(hist), cancelled)
		}
		done = append(done, d)
		if d == 2 {
			return halt
		}
		return nil
	}
	hist, err := Train(context.Background(), l, f.loss)
	if err != halt || len(hist) != 2 || len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("err %v, %d losses, hook calls %v", err, len(hist), done)
	}
}

package nn

import (
	"context"

	"ovs/internal/autodiff"
)

// EpochHook is called after every completed epoch with the number of epochs
// done so far, the loss history, the live optimizer, and whether the run's
// context was cancelled at this boundary. Returning an error aborts
// training; the error (a checkpointing hook's interrupt error, say)
// propagates to the caller with the partial history.
type EpochHook func(done int, hist []float64, opt *Adam, cancelled bool) error

// Loop describes one training run of Train.
type Loop struct {
	Params []*autodiff.Parameter // stepped by Opt and zeroed after each step
	Opt    *Adam
	Clip   float64 // gradient-norm bound applied by ClipGrads; 0 = off
	Steps  int     // optimizer steps per epoch
	// Train runs epochs Start..Epochs-1 and appends their mean losses to
	// Hist; a resumed run passes its restored optimizer and history.
	Start, Epochs int
	Hist          []float64
	Hook          EpochHook // optional; sees every epoch boundary
}

// Train is the training loop of every learned model in the repository. Each
// step resets one recycled graph, records loss(g, step) on it, runs
// Backward, clips, takes an optimizer step and zeroes the gradients. Each
// epoch appends its mean step loss to the history, then polls ctx exactly
// once and hands the verdict to the hook. ctx is observed only there, so the
// epochs completed before a cancelled return are bitwise identical to an
// uncancelled run's prefix; a cancelled call returns the partial history
// with the context's cancellation cause (or the hook's error).
func Train(ctx context.Context, l Loop, loss func(g *autodiff.Graph, step int) *autodiff.Node) ([]float64, error) {
	history := l.Hist
	g := autodiff.NewGraph()
	defer g.Release()
	for e := l.Start; e < l.Epochs; e++ {
		total := 0.0
		for s := 0; s < l.Steps; s++ {
			g.Reset()
			out := loss(g, s)
			total += out.Value.Data[0]
			g.Backward(out)
			if l.Clip > 0 {
				ClipGrads(l.Params, l.Clip)
			}
			l.Opt.Step(l.Params)
			ZeroGrads(l.Params)
		}
		history = append(history, total/float64(l.Steps))
		cancelled := ctx.Err() != nil
		if l.Hook != nil {
			if err := l.Hook(e+1, history, l.Opt, cancelled); err != nil {
				return history, err
			}
		}
		if cancelled {
			return history, context.Cause(ctx)
		}
	}
	return history, nil
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// FuzzLSTMCell cross-checks the fused LSTM cell against the unfused graph-op
// oracle (forwardGraphOracle) over random sequence/input/hidden sizes with special values (signed
// zeros, infinities, NaN, extreme magnitudes) planted at fuzzer-chosen
// positions. Outputs and all three parameter gradients must agree bitwise —
// NaN payload bits excepted, since x86 NaN propagation follows instruction
// operand order, which the compiler owns (see autodiff.LSTMCell).
func FuzzLSTMCell(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), int64(1), []byte{})
	f.Add(uint8(1), uint8(1), uint8(1), int64(2), []byte{0xFF, 0x00, 0x02})
	f.Add(uint8(12), uint8(5), uint8(9), int64(3), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(7), uint8(4), uint8(16), int64(4), []byte{0, 0, 2, 1, 3, 0, 2, 7, 1, 3, 1, 3})
	f.Fuzz(func(t *testing.T, stepsRaw, inRaw, hiddenRaw uint8, seed int64, special []byte) {
		steps := int(stepsRaw)%16 + 1
		in := int(inRaw)%8 + 1
		hidden := int(hiddenRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		l := NewLSTM(rng, "fuzz", in, hidden)
		x := tensor.Randn(rng, 1, steps, in)
		seedWeights := tensor.Randn(rng, 1, steps, hidden)

		specials := []float64{
			math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
			0, 1e308, -1e308, 5e-324,
		}
		targets := [][]float64{x.Data, l.Wx.Value.Data, l.Wh.Value.Data, l.B.Value.Data}
		for i := 0; i+2 < len(special); i += 3 {
			dst := targets[int(special[i])%len(targets)]
			dst[int(special[i+1])%len(dst)] = specials[int(special[i+2])%len(specials)]
		}

		run := func(fused bool) (*tensor.Tensor, [][]float64) {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			g := autodiff.NewGraph()
			defer g.Release()
			var out *autodiff.Node
			if fused {
				out = l.Forward(g.Const(x), false)
			} else {
				out = l.forwardGraphOracle(g.Const(x))
			}
			loss := autodiff.Sum(autodiff.Mul(out, g.Const(seedWeights)))
			g.Backward(loss)
			grads := make([][]float64, 0, 3)
			for _, p := range l.Params() {
				grads = append(grads, append([]float64(nil), p.Grad.Data...))
			}
			return out.Value.Clone(), grads
		}

		fusedOut, fusedGrads := run(true)
		refOut, refGrads := run(false)

		label := fmt.Sprintf("T=%d in=%d hidden=%d", steps, in, hidden)
		requireSameBits(t, label+" output", fusedOut.Data, refOut.Data)
		for i, p := range l.Params() {
			requireSameBits(t, label+" "+p.Name+".Grad", fusedGrads[i], refGrads[i])
		}
	})
}

// requireSameBits fails unless got and want agree bitwise, element for
// element; two NaNs match whatever their payload bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: fused %v (%#x) vs unfused %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

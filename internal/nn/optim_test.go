package nn

import (
	"math"
	"math/rand"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

func optimParams(seed int64) []*autodiff.Parameter {
	rng := rand.New(rand.NewSource(seed))
	ps := []*autodiff.Parameter{
		autodiff.NewParameter("w1", tensor.Randn(rng, 1, 3, 4)),
		autodiff.NewParameter("w2", tensor.Randn(rng, 1, 5)),
	}
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	return ps
}

// TestOptimizersSkipFrozenParams is the regression test for the frozen-
// parameter audit: Adam may not touch a frozen parameter's value — or decay
// its state — even when a stale gradient is present.
func TestOptimizersSkipFrozenParams(t *testing.T) {
	opt := NewAdam(0.1)
	params := optimParams(3)
	params[1].SetFrozen(true)
	frozenBefore := params[1].Value.Clone()
	liveBefore := params[0].Value.Clone()

	opt.Step(params)
	if !tensor.AllClose(params[1].Value, frozenBefore, 0) {
		t.Fatal("frozen parameter was updated")
	}
	if tensor.AllClose(params[0].Value, liveBefore, 0) {
		t.Fatal("live parameter was not updated")
	}

	// Unfreezing resumes updates.
	params[1].SetFrozen(false)
	opt.Step(params)
	if tensor.AllClose(params[1].Value, frozenBefore, 0) {
		t.Fatal("unfrozen parameter still not updated")
	}
}

// TestClipGradsExcludesFrozen checks that frozen parameters neither inflate
// the global norm nor get scaled.
func TestClipGradsExcludesFrozen(t *testing.T) {
	params := optimParams(5)
	params[1].SetFrozen(true)
	for i := range params[1].Grad.Data {
		params[1].Grad.Data[i] = 1e6 // would dominate the norm if counted
	}
	frozenGrad := params[1].Grad.Clone()

	want := 0.0
	for _, g := range params[0].Grad.Data {
		want += g * g
	}
	want = math.Sqrt(want)

	norm := ClipGrads(params, want/2)
	if norm != want {
		t.Fatalf("ClipGrads norm %v, want %v (frozen grads excluded)", norm, want)
	}
	if !tensor.AllClose(params[1].Grad, frozenGrad, 0) {
		t.Fatal("ClipGrads scaled a frozen parameter's gradient")
	}
	got := 0.0
	for _, g := range params[0].Grad.Data {
		got += g * g
	}
	if math.Abs(math.Sqrt(got)-want/2) > 1e-12 {
		t.Fatalf("post-clip norm %v, want %v", math.Sqrt(got), want/2)
	}
}

// refAdam is the pre-slot, map-based Adam kept as a reference implementation:
// the slot-indexed optimizer must match it bitwise.
type refAdam struct {
	lr, beta1, beta2, eps float64
	step                  int
	m, v                  map[*autodiff.Parameter]*tensor.Tensor
}

func (a *refAdam) Step(params []*autodiff.Parameter) {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for _, p := range params {
		if p.Frozen() {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Shape()...)
		}
		v := a.v[p]
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m.Data[i] = a.beta1*m.Data[i] + (1-a.beta1)*g
			v.Data[i] = a.beta2*v.Data[i] + (1-a.beta2)*g*g
			mHat := m.Data[i] / bc1
			vHat := v.Data[i] / bc2
			p.Value.Data[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}

// TestAdamSlotMatchesReference runs the slot-indexed Adam and the reference
// map-based Adam over several steps with fresh gradients each step; values
// must stay bitwise-identical throughout.
func TestAdamSlotMatchesReference(t *testing.T) {
	slot := optimParams(7)
	ref := optimParams(7)

	opt := NewAdam(0.01)
	refOpt := &refAdam{
		lr: 0.01, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: map[*autodiff.Parameter]*tensor.Tensor{},
		v: map[*autodiff.Parameter]*tensor.Tensor{},
	}

	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 5; step++ {
		for k := range slot {
			for i := range slot[k].Grad.Data {
				g := rng.NormFloat64()
				slot[k].Grad.Data[i] = g
				ref[k].Grad.Data[i] = g
			}
		}
		opt.Step(slot)
		refOpt.Step(ref)
		for k := range slot {
			if !tensor.AllClose(slot[k].Value, ref[k].Value, 0) {
				t.Fatalf("step %d: slot Adam diverges from reference on param %d", step, k)
			}
		}
	}
}

// TestOptimizerRebindPreservesState checks that passing a reordered (or
// shrunk) parameter list keeps each parameter's moment state: the update
// sequence must match an optimizer that saw a stable ordering.
func TestOptimizerRebindPreservesState(t *testing.T) {
	stable := optimParams(11)
	reorder := optimParams(11)

	optStable := NewAdam(0.01)
	optReorder := NewAdam(0.01)

	rng := rand.New(rand.NewSource(13))
	setGrads := func(ps []*autodiff.Parameter, seed []float64) {
		idx := 0
		for _, p := range ps {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = seed[idx]
				idx++
			}
		}
	}
	total := 0
	for _, p := range stable {
		total += len(p.Grad.Data)
	}
	for step := 0; step < 4; step++ {
		seed := make([]float64, total)
		for i := range seed {
			seed[i] = rng.NormFloat64()
		}
		setGrads(stable, seed)
		setGrads(reorder, seed)
		optStable.Step(stable)
		if step%2 == 0 {
			optReorder.Step(reorder)
		} else {
			// Reversed list: rebind must carry the moments over by identity.
			optReorder.Step([]*autodiff.Parameter{reorder[1], reorder[0]})
		}
		for k := range stable {
			if !tensor.AllClose(stable[k].Value, reorder[k].Value, 0) {
				t.Fatalf("step %d: rebind lost optimizer state on param %d", step, k)
			}
		}
	}
}

// refreshGrads redraws deterministic gradients so successive steps differ.
func refreshGrads(ps []*autodiff.Parameter, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
}

// An optimizer whose state is exported after k steps and imported into a
// fresh instance must continue bitwise-identically to one that never
// stopped — the property checkpoint resume is built on.
func TestAdamExportImportContinuesIdentically(t *testing.T) {
	cont := optimParams(11)
	res := optimParams(11)
	a1 := NewAdam(0.01)
	a2 := NewAdam(0.01)
	for step := 0; step < 3; step++ {
		refreshGrads(cont, int64(100+step))
		refreshGrads(res, int64(100+step))
		a1.Step(cont)
		a2.Step(res)
	}
	st := a2.ExportState()
	if st.Kind != "adam" || st.Step != 3 || len(st.Slots) != 2 {
		t.Fatalf("export = kind %q step %d slots %d", st.Kind, st.Step, len(st.Slots))
	}
	a3 := NewAdam(0.5) // wrong LR on purpose: import must restore the exported one
	if err := a3.ImportState(st, res); err != nil {
		t.Fatal(err)
	}
	for step := 3; step < 6; step++ {
		refreshGrads(cont, int64(100+step))
		refreshGrads(res, int64(100+step))
		a1.Step(cont)
		a3.Step(res)
	}
	for i := range cont {
		for j, v := range cont[i].Value.Data {
			if res[i].Value.Data[j] != v {
				t.Fatalf("resumed Adam diverges on %q[%d]: %v vs %v",
					cont[i].Name, j, res[i].Value.Data[j], v)
			}
		}
	}
}

func TestOptimizerImportRejectsCorruptState(t *testing.T) {
	ps := optimParams(13)
	a := NewAdam(0.01)
	a.Step(ps)
	good := a.ExportState()

	cases := map[string]OptimizerState{
		"wrong kind":   {Kind: "sgd", LR: 0.01},
		"unknown slot": {Kind: "adam", LR: 0.01, Slots: []SlotState{{Name: "nope", M: []float64{1}, V: []float64{1}}}},
		"short moment": {Kind: "adam", LR: 0.01, Slots: []SlotState{{Name: "w2", M: []float64{1}, V: []float64{1}}}},
		"duplicate slot": {Kind: "adam", LR: 0.01, Slots: []SlotState{
			good.Slots[0], good.Slots[0],
		}},
	}
	for name, st := range cases {
		fresh := NewAdam(0.01)
		if err := fresh.ImportState(st, ps); err == nil {
			t.Fatalf("%s: corrupt optimizer state accepted", name)
		}
	}
}

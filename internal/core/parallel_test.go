package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// fitObs builds a deterministic synthetic speed observation for a model by
// pushing a fixed TOD through its (untrained) forward chain.
func fitObs(m *Model, level float64) *tensor.Tensor {
	tod := tensor.Full(level, m.Topo.N, m.Topo.T)
	_, speed := m.Forward(tod)
	return speed
}

// TestFitBestRestoresWinner is the regression test for the stale-best-state
// bug: after FitBest with several restarts, the model's generator must hold
// the winning restart's state, so GenerateTOD (and Save) agree exactly with
// the returned recovery.
func TestFitBestRestoresWinner(t *testing.T) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	cfg.Seed = 11
	m := NewModel(topo, cfg)
	obs := fitObs(m, 12)

	rec, hist, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history length %d, want 2", len(hist))
	}
	if !tensor.AllClose(rec, m.GenerateTOD(), 0) {
		t.Fatal("m.GenerateTOD() does not match the TOD returned by FitBest")
	}
}

// cannedGen is a TODGenModule whose output is a canned tensor; Reseed
// switches to the next canned state. Its second state tensor, tag, never
// reaches the output: Reseed sets it to the number of reseeds made so far
// across all clones, so after a fit it names the winning restart (fitBest
// reseeds restarts 1, 2, … serially, and restart 0 keeps tag 0).
type cannedGen struct {
	cur     *tensor.Tensor
	tag     *tensor.Tensor
	states  []*tensor.Tensor
	next    int
	reseeds *int
	dummy   *autodiff.Parameter
}

func newCannedGen(cur *tensor.Tensor, states ...*tensor.Tensor) *cannedGen {
	return &cannedGen{
		cur:     cur.Clone(),
		tag:     tensor.New(1),
		states:  states,
		reseeds: new(int),
		dummy:   autodiff.NewParameter("canned.dummy", tensor.New(1)),
	}
}

func (c *cannedGen) Generate(g *autodiff.Graph) *autodiff.Node { return g.Const(c.cur) }
func (c *cannedGen) Params() []*autodiff.Parameter             { return []*autodiff.Parameter{c.dummy} }
func (c *cannedGen) StateTensors() []*tensor.Tensor            { return []*tensor.Tensor{c.cur, c.tag} }
func (c *cannedGen) Reseed(*rand.Rand) {
	copy(c.cur.Data, c.states[c.next%len(c.states)].Data)
	c.next++
	*c.reseeds++
	c.tag.Data[0] = float64(*c.reseeds)
}

// CloneTODGen copies the current state and the position in the canned
// sequence; the canned states and the reseed count are shared.
func (c *cannedGen) CloneTODGen() TODGenModule {
	return &cannedGen{
		cur:     c.cur.Clone(),
		tag:     c.tag.Clone(),
		states:  c.states,
		next:    c.next,
		reseeds: c.reseeds,
		dummy:   autodiff.NewParameter(c.dummy.Name, c.dummy.Value.Clone()),
	}
}

// TestFitBestSelectsPureSpeedLoss pins the winner criterion: the restart
// with the lower re-evaluated speed loss must win even when the smoothness
// regularizer makes its *total* training loss far higher. It runs with the
// restarts one after another and concurrently.
func TestFitBestSelectsPureSpeedLoss(t *testing.T) {
	for _, workers := range []int{1, 2} {
		testFitBestSelectsPureSpeedLoss(t, workers)
	}
}

func testFitBestSelectsPureSpeedLoss(t *testing.T, workers int) {
	topo := testTopo(t, 4, 1)
	cfg := DefaultConfig()
	cfg.MaxTrips = 50
	// Heavy smoothing: the oscillating (but speed-exact) state has a much
	// larger total loss than the flat (but speed-wrong) one.
	cfg.SmoothWeight = 1000
	cfg.Seed = 13
	cfg.Workers = workers
	m := NewModel(topo, cfg)

	// State A oscillates between 0 and 40 trips; it defines the observation,
	// so its speed loss is exactly 0 while its smooth penalty is maximal.
	a := tensor.New(topo.N, topo.T)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = 40
		}
	}
	_, obs := m.Forward(a)
	// State B is perfectly smooth but does not match the observation.
	b := tensor.Full(20, topo.N, topo.T)

	m.TODGen = newCannedGen(a, b)
	rec, _, err := m.FitBestCtx(context.Background(), obs, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(rec, a, 0) {
		t.Fatalf("workers=%d: FitBest did not select the restart with the lowest pure speed loss", workers)
	}
	if !tensor.AllClose(m.GenerateTOD(), a, 0) {
		t.Fatalf("workers=%d: winning state was not restored into the generator", workers)
	}
}

// TestFitBestTieBreaksToLowestRestart pins the tie rule: restarts whose
// speed scores are equal bit for bit lose to the lowest index among them,
// however the workers interleave. With every restart on the same state
// restart 0 must win; with restart 0 on a worse state and restarts 1–3 tied
// on the observed one, restart 1 must.
func TestFitBestTieBreaksToLowestRestart(t *testing.T) {
	topo := testTopo(t, 4, 1)
	exact := tensor.Full(30, topo.N, topo.T)
	worse := tensor.Full(5, topo.N, topo.T)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, c := range []struct {
			name  string
			entry *tensor.Tensor
			want  float64
		}{{"all tied", exact, 0}, {"restart 0 worse", worse, 1}} {
			cfg := DefaultConfig()
			cfg.MaxTrips = 50
			cfg.Seed = 17
			cfg.Workers = workers
			m := NewModel(topo, cfg)
			_, obs := m.Forward(exact)
			gen := newCannedGen(c.entry, exact)
			m.TODGen = gen
			rec, _, err := m.FitBestCtx(context.Background(), obs, 1, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := gen.tag.Data[0]; got != c.want {
				t.Fatalf("workers=%d, %s: restart %v won, want restart %v", workers, c.name, got, c.want)
			}
			if !tensor.AllClose(rec, exact, 0) {
				t.Fatalf("workers=%d, %s: recovered TOD is not the tied restarts' state", workers, c.name)
			}
		}
	}
}

// TestModuleWorkerEquivalence checks that MapVolume, MapSpeed and the full
// test-time fit produce bitwise-identical results for Workers ∈ {1, 2,
// GOMAXPROCS}: the mappings are serial batched builds, so Workers only
// reaches the fit's restart fan-out.
func TestModuleWorkerEquivalence(t *testing.T) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	topo := testTopo(t, 4, 2)
	tod := tensor.Full(15, topo.N, topo.T)

	build := func(workers int) *Model {
		cfg := DefaultConfig()
		cfg.MaxTrips = 60
		cfg.RoutesPerOD = 2
		cfg.Seed = 17
		cfg.Workers = workers
		return NewModel(topo, cfg)
	}

	ref := build(1)
	refVol := ref.PredictVolume(tod)
	refSpeed := ref.PredictSpeed(refVol)
	obs := fitObs(ref, 10)
	refRec, refHist, err := ref.FitBestCtx(context.Background(), obs, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range counts[1:] {
		m := build(w)
		if !tensor.AllClose(m.PredictVolume(tod), refVol, 0) {
			t.Fatalf("workers=%d: MapVolume differs from workers=1", w)
		}
		if !tensor.AllClose(m.PredictSpeed(refVol), refSpeed, 0) {
			t.Fatalf("workers=%d: MapSpeed differs from workers=1", w)
		}
		rec, hist, err := m.FitBestCtx(context.Background(), obs, 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(rec, refRec, 0) {
			t.Fatalf("workers=%d: fitted TOD differs from workers=1", w)
		}
		for e := range refHist {
			if hist[e] != refHist[e] {
				t.Fatalf("workers=%d: loss history diverges at epoch %d: %v vs %v", w, e, hist[e], refHist[e])
			}
		}
	}
}

// TestFitBestWorkerEquivalence checks that concurrent restarts recover the
// same TOD as serial ones: the restart seeds are drawn serially up front, so
// the worker count must not leak into the result.
func TestFitBestWorkerEquivalence(t *testing.T) {
	topo := testTopo(t, 4, 1)
	run := func(workers int) *tensor.Tensor {
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 23
		cfg.Workers = workers
		m := NewModel(topo, cfg)
		obs := fitObs(m, 12)
		rec, _, err := m.FitBestCtx(context.Background(), obs, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if !tensor.AllClose(run(w), ref, 0) {
			t.Fatalf("workers=%d: FitBest recovery differs from workers=1", w)
		}
	}
}

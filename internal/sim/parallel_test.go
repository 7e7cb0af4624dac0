package sim

import (
	"runtime"
	"testing"

	"ovs/internal/parallel"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestMesoWorkerEquivalence checks that the meso engine produces identical
// results at process-wide worker counts ∈ {1, 2, GOMAXPROCS}: the engine is
// serial by design, so no setting of the parallel package may reach the
// trajectory of a vehicle or any recorded observation.
func TestMesoWorkerEquivalence(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	// An 8×9 grid has more than 64 links, so the active-link sets span
	// several bitset words.
	net := roadnet.Grid(roadnet.GridConfig{Rows: 8, Cols: 9})
	n := net.NumNodes()
	ods := []ODNodes{{Origin: 0, Dest: n - 1}, {Origin: n - 1, Dest: 0}, {Origin: 8, Dest: n - 9}}
	d := Demand{ODs: ods, G: tensor.Full(4, 3, 3)}

	run := func(workers int) *Result {
		parallel.SetWorkers(workers)
		s := New(net, Config{Intervals: 3, IntervalSec: 180, Seed: 7})
		res, err := s.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if got.Spawned != ref.Spawned || got.Completed != ref.Completed {
			t.Fatalf("workers=%d: vehicle counts differ (%d/%d vs %d/%d)",
				w, got.Spawned, got.Completed, ref.Spawned, ref.Completed)
		}
		if !tensor.AllClose(got.Volume, ref.Volume, 0) {
			t.Fatalf("workers=%d: volume differs from workers=1", w)
		}
		if !tensor.AllClose(got.Speed, ref.Speed, 0) {
			t.Fatalf("workers=%d: speed differs from workers=1", w)
		}
		if !tensor.AllClose(got.Entries, ref.Entries, 0) {
			t.Fatalf("workers=%d: entries differ from workers=1", w)
		}
		if got.TotalTravelSec != ref.TotalTravelSec {
			t.Fatalf("workers=%d: travel time differs from workers=1", w)
		}
	}
}

package sim

import (
	"runtime"
	"testing"

	"ovs/internal/parallel"
	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestMesoPoolingEquivalence checks that the tensor arena's pooling mode
// cannot leak into simulation results: the meso engine must produce bitwise-
// identical volume, speed, and entry tensors with pooling enabled and
// disabled, at every process-wide worker count.
func TestMesoPoolingEquivalence(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)
	defer parallel.SetWorkers(parallel.Workers())

	net := roadnet.Grid(roadnet.GridConfig{Rows: 6, Cols: 7})
	n := net.NumNodes()
	ods := []ODNodes{{Origin: 0, Dest: n - 1}, {Origin: n - 1, Dest: 0}, {Origin: 6, Dest: n - 7}}
	d := Demand{ODs: ods, G: tensor.Full(4, 3, 3)}

	run := func(workers int, pooled bool) *Result {
		tensor.SetPooling(pooled)
		parallel.SetWorkers(workers)
		s := New(net, Config{Intervals: 3, IntervalSec: 180, Seed: 19})
		res, err := s.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		pooled := run(w, true)
		fresh := run(w, false)
		if pooled.Spawned != fresh.Spawned || pooled.Completed != fresh.Completed {
			t.Fatalf("workers=%d: vehicle counts differ between pooled and fresh allocation", w)
		}
		if !tensor.AllClose(pooled.Volume, fresh.Volume, 0) {
			t.Fatalf("workers=%d: volume differs between pooled and fresh allocation", w)
		}
		if !tensor.AllClose(pooled.Speed, fresh.Speed, 0) {
			t.Fatalf("workers=%d: speed differs between pooled and fresh allocation", w)
		}
		if !tensor.AllClose(pooled.Entries, fresh.Entries, 0) {
			t.Fatalf("workers=%d: entries differ between pooled and fresh allocation", w)
		}
	}
}

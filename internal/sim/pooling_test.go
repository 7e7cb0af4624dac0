package sim

import (
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// TestMesoPoolingEquivalence checks that the tensor arena's pooling mode
// cannot leak into simulation results: the meso engine must produce bitwise-
// identical volume, speed, and entry tensors with pooling enabled and
// disabled.
func TestMesoPoolingEquivalence(t *testing.T) {
	restore := tensor.PoolingEnabled()
	defer tensor.SetPooling(restore)

	net := roadnet.Grid(roadnet.GridConfig{Rows: 6, Cols: 7})
	n := net.NumNodes()
	ods := []ODNodes{{Origin: 0, Dest: n - 1}, {Origin: n - 1, Dest: 0}, {Origin: 6, Dest: n - 7}}
	d := Demand{ODs: ods, G: tensor.Full(4, 3, 3)}

	run := func(pooled bool) *Result {
		tensor.SetPooling(pooled)
		s := New(net, Config{Intervals: 3, IntervalSec: 180, Seed: 19})
		res, err := s.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	pooled := run(true)
	fresh := run(false)
	if pooled.Spawned != fresh.Spawned || pooled.Completed != fresh.Completed {
		t.Fatal("vehicle counts differ between pooled and fresh allocation")
	}
	if !tensor.AllClose(pooled.Volume, fresh.Volume, 0) {
		t.Fatal("volume differs between pooled and fresh allocation")
	}
	if !tensor.AllClose(pooled.Speed, fresh.Speed, 0) {
		t.Fatal("speed differs between pooled and fresh allocation")
	}
	if !tensor.AllClose(pooled.Entries, fresh.Entries, 0) {
		t.Fatal("entries differ between pooled and fresh allocation")
	}
}

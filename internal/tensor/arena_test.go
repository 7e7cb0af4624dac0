package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestArenaReuseHitAndZero checks the arena's core contract: a Put buffer is
// served to the next covering Get, fully zeroed, with the requested shape.
func TestArenaReuseHitAndZero(t *testing.T) {
	a := NewArena()
	x := a.Get(3, 5)
	for i := range x.Data {
		x.Data[i] = float64(i) + 1 // dirty it
	}
	data := &x.Data[0]
	a.Put(x)

	y := a.Get(15) // same size class, different rank
	if &y.Data[0] != data {
		t.Fatal("Get after Put did not reuse the pooled buffer")
	}
	if y.Rank() != 1 || y.Dim(0) != 15 {
		t.Fatalf("reused tensor has shape %v, want [15]", y.Shape())
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

// TestArenaGetUninit checks the un-zeroed get behind GetUninit and
// GetLikeUninit: it reuses pooled buffers like Get and rebinds the shape,
// but skips the clear — except in the ovspoison build, where every element
// it hands out is NaN. A zeroed Get of the same buffer afterwards is still
// fully zeroed.
func TestArenaGetUninit(t *testing.T) {
	a := NewArena()
	x := a.Get(2, 8)
	for i := range x.Data {
		x.Data[i] = float64(i) + 1
	}
	data := &x.Data[0]
	a.Put(x)

	y := a.get([]int{4, 4}, false)
	if &y.Data[0] != data {
		t.Fatal("an un-zeroed get after Put did not reuse the pooled buffer")
	}
	if y.Rank() != 2 || y.Dim(0) != 4 || y.Dim(1) != 4 {
		t.Fatalf("reused tensor has shape %v, want [4 4]", y.Shape())
	}
	for i, v := range y.Data {
		switch {
		case poisonUnzeroed && !math.IsNaN(v):
			t.Fatalf("ovspoison build: element %d = %v, want NaN", i, v)
		case !poisonUnzeroed && v != float64(i)+1:
			t.Fatalf("element %d = %v, want the stale %v (no clear)", i, v, float64(i)+1)
		}
	}
	a.Put(y)
	for i, v := range a.GetLike(y).Data {
		if v != 0 {
			t.Fatalf("Get after GetUninit not zeroed at %d: %v", i, v)
		}
	}
	if fresh := a.get([]int{3}, false); poisonUnzeroed && !math.IsNaN(fresh.Data[0]) {
		t.Fatalf("ovspoison build: fresh un-zeroed buffer holds %v, want NaN", fresh.Data[0])
	}
}

// TestArenaClassCoverage checks the bucketing invariant: a buffer returned to
// the pool is only handed to requests its capacity can satisfy.
func TestArenaClassCoverage(t *testing.T) {
	a := NewArena()
	small := a.Get(3) // class 2, cap 4
	a.Put(small)
	big := a.Get(100) // class 7: must miss, not reuse the small buffer
	if len(big.Data) != 100 {
		t.Fatalf("len = %d, want 100", len(big.Data))
	}
	st := a.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits, 2 misses", st)
	}
	// A smaller request within the same class is served by the big buffer.
	a.Put(big)
	again := a.Get(70)
	if st := a.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want a hit for the covered request", st)
	}
	if len(again.Data) != 70 {
		t.Fatalf("len = %d, want 70", len(again.Data))
	}
}

// TestArenaDisabled checks that a disabled arena degrades to plain
// allocation: Gets allocate, Puts discard, and the free lists drain.
func TestArenaDisabled(t *testing.T) {
	a := NewArena()
	a.Put(a.Get(8))
	a.SetEnabled(false)
	x := a.Get(8)
	if st := a.Stats(); st.Hits != 0 {
		t.Fatalf("disabled arena served a pooled buffer: %+v", st)
	}
	a.Put(x)
	if st := a.Stats(); st.Discards != 1 {
		t.Fatalf("disabled arena accepted a Put: %+v", st)
	}
	a.SetEnabled(true)
	a.Get(8)
	// The pre-disable buffer was drained, so this Get must miss.
	if st := a.Stats(); st.Hits != 0 {
		t.Fatalf("drained arena served a stale buffer: %+v", st)
	}
}

// TestArenaConcurrentStress hammers one arena from many goroutines with
// mixed shapes, verifying under the race detector that the free lists are
// safe and that no two live tensors ever share a backing array. Each worker
// writes a unique tag into its tensors and checks the tag is intact before
// Put — aliasing between concurrent owners would trip it.
func TestArenaConcurrentStress(t *testing.T) {
	a := NewArena()
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//ovslint:ignore nakedgo the stress test needs unsynchronized goroutines; parallel's deterministic chunking would serialize the contention under test
		go func(tag float64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tag)))
			live := make([]*Tensor, 0, 8)
			for i := 0; i < iters; i++ {
				switch {
				case len(live) > 4 || (len(live) > 0 && rng.Intn(2) == 0):
					k := rng.Intn(len(live))
					x := live[k]
					for j := range x.Data {
						if x.Data[j] != tag {
							t.Errorf("tensor corrupted: got %v, want tag %v", x.Data[j], tag)
							return
						}
					}
					live = append(live[:k], live[k+1:]...)
					a.Put(x)
				default:
					var x *Tensor
					if rng.Intn(2) == 0 {
						x = a.Get(1 + rng.Intn(64))
					} else {
						x = a.Get(1+rng.Intn(8), 1+rng.Intn(8))
					}
					for j, v := range x.Data {
						if v != 0 {
							t.Errorf("Get returned dirty buffer at %d: %v", j, v)
							return
						}
						x.Data[j] = tag
					}
					live = append(live, x)
				}
			}
			for _, x := range live {
				a.Put(x)
			}
		}(float64(w + 1))
	}
	wg.Wait()
	st := a.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("stress test recorded no arena traffic")
	}
}

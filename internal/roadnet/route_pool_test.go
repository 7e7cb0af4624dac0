package roadnet

import (
	"fmt"
	"math"
	"testing"
)

// TestShortestPathPooledAllocs guards the scratch pooling: after warmup, a
// ShortestPath call should allocate only the returned route (plus the
// default-weight closure), not the per-call heap/dist/visited structures the
// interface-based implementation used to build (hundreds of allocations per
// call on a 20×20 grid).
func TestShortestPathPooledAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector's sync.Pool drops a random share of Put items,
		// so the allocation count measures the detector, not the pooling.
		t.Skip("sync.Pool drops items at random under -race")
	}
	net := Grid(GridConfig{Rows: 20, Cols: 20})
	from, to := 0, net.NumNodes()-1
	run := func() {
		if _, _, err := net.ShortestPath(from, to, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool
	avg := testing.AllocsPerRun(50, run)
	// Route result + reversal copy + weight closure, with slack for an
	// occasional pool miss after a GC cycle.
	if avg > 6 {
		t.Fatalf("ShortestPath allocates %.1f objects/call after warmup, want ≤ 6", avg)
	}
}

// TestShortestPathPooledEquivalence re-runs the same query many times
// (forcing scratch reuse) and checks every answer is identical — pooled
// state must be fully reinitialized between calls.
func TestShortestPathPooledEquivalence(t *testing.T) {
	net := Grid(GridConfig{Rows: 8, Cols: 8})
	type query struct{ from, to int }
	queries := []query{{0, 63}, {7, 56}, {63, 0}, {12, 50}}
	first := make(map[query]string)
	for round := 0; round < 5; round++ {
		for _, q := range queries {
			r, d, err := net.ShortestPath(q.from, q.to, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s|%x", routeKey(r), math.Float64bits(d))
			if round == 0 {
				first[q] = key
			} else if first[q] != key {
				t.Fatalf("query %v: round %d result differs from round 0", q, round)
			}
		}
	}
}

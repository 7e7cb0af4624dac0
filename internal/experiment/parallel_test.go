package experiment

import (
	"context"
	"runtime"
	"testing"

	"ovs/internal/parallel"
)

// TestSyntheticComparisonWorkerEquivalence checks the top of the stack: a
// whole Table VIII run must produce identical metrics for Workers ∈ {1, 2,
// GOMAXPROCS}. Every cell derives its randomness from the root seed by
// pattern index, so concurrency must not leak into any number.
func TestSyntheticComparisonWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison sweep is too slow for -short")
	}
	sc := microScale()
	sc.Samples = 3
	sc.FitEpochs = 8

	old := parallel.Workers()
	defer parallel.SetWorkers(old)

	run := func(workers int) []*ComparisonResult {
		parallel.SetWorkers(workers)
		res, err := RunSyntheticComparison(context.Background(), sc, 31)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Dataset != ref[i].Dataset {
				t.Fatalf("workers=%d: dataset[%d] = %q, want %q", w, i, got[i].Dataset, ref[i].Dataset)
			}
			for j, row := range ref[i].Rows {
				if g := got[i].Rows[j]; g != row {
					t.Fatalf("workers=%d: %s row %d = %+v, want %+v", w, ref[i].Dataset, j, g, row)
				}
			}
		}
	}
}

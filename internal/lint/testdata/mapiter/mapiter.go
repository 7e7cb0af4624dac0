// Package mapiter exercises the mapiter analyzer: iterating a map in a
// deterministic package while accumulating floats or appending to a
// returned slice. The test harness loads this fixture under the package
// path of a deterministic package.
package mapiter

func sumValues(w map[string]float64) float64 {
	total := 0.0
	for _, v := range w { // want "accumulates into a float"
		total += v
	}
	return total
}

func sumValuesPlainAssign(w map[string]float64) float64 {
	total := 0.0
	for _, v := range w { // want "accumulates into a float"
		total = total + v
	}
	return total
}

func collectKeys(w map[string]float64) []string {
	var keys []string
	for k := range w { // want "appends to a returned slice"
		keys = append(keys, k)
	}
	return keys
}

func countEntries(w map[string]float64) int {
	n := 0
	for range w { // integer count is order-insensitive: not flagged
		n++
	}
	return n
}

func appendScratch(w map[string]float64) int {
	var scratch []string
	for k := range w { // scratch is never returned: not flagged
		scratch = append(scratch, k)
	}
	return len(scratch)
}

func sumSlice(xs []float64) float64 {
	total := 0.0
	for _, v := range xs { // slice iteration is ordered: not flagged
		total += v
	}
	return total
}

func sumSuppressed(w map[string]float64) float64 {
	total := 0.0
	//ovslint:ignore mapiter fixture demonstrating an audited suppression
	for _, v := range w {
		total += v
	}
	return total
}

// The shapes below mirror an LRU byte-capped cache so the analyzer's
// verdict on each is pinned by a fixture: an LRU eviction
// scan compares integer clocks and a byte-budget check sums integers — both
// order-insensitive and legal — while averaging float hit rates across the
// entry map is exactly the last-ulp lottery the analyzer exists to catch.

func evictVictim(clock map[int]int64) int {
	victim, oldest := -1, int64(1<<62)
	for key, tick := range clock { // strict integer min is order-insensitive: not flagged
		if tick < oldest {
			victim, oldest = key, tick
		}
	}
	return victim
}

func packedBytes(sizes map[int]int) int {
	total := 0
	for _, n := range sizes { // integer byte accounting: not flagged
		total += n
	}
	return total
}

func meanHitRate(rates map[int]float64) float64 {
	sum := 0.0
	for _, r := range rates { // want "accumulates into a float"
		sum += r
	}
	return sum / float64(len(rates))
}

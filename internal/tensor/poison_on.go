//go:build ovspoison

package tensor

import "math"

// poisonUnzeroed reports whether this build NaN-fills un-zeroed arena gets.
const poisonUnzeroed = true

// poison fills a buffer handed out by an un-zeroed get with NaN, so a kernel
// that reads an element before writing it propagates a NaN into its result
// and fails the bitwise equivalence suites. Enabled with -tags ovspoison.
func poison(d []float64) {
	nan := math.NaN()
	for i := range d {
		d[i] = nan
	}
}

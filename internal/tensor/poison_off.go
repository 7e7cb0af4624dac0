//go:build !ovspoison

package tensor

// poisonUnzeroed reports whether this build NaN-fills un-zeroed arena gets.
const poisonUnzeroed = false

// poison is a no-op in the default build: an un-zeroed get hands out the
// buffer as its last life left it. See poison_on.go.
func poison([]float64) {}

package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile, so a
// tail figure never rests on one or two slow ops.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs and
// the number of samples beyond it. It fails when fewer than minBeyond samples
// lie beyond, which for p90 means fewer than 100 samples in all.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, 0, fmt.Errorf("percentile p%g of %d samples", p, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	beyond := n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return s[rank-1], beyond, nil
}

// median returns the middle of xs (the mean of the middle two for even
// counts), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// steadiness bounds are checked against. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name: a
// letter or digit followed by letters, digits, '_', '.' or '-', 64 at most.
func validName(name string) bool { return namePattern.MatchString(name) }

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validUnit reports whether unit is a legal metric unit.
func validUnit(unit string) bool { return unitPattern.MatchString(unit) }

package dataset

import (
	"fmt"
	"math/rand"

	"ovs/internal/tensor"
)

// Auxiliary data (Table II): sparse or static side-channels that constrain
// the recovered solution. Each type maps onto one of the three levels of the
// generation chain (TOD, volume, speed) and is synthesized from ground truth
// with noise — exactly how the paper uses LEHD/camera/trajectory data to
// build auxiliary losses (§IV-E).

// Census is LEHD-like data: a noisy view of each OD pair's total daily trip
// count Σ_t g[i,t]. It constrains the TOD level.
type Census struct {
	// DailySum[i] approximates the horizon-total trips of OD pair i.
	DailySum []float64
}

// CensusFromTOD derives census data from a ground-truth TOD tensor with
// multiplicative noise of the given relative level.
func CensusFromTOD(g *tensor.Tensor, noise float64, rng *rand.Rand) *Census {
	n := g.Dim(0)
	out := &Census{DailySum: make([]float64, n)}
	for i := 0; i < n; i++ {
		sum := g.Row(i).Sum()
		out.DailySum[i] = sum * (1 + noise*rng.NormFloat64())
		if out.DailySum[i] < 0 {
			out.DailySum[i] = 0
		}
	}
	return out
}

// Cameras is surveillance-camera data: per-interval volume counts for a
// sparse subset of links. It constrains the volume level.
type Cameras struct {
	// Links lists the observed link IDs.
	Links []int
	// Volume is (len(Links) × T), rows aligned with Links.
	Volume *tensor.Tensor
}

// CamerasFromVolume samples numCams distinct links from a full volume tensor
// (M × T), adding Gaussian noise of the given absolute level.
func CamerasFromVolume(vol *tensor.Tensor, numCams int, noise float64, rng *rand.Rand) (*Cameras, error) {
	m, t := vol.Dim(0), vol.Dim(1)
	if numCams <= 0 || numCams > m {
		return nil, fmt.Errorf("dataset: numCams %d out of range (M=%d)", numCams, m)
	}
	perm := rng.Perm(m)[:numCams]
	out := &Cameras{Links: perm, Volume: tensor.New(numCams, t)}
	for r, j := range perm {
		for tt := 0; tt < t; tt++ {
			v := vol.At(j, tt) + noise*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			out.Volume.Set(v, r, tt)
		}
	}
	return out, nil
}

// Trajectories is taxi-GPS-like data: for a subset of OD pairs, the TOD time
// series of the observed vehicle fraction. It constrains the TOD level
// dynamically (Table II's "taxi trajectory" cell).
type Trajectories struct {
	// ODIdx lists the observed OD pair indices.
	ODIdx []int
	// G is (len(ODIdx) × T): observed (scaled-down) trip counts.
	G *tensor.Tensor
	// Fraction is the fleet penetration rate (taxis / all vehicles).
	Fraction float64
}

// TrajectoriesFromTOD samples numPairs OD rows at the given penetration
// fraction with Poisson-like observation noise.
func TrajectoriesFromTOD(g *tensor.Tensor, numPairs int, fraction float64, rng *rand.Rand) (*Trajectories, error) {
	n, t := g.Dim(0), g.Dim(1)
	if numPairs <= 0 || numPairs > n {
		return nil, fmt.Errorf("dataset: numPairs %d out of range (N=%d)", numPairs, n)
	}
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("dataset: fraction %v out of (0,1]", fraction)
	}
	perm := rng.Perm(n)[:numPairs]
	out := &Trajectories{ODIdx: perm, G: tensor.New(numPairs, t), Fraction: fraction}
	for r, i := range perm {
		for tt := 0; tt < t; tt++ {
			mean := g.At(i, tt) * fraction
			obs := float64(poisson(rng, mean+1e-9))
			out.G.Set(obs, r, tt)
		}
	}
	return out, nil
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"ovs/internal/roadnet"
	"ovs/internal/tensor"
)

// relTol absorbs the rounding of occupancy-weighted speed means at the ends
// of the [MinSpeed, free-flow] range.
const relTol = 1e-9

// checkTOD verifies a recovered TOD tensor: shape n×t, every entry finite,
// non-negative and at most maxTrips.
func checkTOD(g *tensor.Tensor, n, t int, maxTrips float64) error {
	if g == nil || g.Rank() != 2 || g.Dim(0) != n || g.Dim(1) != t {
		return fmt.Errorf("recovered TOD shape %v, want [%d %d]", shapeOf(g), n, t)
	}
	for i, v := range g.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > maxTrips {
			return fmt.Errorf("recovered TOD entry %d = %g outside [0, MaxTrips=%g]", i, v, maxTrips)
		}
	}
	return nil
}

// checkTraffic verifies simulator outputs for net: volume finite and
// non-negative, speed within [minSpeed, free-flow] on every link.
func checkTraffic(net *roadnet.Network, vol, speed *tensor.Tensor, t int, minSpeed float64) error {
	m := net.NumLinks()
	for _, x := range []*tensor.Tensor{vol, speed} {
		if x == nil || x.Rank() != 2 || x.Dim(0) != m || x.Dim(1) != t {
			return fmt.Errorf("simulator output shape %v, want [%d %d]", shapeOf(x), m, t)
		}
	}
	for i, v := range vol.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("simulated volume entry %d = %g, want finite and >= 0", i, v)
		}
	}
	for j := 0; j < m; j++ {
		free := net.Links[j].SpeedLimit
		for k := 0; k < t; k++ {
			v := speed.At(j, k)
			if !(v >= minSpeed*(1-relTol) && v <= free*(1+relTol)) {
				return fmt.Errorf("simulated speed on link %d interval %d = %g outside [%g, %g]", j, k, v, minSpeed, free)
			}
		}
	}
	return nil
}

func shapeOf(x *tensor.Tensor) []int {
	if x == nil {
		return nil
	}
	return x.Shape()
}

// digest hashes op outputs bit for bit, so a repeat of a seed can be
// compared with its first occurrence.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) floats(xs ...float64) {
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:]) //ovslint:ignore ignorederr hash.Hash.Write is documented to never return an error
	}
}

func (d *digest) tensors(ts ...*tensor.Tensor) {
	for _, t := range ts {
		for _, n := range t.Shape() {
			d.floats(float64(n))
		}
		d.floats(t.Data...)
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

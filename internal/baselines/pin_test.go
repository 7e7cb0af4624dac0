package baselines

import (
	"context"
	"math"
	"testing"

	"ovs/internal/tensor"
)

// pinnedMethods are the six methods at the settings of their Test*Recover
// tests, each with the FNV-1a hash of its recovery's float64 bit patterns
// on the buildContext fixture. The hashes were recorded before the learned
// baselines moved onto nn.Train, so a refactor that changes any bit of any
// recovery fails here.
var pinnedMethods = []struct {
	method Method
	hash   uint64
}{
	{&Gravity{Candidates: 6}, 0xb1f2fff7b8f4ab35},
	{&Genetic{Population: 8, Generations: 4}, 0xf4f0c260be9ee859},
	{&GLS{TrainEpochs: 30, FitEpochs: 60}, 0x8df83f487fe6c242},
	{&EM{Iterations: 8}, 0xe83f8f09c6eadb3b},
	{&NN{Epochs: 40}, 0xfdaa9196224ac2c8},
	{&LSTM{Epochs: 30}, 0xd4175a8bfb407248},
}

// bitsHash is the 64-bit FNV-1a hash of x's shape and element bit
// patterns, each fed as 8 little-endian bytes.
func bitsHash(x *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
	}
	for _, d := range x.Shape() {
		mix(uint64(d))
	}
	for _, v := range x.Data {
		mix(math.Float64bits(v))
	}
	return h
}

func TestRecoveriesPinned(t *testing.T) {
	c, _ := buildContext(t)
	for _, p := range pinnedMethods {
		t.Run(p.method.Name(), func(t *testing.T) {
			rec, err := p.method.Recover(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			if got := bitsHash(rec); got != p.hash {
				t.Fatalf("recovery hash %#016x, want %#016x", got, p.hash)
			}
		})
	}
}

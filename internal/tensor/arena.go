package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the size-bucketed tensor arena behind the training hot
// loop. The autodiff graph allocates every intermediate value and gradient
// tensor through an Arena and returns them on Graph.Reset, so an epoch loop
// that recycles its graph reaches a steady state with near-zero tensor
// allocations.
//
// Determinism rule: a buffer handed out by Get/GetLike is fully zeroed first,
// so a pooled tensor is indistinguishable from a fresh New tensor. A buffer
// handed out by GetUninit/GetLikeUninit is not: it holds whatever its last
// life left behind. The un-zeroed gets serve only buffers that the caller
// writes in full before it reads any element — GEMM overwrite outputs and
// scratch, packing panels, elementwise *To outputs, the LSTM recurrence's gate
// and state slots — so the stale contents are never observed and every
// kernel still produces bitwise-identical results whether its operands came
// from the pool or from the garbage collector. Building
// with -tags ovspoison fills every un-zeroed buffer with NaN (see
// poison_on.go), which turns any read-before-write into a NaN or a bitwise
// mismatch in the equivalence suites.

// numClasses bounds the power-of-two size classes. Class c holds buffers
// whose capacity is at least 1<<c floats; 48 classes cover any tensor this
// repository can represent.
const numClasses = 48

// ArenaStats is a snapshot of an arena's traffic counters.
type ArenaStats struct {
	// Hits counts Get calls served from a free list.
	Hits uint64
	// Misses counts Get calls that had to allocate fresh memory.
	Misses uint64
	// Puts counts buffers accepted back into the pool.
	Puts uint64
	// Discards counts Put calls dropped because pooling was disabled or the
	// buffer was unusable.
	Discards uint64
}

// Arena is a concurrency-safe, size-bucketed free list of tensors. The zero
// value is not usable; construct arenas with NewArena. Buffers are bucketed
// by the largest power-of-two capacity they can guarantee, so a Get for n
// elements is served by any buffer whose class covers n.
type Arena struct {
	enabled                      atomic.Bool
	hits, misses, puts, discards atomic.Uint64

	buckets [numClasses]arenaBucket
}

type arenaBucket struct {
	mu   sync.Mutex
	free []*Tensor
}

// NewArena returns an empty arena with pooling enabled.
func NewArena() *Arena {
	a := &Arena{}
	a.enabled.Store(true)
	return a
}

// ceilClass returns the smallest class whose buffers hold n floats.
func ceilClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// floorClass returns the largest class a buffer of the given capacity can
// serve, or -1 when the capacity is zero.
func floorClass(capacity int) int {
	if capacity <= 0 {
		return -1
	}
	return bits.Len(uint(capacity)) - 1
}

// Get returns a zero-filled tensor of the given shape, reusing pooled memory
// when available. It is safe for concurrent use.
func (a *Arena) Get(shape ...int) *Tensor { return a.get(shape, true) }

// GetLike returns a zero-filled tensor with t's shape, reusing pooled memory
// when available.
func (a *Arena) GetLike(t *Tensor) *Tensor { return a.get(t.shape, true) }

// minRankCap is the minimum capacity of the shape and stride slices of a
// pooled tensor. Buffers cycle through shapes of different rank as they are
// reused; reserving room for the highest rank in the repository (rank 3, plus
// slack) keeps reinit allocation-free no matter how ranks churn.
const minRankCap = 4

func arenaShape(shape []int) []int {
	c := len(shape)
	if c < minRankCap {
		c = minRankCap
	}
	out := make([]int, len(shape), c)
	copy(out, shape)
	return out
}

func arenaStrides(shape []int) []int {
	c := len(shape)
	if c < minRankCap {
		c = minRankCap
	}
	out := make([]int, len(shape), c)
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		out[i] = s
		s *= shape[i]
	}
	return out
}

// get serves Get (zero true) and GetUninit (zero false). Fresh memory from
// make is zeroed either way; only a recycled buffer skips the clear.
func (a *Arena) get(shape []int, zero bool) *Tensor {
	t := a.take(shape, zero)
	if !zero {
		poison(t.Data)
	}
	return t
}

// take pops a pooled buffer covering shape, or allocates one, and rebinds it.
func (a *Arena) take(shape []int, zero bool) *Tensor {
	n := checkShape(shape)
	if !a.enabled.Load() {
		return &Tensor{
			shape:   append([]int(nil), shape...),
			strides: computeStrides(shape),
			Data:    make([]float64, n),
		}
	}
	c := ceilClass(n)
	if c >= numClasses {
		a.misses.Add(1)
		return &Tensor{
			shape:   append([]int(nil), shape...),
			strides: computeStrides(shape),
			Data:    make([]float64, n),
		}
	}
	b := &a.buckets[c]
	b.mu.Lock()
	var t *Tensor
	if k := len(b.free); k > 0 {
		t = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
	}
	b.mu.Unlock()
	if t == nil {
		a.misses.Add(1)
		return &Tensor{
			shape:   arenaShape(shape),
			strides: arenaStrides(shape),
			Data:    make([]float64, n, 1<<c),
		}
	}
	a.hits.Add(1)
	t.reinit(shape, n, zero)
	return t
}

// reinit rebinds a pooled tensor to a new shape and, when zero is set,
// zeroes its data. The shape and stride slices are reused in place when
// their capacity allows (always, for tensors born in the pool — see
// minRankCap), so a steady-state Get performs no allocation at all.
func (t *Tensor) reinit(shape []int, n int, zero bool) {
	t.Data = t.Data[:n]
	if zero {
		clear(t.Data)
	}
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
	} else {
		t.shape = make([]int, len(shape), minRankCap)
	}
	copy(t.shape, shape)
	if cap(t.strides) >= len(shape) {
		t.strides = t.strides[:len(shape)]
	} else {
		t.strides = make([]int, len(shape), minRankCap)
	}
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= shape[i]
	}
}

// Put returns a tensor's memory to the pool. The caller must be the sole
// owner: the tensor, and any view sharing its backing array, must not be used
// afterwards. Putting the same tensor twice is a fatal aliasing bug, which is
// why only the autodiff graph (which tracks ownership explicitly) calls Put
// in this repository.
func (a *Arena) Put(t *Tensor) {
	if t == nil {
		return
	}
	if !a.enabled.Load() {
		a.discards.Add(1)
		return
	}
	c := floorClass(cap(t.Data))
	if c < 0 || c >= numClasses {
		a.discards.Add(1)
		return
	}
	a.puts.Add(1)
	b := &a.buckets[c]
	b.mu.Lock()
	b.free = append(b.free, t)
	b.mu.Unlock()
}

// Stats returns a snapshot of the arena's hit/miss counters.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		Hits:     a.hits.Load(),
		Misses:   a.misses.Load(),
		Puts:     a.puts.Load(),
		Discards: a.discards.Load(),
	}
}

// SetEnabled switches pooling on or off. Disabling drains the free lists, so
// a disabled arena holds no memory and Get/Put degrade to plain allocation.
func (a *Arena) SetEnabled(on bool) {
	a.enabled.Store(on)
	if !on {
		a.Drain()
	}
}

// Enabled reports whether pooling is active.
func (a *Arena) Enabled() bool { return a.enabled.Load() }

// Drain empties every free list, releasing pooled memory to the garbage
// collector. Counters are preserved.
func (a *Arena) Drain() {
	for i := range a.buckets {
		b := &a.buckets[i]
		b.mu.Lock()
		for j := range b.free {
			b.free[j] = nil
		}
		b.free = b.free[:0]
		b.mu.Unlock()
	}
}

// Default is the process-wide arena used by the autodiff graph allocator.
// Pooling is on by default; SetPooling(false) reverts every hot loop to
// fresh allocations (the benchmarks compare both modes).
var Default = NewArena()

// Get returns a zeroed tensor of the given shape from the default arena.
func Get(shape ...int) *Tensor { return Default.get(shape, true) }

// GetLike returns a zeroed tensor shaped like t from the default arena.
func GetLike(t *Tensor) *Tensor { return Default.get(t.shape, true) }

// GetUninit is Get without the zero fill: the contents are unspecified (NaN
// under -tags ovspoison). Use it only for a buffer the caller overwrites in
// full before reading any element.
func GetUninit(shape ...int) *Tensor { return Default.get(shape, false) }

// GetLikeUninit is GetLike without the zero fill; see GetUninit.
func GetLikeUninit(t *Tensor) *Tensor { return Default.get(t.shape, false) }

// Put returns a tensor to the default arena. See Arena.Put for the ownership
// contract.
func Put(t *Tensor) { Default.Put(t) }

// SetPooling toggles the default arena.
func SetPooling(on bool) { Default.SetEnabled(on) }

// PoolingEnabled reports whether the default arena is pooling.
func PoolingEnabled() bool { return Default.Enabled() }

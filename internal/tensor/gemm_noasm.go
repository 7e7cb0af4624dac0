//go:build !amd64

package tensor

// gemmHasAsm is false on platforms without a vector micro-kernel; the packed
// path runs the portable gemmMicroGo kernel, which computes the identical
// per-element FMA sequence (math.FMA is correctly rounded on every platform).
const gemmHasAsm = false

// gemmMicroAsm is never called when gemmHasAsm is false; this stub keeps the
// dispatch in gemmMacro compiling on all platforms.
func gemmMicroAsm(c *float64, ldc int, ap, bp *float64, kc int, load bool, bias *float64) {
	panic("tensor: gemmMicroAsm called without assembly support")
}

// gemmRowFMAAsm and gemmRow2FMAAsm are likewise unreachable without
// assembly support; the row path takes the portable math.FMA kernels
// instead.
func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64) {
	panic("tensor: gemmRowFMAAsm called without assembly support")
}

func gemmRow2FMAAsm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64) {
	panic("tensor: gemmRow2FMAAsm called without assembly support")
}

func gemmRowFMA512Asm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool, bias *float64) {
	panic("tensor: gemmRowFMA512Asm called without assembly support")
}

func gemmRow2FMA512Asm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool, bias *float64) {
	panic("tensor: gemmRow2FMA512Asm called without assembly support")
}

// gemmHas512 and gateHas512 are false likewise: the 8-lane tier is amd64
// assembly.
const (
	gemmHas512 = false
	gateHas512 = false
)

// gateHasAsm is false without the vector gate kernels; gate.go then runs
// math.Exp and math.Tanh element by element.
const gateHasAsm = false

func gateExpAsm(dst, src *float64, stride, n, rows int, flags *uint64) {
	panic("tensor: gateExpAsm called without assembly support")
}

func gateSigmoidAsm(dst, src *float64, stride, n, rows int, flags *uint64) {
	panic("tensor: gateSigmoidAsm called without assembly support")
}

func gateTanhAsm(dst, src *float64, stride, n, rows int, flags *uint64) {
	panic("tensor: gateTanhAsm called without assembly support")
}

func gateSigmoid512Asm(dst, src *float64, stride, n, rows int, flags *uint64) {
	panic("tensor: gateSigmoid512Asm called without assembly support")
}

func gateTanh512Asm(dst, src *float64, stride, n, rows int, flags *uint64) {
	panic("tensor: gateTanh512Asm called without assembly support")
}

// The LSTM row kernels are unreachable likewise: lstm.go runs their scalar
// loops.
func lstmCellAsm(c, cPrev, z *float64, zs, rows, hidden int) {
	panic("tensor: lstmCellAsm called without assembly support")
}

func lstmHiddenAsm(h *float64, hs int, z *float64, zs int, th *float64, rows, hidden int) {
	panic("tensor: lstmHiddenAsm called without assembly support")
}

func flushRowsAsm(dst, src *float64, ss, rows, n int) {
	panic("tensor: flushRowsAsm called without assembly support")
}

func lstmGateGradAsm(z *float64, zs int, dH, th, dC, cPrev *float64, rows, hidden int) {
	panic("tensor: lstmGateGradAsm called without assembly support")
}

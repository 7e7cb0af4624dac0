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

// gemmRowFMAAsm, gemmRow2FMAAsm and the dot kernels are likewise unreachable
// without assembly support; the naive dispatch takes the portable math.FMA
// kernels instead, and gemmMacro the portable edge kernel.
func gemmRowFMAAsm(dst, a *float64, as int, b *float64, bs int, k, n int, acc bool) {
	panic("tensor: gemmRowFMAAsm called without assembly support")
}

func gemmRow2FMAAsm(dst *float64, ldd int, a *float64, ars, as int, b *float64, bs int, k, n int, acc bool) {
	panic("tensor: gemmRow2FMAAsm called without assembly support")
}

func gemmDotFMAAsm(a *float64, as int, b *float64, bs int, k int) float64 {
	panic("tensor: gemmDotFMAAsm called without assembly support")
}

func gemmDot4FMAAsm(dst, a *float64, as int, b *float64, bs, brs int, k int) {
	panic("tensor: gemmDot4FMAAsm called without assembly support")
}

// gateHasAsm is false without the vector gate kernels; gate.go then runs
// math.Exp and math.Tanh element by element.
const gateHasAsm = false

func gateExpAsm(dst, src *float64, n int) uint64 {
	panic("tensor: gateExpAsm called without assembly support")
}

func gateSigmoidAsm(dst, src *float64, n int) uint64 {
	panic("tensor: gateSigmoidAsm called without assembly support")
}

func gateTanhAsm(dst, src *float64, n int) uint64 {
	panic("tensor: gateTanhAsm called without assembly support")
}

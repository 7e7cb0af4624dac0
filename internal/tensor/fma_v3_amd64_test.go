//go:build amd64.v3

package tensor

// fmaInBaseline reports whether the build's GOAMD64 level assumes FMA, in
// which case GODEBUG=cpu.fma=off cannot switch it off.
const fmaInBaseline = true

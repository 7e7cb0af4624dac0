//go:build amd64

package tensor

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestGateRequiresAVX2 pins the CPUID gate: the gate kernels need the GEMM
// kernels' AVX + FMA + OSXSAVE + ymm state, and AVX2 on top for their 256-bit
// integer ops (VPMOVSXDQ, VPADDQ, VPSLLQ).
func TestGateRequiresAVX2(t *testing.T) {
	full := cpuFeatures{maxID: 7, ecx1: cpuidFMA | cpuidOSXSAVE | cpuidAVX, ebx7: cpuidAVX2, xcr0: xcr0SSEAVX}
	if !full.gemm() || !full.gate() {
		t.Fatalf("AVX+FMA+AVX2 with OS ymm support: gemm=%v gate=%v, want both", full.gemm(), full.gate())
	}
	cases := []struct {
		name       string
		f          cpuFeatures
		gemm, gate bool
	}{
		{"no AVX2", cpuFeatures{maxID: 7, ecx1: full.ecx1, xcr0: full.xcr0}, true, false},
		{"no leaf 7", cpuFeatures{maxID: 6, ecx1: full.ecx1, ebx7: cpuidAVX2, xcr0: full.xcr0}, true, false},
		{"no FMA", cpuFeatures{maxID: 7, ecx1: cpuidOSXSAVE | cpuidAVX, ebx7: cpuidAVX2, xcr0: full.xcr0}, false, false},
		{"no AVX", cpuFeatures{maxID: 7, ecx1: cpuidFMA | cpuidOSXSAVE, ebx7: cpuidAVX2, xcr0: full.xcr0}, false, false},
		{"no OSXSAVE", cpuFeatures{maxID: 7, ecx1: cpuidFMA | cpuidAVX, ebx7: cpuidAVX2, xcr0: full.xcr0}, false, false},
		{"ymm state off", cpuFeatures{maxID: 7, ecx1: full.ecx1, ebx7: cpuidAVX2, xcr0: 0x2}, false, false},
	}
	for _, c := range cases {
		if got := c.f.gemm(); got != c.gemm {
			t.Errorf("%s: gemm() = %v, want %v", c.name, got, c.gemm)
		}
		if got := c.f.gate(); got != c.gate {
			t.Errorf("%s: gate() = %v, want %v", c.name, got, c.gate)
		}
	}
	if host := hostFeatures(); gateHasAsm && !gemmHasAsm {
		t.Fatalf("host %+v enables the gate kernels without the GEMM kernels", host)
	}
}

// TestGateKernelsWithoutMathExpFMA re-runs the gate kernel tests in a child
// process under GODEBUG=cpu.fma=off, which sends math.Exp down its non-FMA
// path while CPUID still reports FMA. The kernels port the FMA path, so the
// gate must stay off there (gateExpMatchesMath) and the scalar fallback
// must keep every element bitwise equal to math.Exp.
func TestGateKernelsWithoutMathExpFMA(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		// Child: math.Exp has no FMA path here, so the vector kernels
		// would disagree with it on some lanes.
		if gateHasAsm {
			t.Fatal("gate kernels enabled although math.Exp runs without FMA")
		}
		if hostFeatures().gate() && gateExpMatchesMath() {
			t.Fatal("probe found no difference between the FMA kernel and non-FMA math.Exp")
		}
		return
	}
	godebug := "cpu.fma=off"
	if v := os.Getenv("GODEBUG"); v != "" {
		godebug = v + "," + godebug
	}
	cmd := exec.Command(os.Args[0], "-test.short", "-test.count=1",
		"-test.run=^(TestGateKernelsWithoutMathExpFMA|TestGateKernelsRandom|TestGateKernelsEdgeInputs|FuzzGateKernels)$")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gate tests under GODEBUG=%s: %v\n%s", godebug, err, out)
	}
	if !strings.Contains(string(out), "PASS") {
		t.Fatalf("gate tests under GODEBUG=%s ran nothing:\n%s", godebug, out)
	}
}

package ising

// hasAVX2 selects Twin.Field's assembly kernels, and through HasAVX2
// the SB step's. It is probed once, at package initialization.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches (CPUID.1:ECX
// OSXSAVE and AVX, XCR0 bits 1 and 2, then CPUID.7.0:EBX bit 5 — the
// same test the Go runtime makes for its own AVX2 code).
func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// twinPanelAVX2 writes the U-side outputs of one 32-row panel into s:
// row k's sum adds panel[i*32+k]·x1[i] over ascending i from +0, then
// subtracts panel[i*32+k]·x2[i] over ascending i. len(panel) must be at
// least 32·len(x1), and len(x2) at least len(x1).
//
//go:noescape
func twinPanelAVX2(panel, x1, x2 []float64, s *[32]float64)

// twinRank1x16AVX2 writes 16 W1-side outputs into s: s[k] adds
// q[j*stride+k]·xu[j] over ascending j from +0, for j < len(xu). len(q)
// must be at least (len(xu)-1)·stride+16.
//
//go:noescape
func twinRank1x16AVX2(q []float64, stride int, xu []float64, s *[16]float64)

// twinRank1x4AVX2 is twinRank1x16AVX2 for 4 columns.
//
//go:noescape
func twinRank1x4AVX2(q []float64, stride int, xu []float64, s *[4]float64)

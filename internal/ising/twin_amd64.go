package ising

// hasAVX2 selects Twin.Field's AVX2 kernels, and through HasAVX2 the SB
// step's. It is probed once, at package initialization.
var hasAVX2 = cpuHasAVX2()

// hasAVX512 selects Twin.Field's AVX-512 kernels over the AVX2 ones. It
// requires hasAVX2 (whose probe checks OSXSAVE, which XGETBV needs) and
// is probed once, at package initialization; no non-test code writes it.
var hasAVX512 = hasAVX2 && cpuHasAVX512()

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

// cpuHasAVX512 reports whether the CPU implements AVX512F
// (CPUID.7.0:EBX bit 16) and the operating system saves the opmask,
// ZMM_Hi256 and Hi16_ZMM state along with SSE and AVX (XCR0 & 0xE6 =
// 0xE6). Callers must have checked cpuHasAVX2.
func cpuHasAVX512() bool {
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// twinPanelAVX2 runs the U-side chains of one 32-row panel and writes
// their sums into s: row k's chain adds p1[i*32+k]·x1[i] over ascending
// i, then subtracts p2[i*32+k]·x2[i] over ascending i, continuing from
// from[k] when from is not empty and from +0 otherwise. When ck is not
// empty, the sums after every 16 terms go to consecutive slots
// ck[m*ckStride : m*ckStride+32]. len(p1) must be at least 32·len(x1),
// len(p2) at least 32·len(x2), and from, when not empty, 32 long.
//
//go:noescape
func twinPanelAVX2(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int)

// twinRank1x16AVX2 runs 16 W-side chains and writes their sums into s1
// and their W2 twins into s2: s1[k] adds q[j*stride+k]·xu[j] over
// ascending j, for j < len(xu), continuing from from[k] when from is not
// empty and from +0 otherwise, and s2[k] = 0 − s1[k]. When ck is not
// empty, the sums after every 32 terms go to consecutive slots
// ck[m*stride : m*stride+16]. len(q) must be at least
// (len(xu)-1)·stride+16.
//
//go:noescape
func twinRank1x16AVX2(q []float64, stride int, xu []float64, s1, s2 *[16]float64, from, ck []float64)

// twinRank1x4AVX2 is twinRank1x16AVX2 for 4 columns.
//
//go:noescape
func twinRank1x4AVX2(q []float64, stride int, xu []float64, s1, s2 *[4]float64, from, ck []float64)

// twinPanelAVX512 is twinPanelAVX2 for AVX-512 CPUs.
//
//go:noescape
func twinPanelAVX512(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int)

// twinRank1x64AVX512 is twinRank1x16AVX2 for 64 columns on AVX-512 CPUs.
//
//go:noescape
func twinRank1x64AVX512(q []float64, stride int, xu []float64, s1, s2 *[64]float64, from, ck []float64)

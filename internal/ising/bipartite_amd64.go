package ising

// hasAVX2 selects Bipartite.Field's assembly tile. It is probed once, at
// package initialization.
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

// bipartiteTile8AVX2 runs one 8-row tile of Bipartite.Field over the
// first len(xw)&^3 columns. rows holds the tile's 8 rows of the block
// (row k at rows[k*len(xw):]), xu the tile's 8 U-side positions. It adds
// the tile's rank-1 terms xu[0]·row0 + … + xu[7]·row7 onto ow, in that
// order per element, and stores the 8 rows' partial dot products with xw,
// each summed in ascending column order from +0, into s. len(ow) must
// equal len(xw) and len(rows) must be at least 8·len(xw).
//
//go:noescape
func bipartiteTile8AVX2(rows, xw, ow []float64, xu, s *[8]float64)

//go:build !amd64

package ising

// hasAVX2 and hasAVX512 are false off amd64: Twin.Field and the SB step
// always run their Go kernels.
const (
	hasAVX2   = false
	hasAVX512 = false
)

// The assembly kernels exist only on amd64; the AVX2 and AVX-512 field
// kernels never reach these stubs here because both probes are false.

func twinPanelAVX2(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int) {
	panic("ising: AVX2 kernel called without AVX2")
}

func twinRank1x16AVX2(q []float64, stride int, xu []float64, s1, s2 *[16]float64, from, ck []float64) {
	panic("ising: AVX2 kernel called without AVX2")
}

func twinRank1x4AVX2(q []float64, stride int, xu []float64, s1, s2 *[4]float64, from, ck []float64) {
	panic("ising: AVX2 kernel called without AVX2")
}

func twinPanelAVX512(p1, x1, p2, x2 []float64, s *[32]float64, from, ck []float64, ckStride int) {
	panic("ising: AVX-512 kernel called without AVX-512")
}

func twinRank1x64AVX512(q []float64, stride int, xu []float64, s1, s2 *[64]float64, from, ck []float64) {
	panic("ising: AVX-512 kernel called without AVX-512")
}

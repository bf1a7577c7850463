//go:build !amd64

package ising

// hasAVX2 is false off amd64: Twin.Field and the SB step always run
// their Go kernels.
const hasAVX2 = false

// The assembly kernels exist only on amd64; fieldAVX2 and fieldUAVX2
// never reach these stubs here because hasAVX2 is false.

func twinPanelAVX2(panel, x1, x2 []float64, s *[32]float64) {
	panic("ising: AVX2 kernel called without AVX2")
}

func twinRank1x16AVX2(q []float64, stride int, xu []float64, s *[16]float64) {
	panic("ising: AVX2 kernel called without AVX2")
}

func twinRank1x4AVX2(q []float64, stride int, xu []float64, s *[4]float64) {
	panic("ising: AVX2 kernel called without AVX2")
}

//go:build !amd64

package ising

// hasAVX2 is false off amd64: Bipartite.Field always runs the Go tiles.
const hasAVX2 = false

// bipartiteTile8AVX2 exists only on amd64; fieldAVX2 never reaches it
// here because hasAVX2 is false.
func bipartiteTile8AVX2(rows, xw, ow []float64, xu, s *[8]float64) {
	panic("ising: AVX2 tile called without AVX2")
}

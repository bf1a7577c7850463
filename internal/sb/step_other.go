//go:build !amd64

package sb

// The step's assembly body exists only on amd64; wallStep never reaches
// this stub here because ising.HasAVX2() reports false, and so stepAVX2
// is false.

func wallStepAVX2(x, y, f, h, s []float64, k, c0, dt, dta float64) {
	panic("sb: AVX2 step called without AVX2")
}

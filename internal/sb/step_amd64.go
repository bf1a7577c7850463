package sb

// wallStepAVX2 is wallStep's body for AVX2 CPUs, four spins per YMM
// register. len(x) must be a multiple of 4, and y, f and any non-nil h
// and s at least as long. Callers must check stepAVX2.
//
//go:noescape
func wallStepAVX2(x, y, f, h, s []float64, k, c0, dt, dta float64)

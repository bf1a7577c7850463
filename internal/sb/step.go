package sb

import "isinglut/internal/ising"

// stepAVX2 selects wallStep's assembly body. It reads the CPUID probe
// that selects the twin field kernels; tests clear it to run the Go body
// on an AVX2 host.
var stepAVX2 = ising.HasAVX2()

// wallStep advances one lane of a wall-clamped variant by one symplectic
// Euler step: bSB, or dSB when s is non-nil. Per spin, in this order:
//
//   - fi = f + h, only when h is non-nil (f is not written);
//   - y += dt·(k·x + c0·fi), with k = -(a0 - a(t));
//   - x += dta·y, with dta = dt·a0;
//   - the inelastic walls: x > 1 becomes (1, +0), x < -1 becomes
//     (-1, +0), and a NaN x keeps its value;
//   - under dSB, s = +1 when x ≥ 0 and -1 otherwise (NaN included): the
//     sign the next step's field product reads.
//
// y, f and any non-nil h and s must be at least as long as x. On AVX2
// CPUs the assembly body steps the first len(x) &^ 3 spins, four per
// register; it rounds every product before its add and treats NaN at
// the walls and signs as the branches do, so it gives the Go body's
// bits.
func wallStep(x, y, f, h, s []float64, k, c0, dt, dta float64) {
	if i := len(x) &^ 3; stepAVX2 && i > 0 {
		wallStepAVX2(x[:i], y, f, h, s, k, c0, dt, dta)
		if i == len(x) {
			return
		}
		x, y, f = x[i:], y[i:], f[i:]
		if h != nil {
			h = h[i:]
		}
		if s != nil {
			s = s[i:]
		}
	}
	wallStepGo(x, y, f, h, s, k, c0, dt, dta)
}

// wallStepGo is wallStep's portable body and the AVX2 body's tail.
func wallStepGo(x, y, f, h, s []float64, k, c0, dt, dta float64) {
	y, f = y[:len(x)], f[:len(x)]
	if h != nil {
		h = h[:len(x)]
		for i := range x {
			x[i], y[i] = wallUpdate(x[i], y[i], f[i]+h[i], k, c0, dt, dta)
		}
	} else {
		for i := range x {
			x[i], y[i] = wallUpdate(x[i], y[i], f[i], k, c0, dt, dta)
		}
	}
	if s != nil {
		signsOf(x, s)
	}
}

// wallUpdate is one spin's bSB update and wall clamp. The conversions
// round each product before its add, so a compiler that fuses
// multiply-adds (GOAMD64=v3) still gives the assembly body's bits.
func wallUpdate(x, y, fi, k, c0, dt, dta float64) (float64, float64) {
	y += float64(dt * (float64(k*x) + float64(c0*fi)))
	x += float64(dta * y)
	if x > 1 {
		return 1, 0
	}
	if x < -1 {
		return -1, 0
	}
	return x, y
}

package ising

import (
	"fmt"
	"testing"
)

// fieldColumns is the pre-batching baseline: one scalar Field mat-vec
// per replica column, streaming the coupling structure r times.
func fieldColumns(c Coupler, x, out []float64, r int) {
	n := c.N()
	for k := 0; k < r; k++ {
		c.Field(x[k*n:(k+1)*n], out[k*n:(k+1)*n])
	}
}

func benchGrid(b *testing.B, run func(b *testing.B, n, r int)) {
	for _, n := range []int{64, 256, 1024} {
		for _, r := range []int{4, 32, 64} {
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				run(b, n, r)
			})
		}
	}
}

// BenchmarkFieldBatchDense measures the fused dense kernel: one J stream
// per call regardless of the replica count.
func BenchmarkFieldBatchDense(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		d := randomDenseCoupler(n, 1)
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(8 * n * n)) // the J stream the kernel amortizes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.FieldBatch(x, out, r)
		}
	})
}

// BenchmarkFieldColumnsDense is the unfused baseline on the same dense
// problem: r independent Field streams.
func BenchmarkFieldColumnsDense(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		d := randomDenseCoupler(n, 1)
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(8 * n * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fieldColumns(d, x, out, r)
		}
	})
}

// BenchmarkFieldBatchBipartite measures the batched twin kernel at
// core-COP-like shapes (c = n/2 column-type spins vs n/4 pattern pairs).
func BenchmarkFieldBatchBipartite(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		bp := randomTwinCoupler(n/2, n/4, 1)
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(8 * n / 2 * n / 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bp.FieldBatch(x, out, r)
		}
	})
}

// benchSparseDensity is the instance density for the sparse kernel
// benches: well under DefaultSparseDensity, the regime CSR exists for.
const benchSparseDensity = 0.05

// benchSigns turns a position block into the ±1 sign lanes the dSB
// engines maintain — the input the quantized kernels consume.
func benchSigns(x []float64) []float64 {
	s := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// BenchmarkFieldBatchSparseAsDense is the dense-kernel baseline on a
// sparse instance: the dense batch kernel streaming mostly zeros.
func BenchmarkFieldBatchSparseAsDense(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		d := randomSparseDense(n, benchSparseDensity, 1)
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(8 * n * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.FieldBatch(x, out, r)
		}
	})
}

// BenchmarkFieldBatchSparseCSR is the CSR kernel on the same instance:
// nnz-bound instead of n²-bound. SetBytes reports the CSR stream
// (12 bytes per stored entry) so MB/s stays meaningful.
func BenchmarkFieldBatchSparseCSR(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		s := NewSparseFromDense(randomSparseDense(n, benchSparseDensity, 1))
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(12 * s.NNZ()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.FieldBatch(x, out, r)
		}
	})
}

// BenchmarkFieldSignsQuantDense measures the fixed-point batch kernel on
// a dense instance against BenchmarkFieldBatchDense: int8 codes quarter
// the J stream and the accumulate is pure integer adds.
func BenchmarkFieldSignsQuantDense(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		q, ok := Quantize(randomDenseCoupler(n, 1))
		if !ok {
			b.Fatal("Quantize failed")
		}
		sigma := benchSigns(randomBlock(n, r, 2, 0))
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(n * n)) // int8 code stream
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.FieldSignsBatch(sigma, out, r)
		}
	})
}

// BenchmarkFieldSignsQuantSparse combines both: quantized CSR codes on
// the sparse instance, against BenchmarkFieldBatchSparseAsDense.
func BenchmarkFieldSignsQuantSparse(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		q, ok := Quantize(NewSparseFromDense(randomSparseDense(n, benchSparseDensity, 1)))
		if !ok {
			b.Fatal("Quantize failed")
		}
		sigma := benchSigns(randomBlock(n, r, 2, 0))
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.FieldSignsBatch(sigma, out, r)
		}
	})
}

// BenchmarkFieldSignsBitpackDense is the popcount engine on the same
// dense instances as BenchmarkFieldSignsQuantDense: sign/magnitude
// bit-planes against replica-bit-sliced spin masks, word-parallel across
// 64 replicas per popcount.
func BenchmarkFieldSignsBitpackDense(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		q, ok := Quantize(randomDenseCoupler(n, 1))
		if !ok {
			b.Fatal("Quantize failed")
		}
		p, ok := NewPlanes(q, r)
		if !ok {
			b.Fatal("dense instance rejected by the packing dispatch")
		}
		sigma := benchSigns(randomBlock(n, r, 2, 0))
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(n * n / 8 * p.PlaneCount())) // packed plane stream
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.FieldSignsBatch(sigma, out, r)
		}
	})
}

// benchClusteredDensity is the instance density for the bit-packed CSR
// plane benches: sparse enough that quantization picks the CSR layout,
// dense enough that packing pays at n ≥ 256 (the 5%-dense instances
// above lose packed at every width).
const benchClusteredDensity = 0.2

// BenchmarkFieldSignsQuantClustered is the scalar quantized CSR baseline
// on the 20%-dense instances, paired with the bench below.
func BenchmarkFieldSignsQuantClustered(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		q, ok := Quantize(NewSparseFromDense(randomSparseDense(n, benchClusteredDensity, 1)))
		if !ok {
			b.Fatal("Quantize failed")
		}
		sigma := benchSigns(randomBlock(n, r, 2, 0))
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.FieldSignsBatch(sigma, out, r)
		}
	})
}

// BenchmarkFieldSignsBitpackClustered is the CSR-backed plane engine on
// the same 20%-dense instances: only 64-column groups containing
// nonzeros are stored and swept. The planes are force-packed, so the
// pair also times the n = 64 shape the dispatch keeps scalar.
func BenchmarkFieldSignsBitpackClustered(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		q, ok := Quantize(NewSparseFromDense(randomSparseDense(n, benchClusteredDensity, 1)))
		if !ok {
			b.Fatal("Quantize failed")
		}
		p, ok := newPlanes(q, r, true)
		if !ok {
			b.Fatal("force-pack rejected the clustered instance")
		}
		sigma := benchSigns(randomBlock(n, r, 2, 0))
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.FieldSignsBatch(sigma, out, r)
		}
	})
}

// BenchmarkFieldColumnsBipartite is the unfused twin baseline.
func BenchmarkFieldColumnsBipartite(b *testing.B) {
	benchGrid(b, func(b *testing.B, n, r int) {
		bp := randomTwinCoupler(n/2, n/4, 1)
		x := randomBlock(n, r, 2, 0)
		out := make([]float64, n*r)
		b.ReportAllocs()
		b.SetBytes(int64(8 * n / 2 * n / 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fieldColumns(bp, x, out, r)
		}
	})
}

// BenchmarkBipartiteField compares the single-lane twin kernels, each
// called directly, on the Fig. 4 core-COP shape (c = 512 column-type
// spins against r = 128 pattern pairs) and the n = 9 serve shape
// (32×16): the two-pass reference, the Go kernels, the AVX2 kernels and
// the AVX-512 kernels (each assembly set skipped on CPUs without it),
// for Field and for its U half alone (FieldU, the Theorem-3 product).
// SetBytes counts the stored block Q.
func BenchmarkBipartiteField(b *testing.B) {
	for _, s := range [][2]int{{512, 128}, {32, 16}} {
		c, r := s[0], s[1]
		tw := randomTwinCoupler(c, r, 1)
		x := randomBlock(tw.N(), 1, 2, 0)
		out := make([]float64, tw.N())
		kernels := []struct {
			name  string
			field func(x, out []float64)
			runs  bool // the CPU has the kernel's instruction set
		}{
			{"twopass", tw.fieldTwoPass, true},
			{"go", tw.familyField(familyGo), true},
			{"avx2", tw.familyField(familyAVX2), hasAVX2},
			{"avx512", tw.familyField(familyAVX512), hasAVX512},
			{"go-u", tw.familyFieldU(familyGo), true},
			{"avx2-u", tw.familyFieldU(familyAVX2), hasAVX2},
			{"avx512-u", tw.familyFieldU(familyAVX512), hasAVX512},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/%dx%d", k.name, c, r), func(b *testing.B) {
				if !k.runs {
					b.Skip("CPU lacks the kernel's instruction set")
				}
				b.ReportAllocs()
				b.SetBytes(int64(8 * c * r))
				for i := 0; i < b.N; i++ {
					k.field(x, out)
				}
			})
		}
	}
}

// BenchmarkTwinFieldCached times FieldCached on the Fig. 4 core-COP
// shape and the n = 9 serve shape against Field on the same inputs. Each
// iteration alternates between two input vectors that agree on a share
// of each side's leading terms: none of them (the cache's overhead over
// a full product), half of them, or all of them (a repeated product).
func BenchmarkTwinFieldCached(b *testing.B) {
	for _, s := range [][2]int{{512, 128}, {32, 16}} {
		c, r := s[0], s[1]
		tw := randomTwinCoupler(c, r, 1)
		n := tw.N()
		for _, share := range []struct {
			name string
			frac float64 // of each side's terms before the first difference
		}{{"none", 0}, {"half", 0.5}, {"all", 1}} {
			xa := randomBlock(n, 1, 2, 0)
			xb := append([]float64(nil), xa...)
			if share.frac < 1 {
				xb[int(share.frac*float64(c))] += 1
				xb[c+int(share.frac*float64(2*r))] += 1
			}
			out := make([]float64, n)
			b.Run(fmt.Sprintf("field/%s/%dx%d", share.name, c, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if i&1 == 0 {
						tw.Field(xa, out)
					} else {
						tw.Field(xb, out)
					}
				}
			})
			b.Run(fmt.Sprintf("cached/%s/%dx%d", share.name, c, r), func(b *testing.B) {
				var tc TwinCache
				tc.Reserve(tw)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i&1 == 0 {
						tw.FieldCached(xa, out, &tc)
					} else {
						tw.FieldCached(xb, out, &tc)
					}
				}
			})
		}
	}
}

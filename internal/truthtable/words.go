package truthtable

// OutputWords fills dst[t] with Output(64·w + t) for t in [0, 64): the
// output words of the w-th block of 64 input patterns, with 0 past Size.
// It reads one packed word per component and transposes the m×64 bit
// matrix they form, instead of making 64·m bit reads.
func (t *Table) OutputWords(w int, dst *[64]uint64) {
	if t.m <= 16 {
		var a [16]uint64
		for k, c := range t.comp {
			a[k&15] = c.Words()[w]
		}
		transpose16(&a)
		// Word g now holds, in lane b, the outputs of pattern 16·b + g.
		for g, v := range a {
			dst[g] = v & 0xFFFF
			dst[16+g] = v >> 16 & 0xFFFF
			dst[32+g] = v >> 32 & 0xFFFF
			dst[48+g] = v >> 48
		}
		return
	}
	lane := 32
	if t.m > 32 {
		lane = 64
	}
	for k, c := range t.comp {
		dst[k] = c.Words()[w]
	}
	clear(dst[t.m:lane])
	transposeLanes(dst, lane)
	if lane == 64 {
		return
	}
	// Word g holds the outputs of patterns g (low lane) and 32 + g.
	for g := 0; g < 32; g++ {
		dst[32+g] = dst[g] >> 32
		dst[g] &= 0xFFFFFFFF
	}
}

// transposeLanes transposes, within every lane of width lane (32 or 64
// bits), the lane×lane bit matrix whose row k is the lane of word k
// (LSB-first columns): afterwards bit k of word g's lane is what bit g of
// word k's lane was. It is the recursive block swap of a 64×64 transpose
// (the high-column half of the top rows trades places with the
// low-column half of the bottom rows at each scale), run from scale
// lane/2 down with the masks repeated in every lane.
func transposeLanes(a *[64]uint64, lane int) {
	m := uint64(0x00000000FFFFFFFF)
	if lane == 32 {
		m = 0x0000FFFF0000FFFF
	}
	for j := uint(lane >> 1); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := uint(0); k < uint(lane); k = (k + j + 1) &^ j {
			// The masks prove the indices in range: no bounds checks.
			lo, hi := a[k&63], a[(k+j)&63]
			t := (lo>>j ^ hi) & m
			a[k&63], a[(k+j)&63] = lo^t<<j, hi^t
		}
	}
}

// transpose16 is transposeLanes at lane width 16 over a[0..15], unrolled
// so that the sixteen words stay in registers.
func transpose16(a *[16]uint64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	x8, x9, x10, x11, x12, x13, x14, x15 := a[8], a[9], a[10], a[11], a[12], a[13], a[14], a[15]
	const m8, m4, m2, m1 = 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555
	x0, x8 = swapBlocks(x0, x8, 8, m8)
	x1, x9 = swapBlocks(x1, x9, 8, m8)
	x2, x10 = swapBlocks(x2, x10, 8, m8)
	x3, x11 = swapBlocks(x3, x11, 8, m8)
	x4, x12 = swapBlocks(x4, x12, 8, m8)
	x5, x13 = swapBlocks(x5, x13, 8, m8)
	x6, x14 = swapBlocks(x6, x14, 8, m8)
	x7, x15 = swapBlocks(x7, x15, 8, m8)
	x0, x4 = swapBlocks(x0, x4, 4, m4)
	x1, x5 = swapBlocks(x1, x5, 4, m4)
	x2, x6 = swapBlocks(x2, x6, 4, m4)
	x3, x7 = swapBlocks(x3, x7, 4, m4)
	x8, x12 = swapBlocks(x8, x12, 4, m4)
	x9, x13 = swapBlocks(x9, x13, 4, m4)
	x10, x14 = swapBlocks(x10, x14, 4, m4)
	x11, x15 = swapBlocks(x11, x15, 4, m4)
	x0, x2 = swapBlocks(x0, x2, 2, m2)
	x1, x3 = swapBlocks(x1, x3, 2, m2)
	x4, x6 = swapBlocks(x4, x6, 2, m2)
	x5, x7 = swapBlocks(x5, x7, 2, m2)
	x8, x10 = swapBlocks(x8, x10, 2, m2)
	x9, x11 = swapBlocks(x9, x11, 2, m2)
	x12, x14 = swapBlocks(x12, x14, 2, m2)
	x13, x15 = swapBlocks(x13, x15, 2, m2)
	x0, x1 = swapBlocks(x0, x1, 1, m1)
	x2, x3 = swapBlocks(x2, x3, 1, m1)
	x4, x5 = swapBlocks(x4, x5, 1, m1)
	x6, x7 = swapBlocks(x6, x7, 1, m1)
	x8, x9 = swapBlocks(x8, x9, 1, m1)
	x10, x11 = swapBlocks(x10, x11, 1, m1)
	x12, x13 = swapBlocks(x12, x13, 1, m1)
	x14, x15 = swapBlocks(x14, x15, 1, m1)
	a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = x0, x1, x2, x3, x4, x5, x6, x7
	a[8], a[9], a[10], a[11], a[12], a[13], a[14], a[15] = x8, x9, x10, x11, x12, x13, x14, x15
}

// swapBlocks trades the bits of lo at the positions m<<j with those of hi
// at the positions m.
func swapBlocks(lo, hi uint64, j uint, m uint64) (uint64, uint64) {
	t := (lo>>j ^ hi) & m
	return lo ^ t<<j, hi ^ t
}

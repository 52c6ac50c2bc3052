package blas

import (
	"math"
	"unsafe"

	"repro/internal/core"
)

// The Go twins of the assembly kernels: the entries of the portable rows of
// the kernel table (kernel.go), which are the AVX2 rows with every assembly
// entry replaced by its twin here. A twin performs the operations of its
// kernel on every element in the same order — the same fused multiply-adds,
// the same lanes of accumulators, the same horizontal sums — so a portable
// row computes the bits of the asm rows, and there is one bit pattern per
// output whatever row runs. The file carries no build tag: amd64 and the
// other ports compile the same twins. On a CPU without the FMA instruction
// (amd64 without AVX2+FMA, which selects these rows, or 386) math.FMA is
// Go's software routine, which makes the float64 twins tens of times slower
// there: the price of the one bit pattern (DESIGN, "Go twins").
//
// Each arithmetic step is one of the instruction helpers below, named after
// the x86 instruction it twins and taking its operands in the instruction's
// (Intel) order, because the order is part of the result: a NaN result is an
// operand's NaN, its sign and payload kept — for the two-operand
// instructions the first NaN operand, for the fused ones the first NaN of the
// two factors, the instruction's second operand first, then the addend — and
// a negation inside a fused instruction never flips a NaN, where Go's unary
// minus would. Only when no operand is NaN does the operation's own NaN (Inf
// − Inf, 0·Inf) come out. The inputs are taken to be quiet NaNs, which the
// instructions pass on unchanged.

// fma32 is x·y + w rounded once in float32 — the float32 FMA, which Go does
// not have: float32(math.FMA(…)) would round twice. The product is exact in
// float64; the sum s rounded to float64 rounds on to the float32 of the exact
// sum unless s is a float32 halfway point — no such point lies strictly
// between the two — so only then, which takes the last 28 bits of s zero, is
// the sum rounded to odd instead (53 ≥ 2·24 + 2 bits: Boldo–Melquiond), whose
// rounding to float32 is the single rounding of a fused multiply-add. Which
// NaN a NaN result carries is the callers' business.
func fma32[F core.Float](x, y, w F) F {
	p, q := float64(x)*float64(y), float64(w)
	s := p + q
	if math.Float64bits(s)<<36 == 0 {
		s = sumToOdd(p, q, s)
	}
	return F(float32(s))
}

// sumToOdd is p + q rounded to odd, given s = p + q rounded to nearest: s
// itself when it is exact or not finite, else the neighbour of s toward the
// exact sum when s is even.
func sumToOdd(p, q, s float64) float64 {
	if s-s != 0 {
		return s
	}
	t := s - p // (s, e) is the exact TwoSum of p and q
	if e := (p - (s - t)) + (q - t); e != 0 && math.Float64bits(s)&1 == 0 {
		b := math.Float64bits(s)
		if (e > 0) == (s > 0) {
			b++
		} else {
			b--
		}
		s = math.Float64frombits(b)
	}
	return s
}

// nanOf is r unless an operand is NaN: then the first NaN of a, b, c.
func nanOf[F core.Float](r, a, b, c F) F {
	switch {
	case a != a:
		return a
	case b != b:
		return b
	case c != c:
		return c
	}
	return r
}

// vfmadd231 is d + a·b rounded once (VFMADD231 d, a, b): math.FMA, or
// fma32 for float32, as each of the four fused helpers spells out.
func vfmadd231[F core.Float](d, a, b F) F {
	var r F
	if unsafe.Sizeof(d) == 8 {
		r = F(math.FMA(float64(a), float64(b), float64(d)))
	} else {
		r = fma32(a, b, d)
	}
	if r != r {
		return nanOf(r, a, b, d)
	}
	return r
}

// vfnmadd231 is d − a·b rounded once (VFNMADD231 d, a, b).
func vfnmadd231[F core.Float](d, a, b F) F {
	var r F
	if unsafe.Sizeof(d) == 8 {
		r = F(math.FMA(-float64(a), float64(b), float64(d)))
	} else {
		r = fma32(-a, b, d)
	}
	if r != r {
		return nanOf(r, a, b, d)
	}
	return r
}

// vfnmadd213 is b − a·d rounded once (VFNMADD213 d, a, b).
func vfnmadd213[F core.Float](d, a, b F) F {
	var r F
	if unsafe.Sizeof(d) == 8 {
		r = F(math.FMA(-float64(a), float64(d), float64(b)))
	} else {
		r = fma32(-a, d, b)
	}
	if r != r {
		return nanOf(r, a, d, b)
	}
	return r
}

// vfmsub231 is a·b − d rounded once (the even lanes of VFMADDSUB231 d, a, b).
func vfmsub231[F core.Float](d, a, b F) F {
	var r F
	if unsafe.Sizeof(d) == 8 {
		r = F(math.FMA(float64(a), float64(b), -float64(d)))
	} else {
		r = fma32(a, b, -d)
	}
	if r != r {
		return nanOf(r, a, b, d)
	}
	return r
}

// fmadd64 and fnmadd64 are vfmadd231 and vfnmadd231 on float64, small
// enough for the compiler to inline: the float64 kernels' loops call them,
// the generic ones where F is float64 (wide).
func fmadd64(d, a, b float64) float64 {
	r := math.FMA(a, b, d)
	if r != r {
		return nanOf(r, a, b, d)
	}
	return r
}

func fnmadd64(d, a, b float64) float64 {
	r := math.FMA(-a, b, d)
	if r != r {
		return nanOf(r, a, b, d)
	}
	return r
}

// vmul, vadd and vsub are a·b, a + b and a − b (VMUL, VADD, VSUB a, b).
func vmul[F core.Float](a, b F) F {
	r := a * b
	if r != r {
		return nanOf(r, a, b, r)
	}
	return r
}

func vadd[F core.Float](a, b F) F {
	r := a + b
	if r != r {
		return nanOf(r, a, b, r)
	}
	return r
}

func vsub[F core.Float](a, b F) F {
	r := a - b
	if r != r {
		return nanOf(r, a, b, r)
	}
	return r
}

// lanes is the number of elements of F in a 32-byte YMM vector.
func lanes[F core.Float]() int {
	var z F
	return 32 / int(unsafe.Sizeof(z))
}

// hsum is the horizontal sum of the asm dot kernels over the lanes of one
// vector: the upper half added to the lower, then neighbours pairwise
// (VHADD) until one lane is left.
func hsum[F core.Float](s []F) F {
	h := len(s) / 2
	for l := 0; l < h; l++ {
		s[l] = vadd(s[l], s[l+h])
	}
	for w := h; w > 1; w /= 2 {
		for l := 0; l < w/2; l++ {
			s[l] = vadd(s[2*l], s[2*l+1])
		}
	}
	return s[0]
}

// gemmKernelFma is the twin of dgemmKernel8x4 (mr = 8) and sgemmKernel16x4
// (mr = 16): every element of the mr×4 tile is the FMA chain from zero over
// the kb steps, added to C once. It walks the tile in 4×4 blocks with the
// fused multiply-add spelled out for speed — float64's sixteen chains in
// locals, float32's fma32 on chains held in float64 — and runs a chain that
// ends in NaN again on vfmadd231 for its NaN.
func gemmKernelFma[F core.Float](mr int) func(kb int, ap, bp, c []F, ldc int) {
	return func(kb int, ap, bp, c []F, ldc int) {
		ap, bp = ap[:mr*kb], bp[:4*kb]
		for i := 0; i < mr; i += 4 {
			var acc [4][4]float64
			exact := true
			if unsafe.Sizeof(F(0)) == 8 {
				acc = block64(kb, mr, ap[i:], bp)
			} else {
				acc, exact = block32(kb, mr, ap[i:], bp)
			}
			if !exact {
				// A float32 sum met a halfway point: the block again, with
				// those sums rounded to odd.
				acc = [4][4]float64{}
				for p := 0; p < kb; p++ {
					for j, b := range bp[4*p : 4*p+4 : 4*p+4] {
						for r, a := range ap[p*mr+i : p*mr+i+4 : p*mr+i+4] {
							acc[j][r] = float64(fma32(b, a, F(acc[j][r])))
						}
					}
				}
			}
			for j := range acc {
				col := c[j*ldc+i : j*ldc+i+4 : j*ldc+i+4]
				for r, v := range acc[j] {
					x := F(v)
					if x != x {
						x = 0
						for p := 0; p < kb; p++ {
							x = vfmadd231(x, bp[4*p+j], ap[p*mr+i+r])
						}
					}
					col[r] = vadd(x, col[r])
				}
			}
		}
	}
}

// block32 is block64 for float32 chains held in float64, each step rounded
// to float32 once; exact is false when an inexact float64 sum lay on a
// float32 halfway point, where that rounding may be off.
func block32[F core.Float](kb, mr int, ap, bp []F) (acc [4][4]float64, exact bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	var off bool
	for p := 0; p < kb; p++ {
		av := ap[p*mr : p*mr+4 : p*mr+4]
		bv := bp[4*p : 4*p+4 : 4*p+4]
		a0, a1, a2, a3 := float64(av[0]), float64(av[1]), float64(av[2]), float64(av[3])
		b0, b1, b2, b3 := float64(bv[0]), float64(bv[1]), float64(bv[2]), float64(bv[3])
		c00, c10, c20, c30 = add32(c00, b0, a0, &off), add32(c10, b0, a1, &off), add32(c20, b0, a2, &off), add32(c30, b0, a3, &off)
		c01, c11, c21, c31 = add32(c01, b1, a0, &off), add32(c11, b1, a1, &off), add32(c21, b1, a2, &off), add32(c31, b1, a3, &off)
		c02, c12, c22, c32 = add32(c02, b2, a0, &off), add32(c12, b2, a1, &off), add32(c22, b2, a2, &off), add32(c32, b2, a3, &off)
		c03, c13, c23, c33 = add32(c03, b3, a0, &off), add32(c13, b3, a1, &off), add32(c23, b3, a2, &off), add32(c33, b3, a3, &off)
	}
	return [4][4]float64{{c00, c10, c20, c30}, {c01, c11, c21, c31}, {c02, c12, c22, c32}, {c03, c13, c23, c33}}, !off
}

// add32 is one step of a float32 chain held in float64: c + b·a, the product
// exact, rounded to float32; it sets off where the float64 sum s may round
// the wrong way — s a float32 halfway point (its last 28 bits zero, fma32)
// and not the exact sum (TwoSum), or not finite.
func add32(c, b, a float64, off *bool) float64 {
	p := b * a
	s := p + c
	if math.Float64bits(s)<<36 == 0 {
		if t := s - p; (p-(s-t))+(c-t) != 0 {
			*off = true
		}
	}
	return float64(float32(s))
}

// block64 is the float64 4×4 block of gemmKernelFma: the chains of rows
// ap[0:4] of each mr-row step against the four columns of bp, NaNs aside.
func block64[F core.Float](kb, mr int, ap, bp []F) [4][4]float64 {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for p := 0; p < kb; p++ {
		av := ap[p*mr : p*mr+4 : p*mr+4]
		bv := bp[4*p : 4*p+4 : 4*p+4]
		a0, a1, a2, a3 := float64(av[0]), float64(av[1]), float64(av[2]), float64(av[3])
		b0, b1, b2, b3 := float64(bv[0]), float64(bv[1]), float64(bv[2]), float64(bv[3])
		c00, c10, c20, c30 = math.FMA(b0, a0, c00), math.FMA(b0, a1, c10), math.FMA(b0, a2, c20), math.FMA(b0, a3, c30)
		c01, c11, c21, c31 = math.FMA(b1, a0, c01), math.FMA(b1, a1, c11), math.FMA(b1, a2, c21), math.FMA(b1, a3, c31)
		c02, c12, c22, c32 = math.FMA(b2, a0, c02), math.FMA(b2, a1, c12), math.FMA(b2, a2, c22), math.FMA(b2, a3, c32)
		c03, c13, c23, c33 = math.FMA(b3, a0, c03), math.FMA(b3, a1, c13), math.FMA(b3, a2, c23), math.FMA(b3, a3, c33)
	}
	return [4][4]float64{{c00, c10, c20, c30}, {c01, c11, c21, c31}, {c02, c12, c22, c32}, {c03, c13, c23, c33}}
}

// gemmSmallStripFma is the twin of dgemmSmallStripF64: C(0:8·strips, 0:4) +=
// alpha·A·B on the strided operands, each element's chain from zero over k
// taken into C by one more FMA with alpha; a strip's 8×4 chains advance
// together, one column of A per step.
func gemmSmallStripFma(strips, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, alpha float64) {
	for i0 := 0; i0 < 8*strips; i0 += 8 {
		var acc [4][8]float64
		for p := 0; p < k; p++ {
			col := a[i0+p*lda : i0+p*lda+8 : i0+p*lda+8]
			for j := range acc {
				bj, s := b[p+j*ldb], &acc[j]
				for r, v := range col {
					s[r] = fmadd64(s[r], bj, v)
				}
			}
		}
		for j := range acc {
			cj := c[i0+j*ldc : i0+j*ldc+8 : i0+j*ldc+8]
			for r, v := range acc[j] {
				cj[r] = fmadd64(cj[r], alpha, v)
			}
		}
	}
}

// sub8Fma is the twin of dsubFma8 and ssubFma8: c_q[0:n] −= x[q]·a[0:n]
// for the eight columns q of c, ldc elements apart. It takes the pointers
// the assembly takes (subFma8 in level3.go has the reason).
func sub8Fma[F core.Float](n int, x *[8]F, a, c *F, ldc int) {
	av, cv := unsafe.Slice(a, n), unsafe.Slice(c, 7*ldc+n)
	wide := unsafe.Sizeof(*a) == 8
	for q, xq := range x {
		col := cv[q*ldc : q*ldc+n]
		for r, v := range av {
			if wide {
				col[r] = F(fnmadd64(float64(col[r]), float64(xq), float64(v)))
			} else {
				col[r] = vfnmadd231(col[r], xq, v)
			}
		}
	}
}

// gemvSub8Fma is the twin of dgemvSub8 and sgemvSub8: y[0:m] −= Σ_q
// t[q]·b_q[0:m]. A full vector of rows splits the chains over four
// accumulators — q and q+4 in the one that starts from y — summed pairwise.
func gemvSub8Fma[F core.Float](m int, t [8]F, b []F, ldb int, y []F) {
	var cols [8][]F
	for q := range cols {
		cols[q] = b[q*ldb : q*ldb+m]
	}
	y = y[:m]
	full := m - m%lanes[F]()
	wide := unsafe.Sizeof(t[0]) == 8
	for i := range y {
		var s [4]F
		s[0] = y[i]
		for q, tq := range t {
			// A full vector of rows chains q and q+4 in one accumulator, a
			// row of the tail all eight in y.
			k := q % 4
			if i >= full {
				k = 0
			}
			if wide {
				s[k] = F(fnmadd64(float64(s[k]), float64(tq), float64(cols[q][i])))
			} else {
				s[k] = vfnmadd231(s[k], tq, cols[q][i])
			}
		}
		if i < full {
			s[0] = vadd(vadd(s[0], s[1]), vadd(s[2], s[3]))
		}
		y[i] = s[0]
	}
}

// axpyFma, scalFma and dotFma are the twins of daxpyFma/saxpyFma,
// dscalFma/sscalFma and ddotFma/sdotFma. dotFma keeps the kernel's four
// vector accumulators — four vectors per step, then one vector per step into
// the first — sums them lane by lane, then horizontally (hsum), and chains
// the elements past the last full vector onto the sum.
func axpyFma[F core.Float](alpha F, x, y []F) {
	y = y[:len(x)]
	wide := unsafe.Sizeof(alpha) == 8
	for i, v := range x {
		if wide {
			y[i] = F(fmadd64(float64(y[i]), float64(alpha), float64(v)))
		} else {
			y[i] = vfmadd231(y[i], alpha, v)
		}
	}
}

func scalFma[F core.Float](alpha F, x []F) {
	for i, v := range x {
		x[i] = vmul(v, alpha)
	}
}

func dotFma[F core.Float](x, y []F, _ bool) F {
	l := lanes[F]()
	y = y[:len(x)]
	var acc [4][8]F
	i, wide := 0, l == 4 // four lanes: float64
	step := func(v, i int) {
		for j := range l {
			if wide {
				acc[v][j] = F(fmadd64(float64(acc[v][j]), float64(x[i+j]), float64(y[i+j])))
			} else {
				acc[v][j] = vfmadd231(acc[v][j], x[i+j], y[i+j])
			}
		}
	}
	for ; i+4*l <= len(x); i += 4 * l {
		for v := range 4 {
			step(v, i+v*l)
		}
	}
	for ; i+l <= len(x); i += l {
		step(0, i)
	}
	s := acc[0][:l]
	for j := range s {
		s[j] = vadd(vadd(s[j], acc[1][j]), vadd(acc[2][j], acc[3][j]))
	}
	sum := hsum(s)
	for ; i < len(x); i++ {
		sum = vfmadd231(sum, x[i], y[i])
	}
	return sum
}

// axpyDotFma is the twin of daxpyDotFma: y += alpha·a and Σ a[i]·x[i] on two
// vector accumulators, eight elements per step, then four into the first.
func axpyDotFma(alpha float64, a, x, y []float64, _ bool) float64 {
	x, y = x[:len(a)], y[:len(a)]
	var acc [2][4]float64
	n8, i := len(a)&^7, 0
	for ; i+4 <= len(a); i += 4 {
		v := 0
		if i < n8 {
			v = (i / 4) % 2
		}
		for j := range 4 {
			y[i+j] = fmadd64(y[i+j], alpha, a[i+j])
			acc[v][j] = fmadd64(acc[v][j], a[i+j], x[i+j])
		}
	}
	s := acc[0][:]
	for j := range s {
		s[j] = vadd(s[j], acc[1][j])
	}
	sum := hsum(s)
	for ; i < len(a); i++ {
		y[i] = fmadd64(y[i], alpha, a[i])
		sum = fmadd64(sum, a[i], x[i])
	}
	return sum
}

// rotSeqFma is the twin of rotRunFma on drotSeqFma/srotSeqFma (iterate.go
// has the formulation): each link stores fma(c, p, σ·q) and carries
// c·q − σ·p, the products with the loaded column rounded.
func rotSeqFma[F core.Float](forward bool, m, nrot int, c, s []float64, a []F, lda int) {
	j0, p0, step, stride := 0, 0, 1, lda
	if !forward {
		j0, p0, step, stride = nrot-1, nrot*lda, -1, -lda
	}
	for i := 0; i < m; i++ {
		off := p0 + i
		x := a[off]
		for t, j := 0, j0; t < nrot; t, j = t+1, j+step {
			ct, st := F(c[j]), F(s[j])
			if !forward {
				st = -st // σ = −s, a sign flip as the kernel's XOR
			}
			q := a[off+stride]
			sq, cq := vmul(st, q), vmul(ct, q)
			a[off] = vfmadd231(sq, ct, x)
			x = vfnmadd213(x, st, cq)
			off += stride
		}
		a[off] = x
	}
}

// refl3Fma and refl2Fma are the twins of drefl3Fma and drefl2Fma: sum = x0 +
// v2·x1 + v3·x2 by two FMAs, then each column loses sum·t_i by one.
func refl3Fma(x0, x1, x2 []float64, v2, v3, t1, t2, t3 float64) {
	x1, x2 = x1[:len(x0)], x2[:len(x0)]
	for i := range x0 {
		sum := fmadd64(fmadd64(x0[i], v2, x1[i]), v3, x2[i])
		x0[i] = fnmadd64(x0[i], t1, sum)
		x1[i] = fnmadd64(x1[i], t2, sum)
		x2[i] = fnmadd64(x2[i], t3, sum)
	}
}

func refl2Fma(x0, x1 []float64, v2, t1, t2 float64) {
	x1 = x1[:len(x0)]
	for i := range x0 {
		sum := fmadd64(x0[i], v2, x1[i])
		x0[i] = fnmadd64(x0[i], t1, sum)
		x1[i] = fnmadd64(x1[i], t2, sum)
	}
}

// refl3GroupsFma and refl2GroupsFma are the twins of drefl3RowsFma and
// drefl2RowsFma: drefl3Fma's arithmetic on rows 0..2 (0..1) of the 4·groups
// columns ldh bytes apart at h. They take the pointers the assembly takes,
// for refl3RowsOn and refl2RowsOn (iterate.go) to run them in its place.
func refl3GroupsFma(groups int64, h *float64, ldh int64, v2, v3, t1, t2, t3 float64) {
	ld, n := int(ldh/8), 4*int(groups)
	hv := unsafe.Slice(h, (n-1)*ld+3)
	for j := 0; j < n; j++ {
		refl3Col(hv[j*ld:j*ld+3:j*ld+3], v2, v3, t1, t2, t3)
	}
}

func refl2GroupsFma(groups int64, h *float64, ldh int64, v2, t1, t2 float64) {
	ld, n := int(ldh/8), 4*int(groups)
	hv := unsafe.Slice(h, (n-1)*ld+2)
	for j := 0; j < n; j++ {
		refl2Col(hv[j*ld:j*ld+2:j*ld+2], v2, t1, t2)
	}
}

// refl3Col and refl2Col are one column of the row kernels, c[0:3] (c[0:2])
// -= (c[0] + v2·c[1] + v3·c[2])·(t1, t2, t3), with the kernels' operand
// order, so NaN payloads and signs come out as the assembly's.
func refl3Col(c []float64, v2, v3, t1, t2, t3 float64) {
	sum := fmadd64(fmadd64(c[0], v2, c[1]), v3, c[2])
	c[0] = fnmadd64(c[0], t1, sum)
	c[1] = fnmadd64(c[1], t2, sum)
	c[2] = fnmadd64(c[2], t3, sum)
}

func refl2Col(c []float64, v2, t1, t2 float64) {
	sum := fmadd64(c[0], v2, c[1])
	c[0] = fnmadd64(c[0], t1, sum)
	c[1] = fnmadd64(c[1], t2, sum)
}

// dot8Chain is one sum of ddot8 and ddot4x3: Σ x[i]·a[i] on four lanes, four
// rows per step, the last one to three rows with the lanes past them zero,
// then (l0 + l1) + (l2 + l3).
func dot8Chain(a, x []float64) float64 {
	var l [4]float64
	n4 := len(x) &^ 3
	for i := 0; i < n4; i += 4 {
		for j := range l {
			l[j] = fmadd64(l[j], x[i+j], a[i+j])
		}
	}
	if n4 < len(x) {
		for j := range l {
			var xv, av float64
			if n4+j < len(x) {
				xv, av = x[n4+j], a[n4+j]
			}
			l[j] = fmadd64(l[j], xv, av)
		}
	}
	return vadd(vadd(l[0], l[1]), vadd(l[2], l[3]))
}

// dot8Fma and dot4x3Fma are the twins of ddot8 and ddot4x3.
func dot8Fma(_ *kernel[float64], a []float64, lda int, x []float64, _ bool) (out [CholNB]float64) {
	for q := range out {
		out[q] = dot8Chain(a[q*lda:q*lda+len(x)], x)
	}
	return out
}

func dot4x3Fma(k int, a []float64, lda int, b []float64, ldb int) (out [12]float64) {
	for c := 0; c < 3; c++ {
		for q := 0; q < 4; q++ {
			out[q+4*c] = dot8Chain(a[q*lda:q*lda+k], b[c*ldb:c*ldb+k])
		}
	}
	return out
}

// cholStep8Fma is the twin of dcholStep8: the diagonal block factored
// right-looking on its lower factor, each later column losing L(i, j)·L(k, j)
// by one FMA per finished column j; then, four panel rows (Upper: block-row
// columns) at a time, the panel solved against it, x_q −= x_p·L(q, p) for p <
// q and times 1/L(q, q), and every element of the trailing triangle the
// chain of the eight panel products.
func cholStep8Fma(upper bool, m int, a []float64, lda int) int {
	// at(i, k) is the element (i, k) of the lower factor's view of a.
	rs, cs := 1, lda
	if upper {
		rs, cs = lda, 1
	}
	at := func(i, k int) *float64 { return &a[i*rs+k*cs] }
	var t [8][8]float64 // t[k][i] = L(i, k), i ≥ k
	var inv [8]float64
	for k := range 8 {
		for i := k; i < 8; i++ {
			t[k][i] = *at(i, k)
		}
	}
	scatter := func(cols int) {
		for k := range cols {
			for i := k; i < 8; i++ {
				*at(i, k) = t[k][i]
			}
		}
	}
	for j := range 8 {
		d := t[j][j]
		if !(d > 0) {
			*at(j, j) = d
			scatter(j)
			return j + 1
		}
		root := math.Sqrt(d)
		inv[j] = 1 / root
		for i := j + 1; i < 8; i++ {
			t[j][i] = vmul(t[j][i], inv[j])
		}
		t[j][j] = root
		for k := j + 1; k < 8; k++ {
			for i := k; i < 8; i++ {
				t[k][i] = fnmadd64(t[k][i], t[j][i], t[j][k])
			}
		}
	}
	scatter(8)
	// The panel: entry q of row i is at(i, q) for i ≥ 8, solved row by row.
	for i := 8; i < m; i++ {
		var x [8]float64
		for q := range x {
			x[q] = *at(i, q)
		}
		for q := range x {
			for p := 0; p < q; p++ {
				x[q] = fnmadd64(x[q], x[p], t[p][q])
			}
			x[q] = vmul(x[q], inv[q])
			*at(i, q) = x[q]
		}
	}
	// The trailing triangle, L(i, c) for 8 ≤ c ≤ i. The vector lanes run
	// over i for Lower and over c for Upper, and the lane operand comes
	// first.
	for i := 8; i < m; i++ {
		for c := 8; c <= i; c++ {
			v := *at(i, c)
			for q := range 8 {
				x, y := *at(i, q), *at(c, q)
				if upper {
					x, y = y, x
				}
				v = fnmadd64(v, x, y)
			}
			*at(i, c) = v
		}
	}
	return 0
}

// luStep8Fma is the twin of dluStep8: the panel factored a column at a time
// — pivot search as Iamax, the column scaled by the reciprocal pivot (divided
// by a pivot under 2⁻¹⁰²², left alone when it is zero), one FMA per later
// column and row — the interchanges applied to the other columns, the block
// row of U solved against the unit lower triangle and every element under it
// the chain of the eight panel products.
func luStep8Fma(nl, m, nr int, a []float64, lda int, ipiv []int) int {
	info := 0
	l := a[nl*lda:]
	for j := range CholNB {
		col := l[j*lda+j : j*lda+m]
		p := j + iamaxFloat(col)
		ipiv[j] = p
		if p != j {
			for c := range CholNB {
				l[j+c*lda], l[p+c*lda] = l[p+c*lda], l[j+c*lda]
			}
		}
		below := col[1:]
		switch piv := col[0]; {
		case math.Abs(piv) >= 0x1p-1022:
			r := 1 / piv
			for i, v := range below {
				below[i] = vmul(v, r)
			}
		case piv == 0:
			if info == 0 {
				info = j + 1
			}
		default:
			for i := range below {
				below[i] /= piv
			}
		}
		for c := j + 1; c < CholNB; c++ {
			u, y := l[j+c*lda], l[j+1+c*lda:m+c*lda]
			for i, v := range below {
				y[i] = fnmadd64(y[i], v, u)
			}
		}
	}
	for c := range nl + CholNB + nr {
		if c >= nl && c < nl+CholNB {
			continue
		}
		col := a[c*lda : c*lda+m]
		for q, p := range ipiv[:CholNB] {
			col[q], col[p] = col[p], col[q]
		}
		if c < nl {
			continue
		}
		for q := range CholNB - 1 {
			for i := q + 1; i < CholNB; i++ {
				col[i] = fnmadd64(col[i], col[q], l[i+q*lda])
			}
		}
		for i := CholNB; i < m; i++ {
			v := col[i]
			for q := range CholNB {
				v = fnmadd64(v, l[i+q*lda], col[q])
			}
			col[i] = v
		}
	}
	return info
}

// The complex twins of zaxpyFma/caxpyFma, zdotFma/cdotFma and
// zscalFma/cscalFma, on the real view the kernels work on: one element is a
// pair of lanes [re, im], and a complex multiply-add is two real FMAs per
// lane, one with the element as loaded and one with its parts swapped.

// complexAxpyFma is y += alpha·x: per lane pair, y += [ar, ar]·x, then
// y += [−ai, ai]·swap(x).
func complexAxpyFma[C core.Cmplx, R core.Float](view func([]C) []R) func(alpha C, x, y []C) {
	return func(alpha C, x, y []C) {
		ar, ai := R(core.Re(alpha)), R(core.Im(alpha))
		xv, yv := view(x), view(y[:len(x)])
		for i := 0; i < len(xv); i += 2 {
			xr, xi := xv[i], xv[i+1]
			yr := vfmadd231(yv[i], ar, xr)
			yi := vfmadd231(yv[i+1], ar, xi)
			yv[i], yv[i+1] = vfmadd231(yr, -ai, xi), vfmadd231(yi, ai, xr)
		}
	}
}

// complexDotFma is Σ x·y or Σ conj(x)·y: the lane products [xr·yr, xi·yi] and
// [xr·yi, xi·yr] go to two sets of accumulators — four vectors per step on
// eight, then one vector per step on the first pair — which are summed lane
// by lane, halved to one XMM register, take the elements past the last full
// vector there, and fold to one element (complex64); the conjugation only
// decides how the lanes combine at the end.
func complexDotFma[C core.Cmplx, R core.Float](view func([]C) []R) func(x, y []C, conj bool) C {
	return func(x, y []C, conj bool) C {
		xv, yv := view(x), view(y[:len(x)])
		l := lanes[R]() // reals per vector: l/2 complex elements
		var acc, accs [4][8]R
		step := func(v, i int) {
			for j := 0; j < l && i+j < len(xv); j += 2 {
				xr, xi, yr, yi := xv[i+j], xv[i+j+1], yv[i+j], yv[i+j+1]
				acc[v][j], acc[v][j+1] = vfmadd231(acc[v][j], xr, yr), vfmadd231(acc[v][j+1], xi, yi)
				accs[v][j], accs[v][j+1] = vfmadd231(accs[v][j], xr, yi), vfmadd231(accs[v][j+1], xi, yr)
			}
		}
		i := 0
		for ; i+4*l <= len(xv); i += 4 * l {
			for v := range 4 {
				step(v, i+v*l)
			}
		}
		for ; i+l <= len(xv); i += l {
			step(0, i)
		}
		for _, a := range []*[4][8]R{&acc, &accs} {
			for j := range l {
				a[0][j] = vadd(vadd(a[0][j], a[1][j]), vadd(a[2][j], a[3][j]))
			}
			for j := range l / 2 {
				a[0][j] = vadd(a[0][j], a[0][j+l/2])
			}
		}
		// The tail below a vector, on the XMM halves: complex128 has one
		// element left at most, complex64 two then one. An element that
		// takes the low lanes leaves the high ones to gain 0·0, as the
		// kernel's zeroed lanes do.
		half := l / 2
		for ; i < len(xv); i += half {
			w := min(half, len(xv)-i)
			for j := 0; j < half; j += 2 {
				var xr, xi, yr, yi R
				if j < w {
					xr, xi, yr, yi = xv[i+j], xv[i+j+1], yv[i+j], yv[i+j+1]
				}
				acc[0][j], acc[0][j+1] = vfmadd231(acc[0][j], xr, yr), vfmadd231(acc[0][j+1], xi, yi)
				accs[0][j], accs[0][j+1] = vfmadd231(accs[0][j], xr, yi), vfmadd231(accs[0][j+1], xi, yr)
			}
		}
		rr, ii, ri, ir := acc[0][0], acc[0][1], accs[0][0], accs[0][1]
		if half == 4 { // complex64: fold the XMM register's two elements
			rr, ii = vadd(rr, acc[0][2]), vadd(ii, acc[0][3])
			ri, ir = vadd(ri, accs[0][2]), vadd(ir, accs[0][3])
		}
		if conj {
			return core.FromComplex[C](complex(float64(vadd(rr, ii)), float64(vsub(ri, ir))))
		}
		return core.FromComplex[C](complex(float64(vsub(rr, ii)), float64(vadd(ri, ir))))
	}
}

// complexScalFma is x *= alpha: t = ai·swap(x), then ar·x ∓ t in one fused
// multiply-add/subtract, the real lane subtracting.
func complexScalFma[C core.Cmplx, R core.Float](view func([]C) []R) func(alpha C, x []C) {
	return func(alpha C, x []C) {
		ar, ai := R(core.Re(alpha)), R(core.Im(alpha))
		xv := view(x)
		for i := 0; i < len(xv); i += 2 {
			xr, xi := xv[i], xv[i+1]
			xv[i], xv[i+1] = vfmsub231(vmul(ai, xi), ar, xr), vfmadd231(vmul(ai, xr), ar, xi)
		}
	}
}

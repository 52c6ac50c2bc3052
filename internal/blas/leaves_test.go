package blas

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// Tests of the Level-1/2 leaves and packers under the Householder path: the
// column-stream transposing packers against the element-by-element
// definition of the packed format, real Gerc (= Ger) and the Nrm2 fast path
// against their reference loops, and the size-class scratch pool.

// packARef and packBRef write the packed formats from their definitions:
// panel step p of an mr-row (nr-column) micro-panel holds
// alpha·op(A)(r0:r0+mr, p) (op(B)(p, c0:c0+nr)), zero beyond the operand.
func packARef[T core.Scalar](dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int) {
	clear(dst)
	for i := 0; i < mb; i++ {
		for p := 0; p < kb; p++ {
			var v T
			switch trans {
			case NoTrans:
				v = a[i0+i+(p0+p)*lda]
			case TransT:
				v = a[p0+p+(i0+i)*lda]
			default:
				v = core.Conj(a[p0+p+(i0+i)*lda])
			}
			dst[(i/mr)*mr*kb+p*mr+i%mr] = alpha * v
		}
	}
}

func packBRef[T core.Scalar](dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int) {
	clear(dst)
	for j := 0; j < nb; j++ {
		for p := 0; p < kb; p++ {
			var v T
			switch trans {
			case NoTrans:
				v = b[p0+p+(j0+j)*ldb]
			case TransT:
				v = b[j0+j+(p0+p)*ldb]
			default:
				v = core.Conj(b[j0+j+(p0+p)*ldb])
			}
			dst[(j/nr)*nr*kb+p*nr+j%nr] = v
		}
	}
}

// testPackers checks one (packA, packB) pair at geometry mr×nr bit for bit
// against the reference packers: every trans, the alphas the factorizations
// use and a general one, extents ragged against 4, 8, 16, 24 and 48, padded
// leading dimensions, and nonzero offsets into the operand.
func testPackers[T core.Scalar](t *testing.T, mr, nr int,
	pa func(dst []T, mr int, trans Trans, alpha T, a []T, lda int, i0, mb, p0, kb int),
	pb func(dst []T, nr int, trans Trans, b []T, ldb int, p0, kb, j0, nb int)) {
	rng := rand.New(rand.NewSource(33))
	const dim = 60 // operand is dim×dim inside lda = dim+3
	lda := dim + 3
	a := randSlice[T](rng, lda*dim)
	for _, trans := range allTrans {
		for _, ext := range []int{1, 3, 4, 7, 8, 9, 16, 21, 24, 37, 48, 53} {
			for _, kb := range []int{1, 2, 5, 8, 33} {
				i0, p0 := 2, 5
				wantA := make([]T, kb*roundUp(ext, mr))
				gotA := randSlice[T](rng, len(wantA)) // stale contents must not survive
				for _, al := range []float64{1, -1, 1.5} {
					alpha := core.FromFloat[T](al)
					packARef(wantA, mr, trans, alpha, a, lda, i0, ext, p0, kb)
					pa(gotA, mr, trans, alpha, a, lda, i0, ext, p0, kb)
					if !diff.Same(gotA, wantA) {
						t.Fatalf("packA mr=%d %v alpha=%v mb=%d kb=%d differs from the reference", mr, trans, al, ext, kb)
					}
				}
				wantB := make([]T, kb*roundUp(ext, nr))
				gotB := randSlice[T](rng, len(wantB))
				packBRef(wantB, nr, trans, a, lda, p0, kb, i0, ext)
				pb(gotB, nr, trans, a, lda, p0, kb, i0, ext)
				if !diff.Same(gotB, wantB) {
					t.Fatalf("packB nr=%d %v nb=%d kb=%d differs from the reference", nr, trans, ext, kb)
				}
			}
		}
	}
}

func TestPackersMatchReference(t *testing.T) {
	for _, mr := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("generic/mr=%d", mr), func(t *testing.T) {
			testPackers(t, mr, 4, packA[float64], packB[float64])
			testPackers(t, mr, 4, packA[float32], packB[float32])
			testPackers(t, mr, 4, packA[complex128], packB[complex128])
			testPackers(t, mr, 4, packA[complex64], packB[complex64])
		})
	}
	// The real rows of the kernel table as the engines use them (the complex
	// asm rows pack in 1m form, covered by TestGemmPackedComplex).
	diff.Rows(t, func(t *testing.T) {
		k64, k32 := kernelFor[float64](), kernelFor[float32]()
		testPackers(t, k64.mr, k64.nr, k64.packA, k64.packB)
		testPackers(t, k32.mr, k32.nr, k32.packA, k32.packB)
	})
}

// ulps returns |got − want| in units of the last place of want at T's
// precision.
func ulps[T core.Scalar](got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / (math.Abs(want) * core.Eps[T]())
}

// gercRef is the rank-one update from its definition, one rounding per
// multiply and add.
func gercRef[T core.Scalar](m, n int, alpha T, x []T, incX int, y []T, incY int, a []T, lda int) {
	for j := 0; j < n; j++ {
		t := alpha * core.Conj(y[j*incY])
		for i := 0; i < m; i++ {
			a[i+j*lda] += x[i*incX] * t
		}
	}
}

func testGerc[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][2]int{{1, 1}, {7, 3}, {8, 8}, {33, 5}, {100, 17}} {
		m, n := sh[0], sh[1]
		for _, inc := range [][2]int{{1, 1}, {1, 3}, {2, 1}} {
			incX, incY := inc[0], inc[1]
			lda := m + 2
			x, y := randSlice[T](rng, m*incX), randSlice[T](rng, n*incY)
			a0 := randSlice[T](rng, lda*n)
			alpha := core.FromComplex[T](complex(-0.75, 0.5))
			want := append([]T(nil), a0...)
			gercRef(m, n, alpha, x, incX, y, incY, want, lda)
			got := append([]T(nil), a0...)
			Gerc(m, n, alpha, x, incX, y, incY, got, lda)
			// FMA kernels may round once where the reference rounds twice
			// (and complex64 products in float32 where Go uses float64).
			for i := range got {
				if d := core.Abs(got[i] - want[i]); d > 4*core.Eps[T]()*math.Max(core.Abs(want[i]), 1) {
					t.Fatalf("%dx%d inc %v: Gerc[%d] = %v, reference %v", m, n, inc, i, got[i], want[i])
				}
			}
			if core.IsComplex[T]() {
				continue
			}
			// Real Gerc is Ger.
			ger := append([]T(nil), a0...)
			Ger(m, n, alpha, x, incX, y, incY, ger, lda)
			if !diff.Same(got, ger) {
				t.Fatalf("%dx%d inc %v: real Gerc is not Ger", m, n, inc)
			}
		}
	}
}

func TestGercRealIsGer(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		testGerc[float64](t)
		testGerc[float32](t)
		testGerc[complex128](t)
		testGerc[complex64](t)
	})
}

// nrm2Exact is the correctly rounded norm: the squares summed exactly.
func nrm2Exact[T core.Scalar](x []T) float64 {
	sum := new(big.Float).SetPrec(2200)
	for _, v := range x {
		for _, part := range [2]float64{core.Re(v), core.Im(v)} {
			p := new(big.Float).SetPrec(2200).SetFloat64(part)
			sum.Add(sum, p.Mul(p, p))
		}
	}
	r, _ := sum.Sqrt(sum).Float64()
	return r
}

// testNrm2 checks the fast path's contract: whatever it declines — or would
// get wrong — gives exactly the scaled loop's answer, and what it accepts is
// within 2 ulp of T of the true norm (the scaled loop's own sequential sum
// is no closer than that).
func testNrm2[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big, small := 1e300, 1e-300
	if core.Eps[T]() > 1e-10 { // single precision
		big, small = 1e30, 1e-30
	}
	sub := core.SafeMin[T]() / 16 // subnormal in T
	for _, n := range []int{1, 2, 7, 8, 31, 100, 1000} {
		base := randSlice[T](rng, n)
		scaled := func(f float64) []T {
			x := append([]T(nil), base...)
			Scal(n, core.FromFloat[T](f), x, 1)
			return x
		}
		with := func(v float64, at int) []T {
			x := append([]T(nil), base...)
			x[at] = core.FromFloat[T](v)
			return x
		}
		exact := map[string][]T{
			"huge": scaled(big), "tiny": scaled(small), "subnormal": scaled(sub),
			"zero":      make([]T, n),
			"NaN first": with(math.NaN(), 0), "NaN last": with(math.NaN(), n-1),
			"Inf": with(math.Inf(1), n/2), "-Inf": with(math.Inf(-1), n/2),
			"one huge": with(big, n/2),
		}
		for name, x := range exact {
			got, want := Nrm2(n, x, 1), nrm2Scaled(n, x, 1)
			if !sameValue(got, want) {
				t.Errorf("n=%d %s: Nrm2 = %v, scaled loop %v", n, name, got, want)
			}
		}
		for _, f := range []float64{1, 1e-3, 4096} {
			x := scaled(f)
			got := Nrm2(n, x, 1)
			if k := kernelFor[T](); k.sumSq == nil {
				// No vector kernels on this route: the scaled loop, as ever.
				if want := nrm2Scaled(n, x, 1); got != want {
					t.Errorf("n=%d scale %g: Nrm2 = %v, scaled loop %v", n, f, got, want)
				}
			} else if want := nrm2Exact(x); ulps[T](got, want) > 2 {
				t.Errorf("n=%d scale %g: Nrm2 = %v, true norm %v (%.1f ulp)", n, f, got, want, ulps[T](got, want))
			}
		}
		// Strided vectors always take the scaled loop.
		if n > 1 {
			got, want := Nrm2(n/2, base, 2), nrm2Scaled(n/2, base, 2)
			if got != want {
				t.Errorf("n=%d strided: %v vs %v", n, got, want)
			}
		}
	}
}

func TestNrm2FastPath(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		testNrm2[float64](t)
		testNrm2[float32](t)
		testNrm2[complex128](t)
		testNrm2[complex64](t)
	})
}

// TestScratchSizeClasses pins the pool's invariants: a buffer's capacity is
// its power-of-two class, so a small request never returns (or consumes) a
// large buffer, a large one never gets a short buffer, and foreign slices of
// odd capacity are filed where they fit every request of the class.
func TestScratchSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 31, 32, 33, 1000, 1 << 16, 1<<16 + 1} {
		s := getScratch[float64](n)
		if len(s) != n || cap(s) < n || cap(s) > max(1, 2*n) || cap(s)&(cap(s)-1) != 0 {
			t.Fatalf("getScratch(%d): len %d cap %d", n, len(s), cap(s))
		}
		putScratch(s)
	}
	// An odd-capacity foreign buffer lands in the class below its capacity.
	putScratch(make([]float32, 100)) // class 64
	for i := 0; i < 8; i++ {
		if s := getScratch[float32](100); cap(s) < 100 {
			t.Fatalf("request for 100 got capacity %d", cap(s))
		}
		if s := getScratch[float32](64); cap(s) < 64 {
			t.Fatalf("request for 64 got capacity %d", cap(s))
		}
	}
	// A large buffer survives any number of small requests of its type and
	// of other types (sync.Pool may drop it on its own, so only the sizes
	// handed out are asserted).
	putScratch(make([]float64, 1<<20))
	for i := 0; i < 8; i++ {
		small := getScratch[float64](10)
		if cap(small) != 16 {
			t.Fatalf("small request got capacity %d", cap(small))
		}
		putScratch(small)
		if c := getScratch[complex128](10); cap(c) != 16 {
			t.Fatalf("small complex request got capacity %d", cap(c))
		}
	}
	if s := getScratch[float64](1 << 20); cap(s) != 1<<20 {
		t.Fatalf("large request got capacity %d", cap(s))
	}
}

// gemvRef is Gemv from its definition, the index loop that served every
// strided operand before the gather/scatter route: one rounding per multiply
// and add, columns in order.
func gemvRef[T core.Scalar](trans Trans, m, n int, alpha T, a []T, lda int, x []T, incX int, beta T, y []T, incY int) {
	lenY := m
	if trans != NoTrans {
		lenY = n
	}
	for i := 0; i < lenY; i++ {
		if beta == 0 {
			y[i*incY] = 0
		} else {
			y[i*incY] *= beta
		}
	}
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		switch trans {
		case NoTrans:
			t := alpha * x[j*incX]
			for i := 0; i < m; i++ {
				y[i*incY] += t * col[i]
			}
		case TransT:
			var sum T
			for i := 0; i < m; i++ {
				sum += col[i] * x[i*incX]
			}
			y[j*incY] += alpha * sum
		default:
			var sum T
			for i := 0; i < m; i++ {
				sum += core.Conj(col[i]) * x[i*incX]
			}
			y[j*incY] += alpha * sum
		}
	}
}

// testGemvStrided: every increment pair 1..7 on both vectors — in particular
// the vector-shaped operand strided (y for NoTrans, x for the transposed
// forms), which Gemv gathers into scratch — against the definition, on
// ragged shapes and the three β cases; elements between the strides must
// come back untouched.
func testGemvStrided[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shapes := [][2]int{{1, 1}, {3, 5}, {17, 4}, {33, 9}, {8, 31}, {70, 13}}
	for _, trans := range allTrans {
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			lenX, lenY := n, m
			if trans != NoTrans {
				lenX, lenY = m, n
			}
			lda := m + 2
			a := randSlice[T](rng, lda*n)
			for incX := 1; incX <= 7; incX++ {
				for incY := 1; incY <= 7; incY++ {
					for _, beta := range []float64{0, 1, -0.5} {
						alpha := core.FromFloat[T](0.75)
						x := randSlice[T](rng, lenX*incX)
						y := randSlice[T](rng, lenY*incY)
						want := append([]T(nil), y...)
						Gemv(nil, trans, m, n, alpha, a, lda, x, incX, core.FromFloat[T](beta), y, incY)
						gemvRef(trans, m, n, alpha, a, lda, x, incX, core.FromFloat[T](beta), want, incY)
						bound := 4 * float64(max(m, n)) * core.Eps[T]()
						for i := range y {
							if i%incY != 0 && y[i] != want[i] {
								t.Fatalf("%v %dx%d incX=%d incY=%d: element %d between the strides changed", trans, m, n, incX, incY, i)
							}
							if core.Abs(y[i]-want[i]) > bound {
								t.Fatalf("%v %dx%d incX=%d incY=%d beta=%v: y[%d] = %v, want %v", trans, m, n, incX, incY, beta, i, y[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestGemvStrided(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("float64", testGemvStrided[float64])
		t.Run("float32", testGemvStrided[float32])
		t.Run("complex128", testGemvStrided[complex128])
		t.Run("complex64", testGemvStrided[complex64])
	})
}

// trsmRef solves op(A)·X = alpha·B (Left) or X·op(A) = alpha·B (Right) by
// plain substitution in complex128, one right-hand side at a time.
func trsmRef[T core.Scalar](side Side, uplo Uplo, trans Trans, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) cmat {
	na := m
	if side == Right {
		na = n
	}
	tr := lift(na, na, a, lda).tri(uplo, diag).op(trans)
	rhs := lift(m, n, b, ldb).scale(core.ToComplex(alpha))
	lower := (uplo == Lower) == (trans == NoTrans)
	if side == Right {
		// X·op(A) = R  ⇔  op(A)ᵀ·Xᵀ = Rᵀ.
		tr, rhs, lower = tr.op(TransT), rhs.op(TransT), !lower
	}
	x := newCmat(rhs.m, rhs.n)
	for j := 0; j < rhs.n; j++ {
		for s := 0; s < tr.m; s++ {
			i := s
			if !lower {
				i = tr.m - 1 - s
			}
			sum := rhs.at(i, j)
			for l := 0; l < tr.m; l++ {
				if l != i {
					sum -= tr.at(i, l) * x.at(l, j)
				}
			}
			x.set(i, j, sum/tr.at(i, i))
		}
	}
	if side == Right {
		x = x.op(TransT)
	}
	return x
}

// testTrsmLeaves holds all sixteen (side, uplo, trans, diag) forms of Trsm to
// the substitution reference, with alpha ≠ 1, at triangle orders under, at
// and across the recursion's leaf and right-hand-side counts on every leaf
// width: Trsv columns (1, 3), a quad (4, 7), octets (8, 16), octets with each
// remainder (9, 67).
func testTrsmLeaves[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := core.FromComplex[T](complex(-0.75, 0.5))
	for _, na := range []int{7, 40, 100} {
		widths := []int{1, 3, 4, 7, 8, 9, 16, 67}
		if na == 100 {
			widths = []int{8, 67}
		}
		lda := na + 1
		a := randSlice[T](rng, lda*na)
		for i := 0; i < na; i++ {
			a[i+i*lda] += core.FromFloat[T](float64(na)) // well conditioned
		}
		for _, w := range widths {
			for _, side := range []Side{Left, Right} {
				m, n := na, w
				if side == Right {
					m, n = w, na
				}
				ldb := m + 2
				b0 := randSlice[T](rng, ldb*n)
				for _, uplo := range []Uplo{Upper, Lower} {
					for _, trans := range allTrans {
						for _, diag := range []Diag{NonUnit, Unit} {
							want := trsmRef(side, uplo, trans, diag, m, n, alpha, a, lda, b0, ldb)
							b := clone(b0)
							Trsm(tcfg(), side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
							got := lift(m, n, b, ldb)
							scale := 0.0
							for _, v := range want.v {
								scale = math.Max(scale, cmplx.Abs(v))
							}
							for i, v := range want.v {
								if d := cmplx.Abs(got.v[i] - v); !(d <= 2*float64(na)*core.Eps[T]()*scale) {
									t.Fatalf("order %d, %d right-hand sides, %v %v %v %v: element %d = %v, reference %v",
										na, w, side, uplo, trans, diag, i, got.v[i], v)
								}
							}
							for j := 0; j < n; j++ {
								if !diff.Same(b[j*ldb+m:(j+1)*ldb], b0[j*ldb+m:(j+1)*ldb]) {
									t.Fatalf("order %d, %d right-hand sides, %v %v %v %v: wrote the padding of column %d",
										na, w, side, uplo, trans, diag, j)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestTrsmLeaves(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("float64", testTrsmLeaves[float64])
		t.Run("float32", testTrsmLeaves[float32])
		t.Run("complex128", testTrsmLeaves[complex128])
		t.Run("complex64", testTrsmLeaves[complex64])
	})
}

// bigParts is v's components at 200 bits.
func bigParts[T core.Scalar](v T) (re, im *big.Float) {
	return new(big.Float).SetPrec(200).SetFloat64(core.Re(v)), new(big.Float).SetPrec(200).SetFloat64(core.Im(v))
}

// cmulAdd returns (sum + a·b, mag + the magnitudes of the four products)
// at 200 bits, sum and mag as [re, im] pairs; a is conjugated when conj is
// set.
func cmulAdd[T core.Scalar](sum, mag *[2]*big.Float, a, b T, conj bool) {
	ar, ai := bigParts(a)
	br, bi := bigParts(b)
	if conj {
		ai.Neg(ai)
	}
	mul := func(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(200).Mul(x, y) }
	rr, ii, ri, ir := mul(ar, br), mul(ai, bi), mul(ar, bi), mul(ai, br)
	sum[0].Add(sum[0], rr).Sub(sum[0], ii)
	sum[1].Add(sum[1], ri).Add(sum[1], ir)
	mag[0].Add(mag[0], rr.Abs(rr)).Add(mag[0], ii.Abs(ii))
	mag[1].Add(mag[1], ri.Abs(ri)).Add(mag[1], ir.Abs(ir))
}

func bigPair() *[2]*big.Float {
	return &[2]*big.Float{new(big.Float).SetPrec(200), new(big.Float).SetPrec(200)}
}

// offBy returns the error of got against the exact value want, component by
// component, in units of eps·mag: ulps at the scale of the terms summed.
func offBy[T core.Scalar](got T, want, mag *[2]*big.Float) float64 {
	worst := 0.0
	for c, g := range [2]float64{core.Re(got), core.Im(got)} {
		w, _ := want[c].Float64()
		m, _ := mag[c].Float64()
		if d := math.Abs(g - w); d > 0 {
			worst = math.Max(worst, d/(core.Eps[T]()*m))
		}
	}
	return worst
}

// testComplexLeaves checks the axpy, scal and dot entries of T's table row
// against their definitions evaluated exactly, for every length up to 67
// (every tail of the vector loops): axpy and scal to 2 ulp per component at
// the scale of their terms, dot to 2 ulp plus one per eight terms at the
// scale of the summed magnitudes. Length zero goes through the exported entry points.
func testComplexLeaves[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	k := kernelFor[T]()
	alpha := core.FromComplex[T](complex(-0.75, 0.5))
	y0 := randSlice[T](rng, 4)
	Axpy(0, alpha, nil, 1, y0, 1)
	if d := Dotc(0, []T(nil), 1, y0, 1); d != 0 {
		t.Fatalf("Dotc of length 0 = %v", d)
	}
	for n := 1; n <= 67; n++ {
		x, y := randSlice[T](rng, n), randSlice[T](rng, n+1)
		got := clone(y)
		k.axpy(alpha, x, got)
		for i := range x {
			want, mag := bigPair(), bigPair()
			cmulAdd(want, mag, 1, y[i], false)
			cmulAdd(want, mag, alpha, x[i], false)
			if u := offBy(got[i], want, mag); u > 2 {
				t.Fatalf("axpy n=%d: y[%d] = %v is %.2f ulp off", n, i, got[i], u)
			}
		}
		if got[n] != y[n] {
			t.Fatalf("axpy n=%d wrote past the end", n)
		}
		got = clone(y)
		k.scal(alpha, got[:n])
		for i := range x {
			want, mag := bigPair(), bigPair()
			cmulAdd(want, mag, alpha, y[i], false)
			if u := offBy(got[i], want, mag); u > 2 {
				t.Fatalf("scal n=%d: x[%d] = %v is %.2f ulp off", n, i, got[i], u)
			}
		}
		if got[n] != y[n] {
			t.Fatalf("scal n=%d wrote past the end", n)
		}
		for _, conj := range []bool{false, true} {
			want, mag := bigPair(), bigPair()
			for i := range x {
				cmulAdd(want, mag, x[i], y[i], conj)
			}
			if u := offBy(k.dot(x, y, conj), want, mag); u > 2+float64(n)/8 {
				t.Fatalf("dot n=%d conj=%v is %.2f ulp off", n, conj, u)
			}
		}
	}
}

// class is how a component propagates: finite, +Inf, −Inf or NaN.
func class(v float64) int {
	switch {
	case math.IsNaN(v):
		return 3
	case math.IsInf(v, 0):
		return 1 + int(math.Float64bits(v)>>63)
	}
	return 0
}

func sameClass[T core.Scalar](a, b T) bool {
	return class(core.Re(a)) == class(core.Re(b)) && class(core.Im(a)) == class(core.Im(b))
}

// testComplexLeavesNonFinite plants NaN, ±Inf and zeros in x, y and alpha, at
// every position of lengths that cover the vector body and each tail, and
// requires every component to come out finite, infinite or NaN exactly where
// the Go loops leave it so: no kernel skips a zero multiplier.
func testComplexLeavesNonFinite[T core.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k := kernelFor[T]()
	inf := math.Inf(1)
	specials := []complex128{complex(math.NaN(), 1), complex(inf, -2), complex(0.5, -inf), complex(inf, inf), 0}
	alphas := append([]complex128{complex(-0.75, 0.5), complex(0, 1), complex(1, 0)}, specials...)
	for _, n := range []int{1, 2, 3, 5, 9, 19} {
		for pos := 0; pos < n; pos++ {
			for _, sp := range specials {
				for inY := 0; inY < 2; inY++ {
					x, y := randSlice[T](rng, n), randSlice[T](rng, n)
					if inY == 1 {
						y[pos] = core.FromComplex[T](sp)
					} else {
						x[pos] = core.FromComplex[T](sp)
					}
					for _, al := range alphas {
						alpha := core.FromComplex[T](al)
						got, want := clone(y), clone(y)
						k.axpy(alpha, x, got)
						axpyGo(alpha, x, want)
						for i := range got {
							if !sameClass(got[i], want[i]) {
								t.Fatalf("axpy n=%d alpha=%v special %v at %d (in y: %d): y[%d] = %v, Go loop %v", n, al, sp, pos, inY, i, got[i], want[i])
							}
						}
						got, want = clone(y), clone(y)
						k.scal(alpha, got)
						scalGo(alpha, want)
						for i := range got {
							if !sameClass(got[i], want[i]) {
								t.Fatalf("scal n=%d alpha=%v special %v at %d: x[%d] = %v, Go loop %v", n, al, sp, pos, i, got[i], want[i])
							}
						}
					}
					for _, conj := range []bool{false, true} {
						if g, w := k.dot(x, y, conj), dotGo(x, y, conj); !sameClass(g, w) {
							t.Fatalf("dot n=%d conj=%v special %v at %d (in y: %d) = %v, Go loop %v", n, conj, sp, pos, inY, g, w)
						}
					}
				}
			}
		}
	}
}

func TestComplexLeaves(t *testing.T) {
	diff.Rows(t, func(t *testing.T) {
		t.Run("complex128", testComplexLeaves[complex128])
		t.Run("complex64", testComplexLeaves[complex64])
		t.Run("complex128/nonfinite", testComplexLeavesNonFinite[complex128])
		t.Run("complex64/nonfinite", testComplexLeavesNonFinite[complex64])
	})
}

// TestReflRows checks the row reflector leaves — what Hseqr sweeps H's rows
// with — on the asm row against the portable one: every column count 0…40
// (groups of four, the remainder, and the group held back when the last
// column's fourth row would lie past the slice), leading dimensions beyond
// the rows touched, agreement within 2 ulp of the largest term, and the rows
// above and below the three (two) active ones bit-identical afterwards.
func TestReflRows(t *testing.T) {
	if !asmF64() {
		t.Skip("no asm row")
	}
	rng := rand.New(rand.NewSource(19))
	const lead = 2 // rows above the active ones
	for _, rows := range []int{3, 2} {
		for _, ld := range []int{lead + rows, lead + rows + 1, lead + rows + 5} {
			for n := 0; n <= 40; n++ {
				full := make([]float64, ld*max(n, 1))
				for i := range full {
					full[i] = rng.NormFloat64()
				}
				v2, v3, t1 := rng.NormFloat64(), rng.NormFloat64(), 1+rng.Float64()
				t2, t3 := t1*v2, t1*v3
				// The slice ends with the last active row of the last column
				// when ld leaves no row below it.
				end := len(full)
				if n > 0 && ld == lead+rows {
					end = (n-1)*ld + lead + rows
				}
				run := func(k *kernel[float64]) []float64 {
					out := append([]float64(nil), full...)
					if n > 0 {
						if rows == 3 {
							k.refl3Rows(n, out[lead:end], ld, v2, v3, t1, t2, t3)
						} else {
							k.refl2Rows(n, out[lead:end], ld, v2, t1, t2)
						}
					}
					return out
				}
				got, want := run(&kernAsmF64), run(&kernGoF64)
				for j := 0; j < n; j++ {
					c := full[j*ld+lead:]
					sum := math.Abs(c[0]) + math.Abs(v2*c[1])
					if rows == 3 {
						sum += math.Abs(v3 * c[2])
					}
					for i := 0; i < ld; i++ {
						g, w := got[j*ld+i], want[j*ld+i]
						if i < lead || i >= lead+rows {
							if math.Float64bits(g) != math.Float64bits(full[j*ld+i]) || g != w {
								t.Fatalf("rows=%d ld=%d n=%d: neighbour (%d,%d) modified", rows, ld, n, i, j)
							}
							continue
						}
						ti := []float64{t1, t2, t3}[i-lead]
						if scale := math.Abs(c[i-lead]) + sum*math.Abs(ti); math.Abs(g-w) > 2*0x1p-52*scale {
							t.Fatalf("rows=%d ld=%d n=%d: (%d,%d) asm %v portable %v", rows, ld, n, i, j, g, w)
						}
					}
				}
			}
		}
	}
}

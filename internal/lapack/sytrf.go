package lapack

import (
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/core"
)

// This file holds the one Bunch–Kaufman implementation. Every routine takes
// herm: false is the symmetric family (A = U·D·Uᵀ, xSY*/xSP*; for complex
// element types the complex-symmetric factorization), true the Hermitian one
// (A = U·D·Uᴴ, xHE*/xHP*). The branch points are the same everywhere and are
// taken per column or per pivot, never per element: pivot candidates on the
// diagonal are compared by |Re| and diagonals are kept real (herm) vs Abs1;
// the vectors entering the panel Gemv products are conjugated around the
// call; the rank-1 step is 1/Re(d)·Her·ScalReal vs Div·Syr·Scal; the
// trailing Gemm and the Sytrs back-multiplications use ConjTrans vs TransT;
// and each variant keeps its own 2×2-pivot arithmetic. Real element types
// take the herm branch too when called through the He*/Hp* names: its
// rank-1 step (reciprocal formed in float64, Her) does not round like the
// symmetric one, and both are pinned bit for bit (TestBunchKaufmanGolden).
//
// The factorization is written once, for the Upper triangle. The point
// reflection P = J·A·J (J reverses 0..n−1) carries A's lower triangle onto
// P's upper one, and the Upper sweep over P, last column first, visits A's
// columns first to last and makes the Lower sweep's choices, so Lower runs
// the Upper body on a reflected copy (reflected). Upper was kept: every
// benchmarked solve runs it, and it was the faster sweep. Iamax takes the
// first of exactly equal candidates in P's order, the last in A's, so on
// exact ties Lower takes the last where reference LAPACK takes the first;
// otherwise pivots and INFO are LAPACK's and the factor agrees to rounding.
// Sytrs keeps both sweeps: a reflected solve would add an O(n²) pass to
// every refinement step and norm-estimator solve of the expert drivers.

// bkAlpha is the Bunch–Kaufman pivot threshold (1+sqrt(17))/8.
var bkAlpha = (1 + math.Sqrt(17)) / 8

// absDiag is the magnitude a diagonal pivot candidate is compared by.
func absDiag[T core.Scalar](herm bool, v T) float64 {
	if herm {
		return math.Abs(core.Re(v))
	}
	return core.Abs1(v)
}

// realPart returns v with its imaginary part dropped.
func realPart[T core.Scalar](v T) T { return core.FromFloat[T](core.Re(v)) }

// realDiag drops the imaginary parts a Hermitian update leaves on the
// diagonal of the n×n matrix a.
func realDiag[T core.Scalar](n int, a []T, lda int) {
	for j := 0; j < n; j++ {
		a[j+j*lda] = realPart(a[j+j*lda])
	}
}

// reflected factors the Lower triangle of the leading n×n block of a by
// running upper, an Upper factorization of p (leading dimension ldp) into
// ipiv, on the point reflection P in pooled scratch. The factor is copied
// back reflected (a's strictly upper triangle is never written), each row
// index q in ipiv maps to n−1−q in reverse order, and INFO i ≠ 0 to n−i+1.
// ldp is an odd multiple of 8, so from n = 8 on no walk along a row of P
// strides a power of two (lda = 1024 costs the Upper sweep 10–20 %).
func reflected[T core.Scalar](n int, a []T, lda int, ipiv []int, upper func(p []T, ldp int) int) int {
	ldp := (n+8)/16*16 + 8
	p := blas.GetScratch[T](n * ldp)
	defer blas.PutScratch(p)
	for j := 0; j < n; j++ {
		revCopy(p[(n-1-j)*ldp:(n-1-j)*ldp+n-j], a[j+j*lda:n+j*lda])
	}
	info := upper(p, ldp)
	for j := 0; j < n; j++ {
		revCopy(a[j+j*lda:n+j*lda], p[(n-1-j)*ldp:(n-1-j)*ldp+n-j])
	}
	for k, q := range ipiv[:n] {
		ipiv[k] = n - 1 - q
		if q < 0 {
			ipiv[k] = -(n + q + 1) // a 2×2 mark -(q'+1) ↦ -(n-q')
		}
	}
	slices.Reverse(ipiv[:n])
	if info != 0 {
		info = n - info + 1
	}
	return info
}

// revCopy sets d[i] = s[len(s)-1-i], eight at a time (2× a per-element loop).
func revCopy[T core.Scalar](d, s []T) {
	for len(s) >= 8 && len(d) >= 8 {
		s8, d8 := s[len(s)-8:], d[:8]
		d8[0], d8[1], d8[2], d8[3], d8[4], d8[5], d8[6], d8[7] = s8[7], s8[6], s8[5], s8[4], s8[3], s8[2], s8[1], s8[0]
		s, d = s[:len(s)-8], d[8:]
	}
	for i := range d {
		d[i] = s[len(s)-1-i]
	}
}

// Sytf2 computes the Bunch–Kaufman factorization A = U·D·Uᵀ or A = L·D·Lᵀ
// of a symmetric matrix (xSYTF2; for complex element types this is the
// complex-symmetric factorization, not the Hermitian one — see Hetf2).
//
// Pivots are encoded in ipiv as in LAPACK, translated to 0-based indices:
// ipiv[k] >= 0 means a 1×1 pivot with rows/columns k and ipiv[k]
// interchanged; ipiv[k] = ipiv[k-1] = -(p+1) < 0 (Upper; k and k+1 for
// Lower) marks a 2×2 pivot block with row p interchanged.
// Returns k+1 (1-based) if D(k,k) is exactly singular.
func Sytf2[T core.Scalar](uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return sytf2(false, uplo, n, a, lda, ipiv)
}

// Hetf2 computes the Bunch–Kaufman factorization A = U·D·Uᴴ or A = L·D·Lᴴ
// of a Hermitian matrix (xHETF2). Pivot encoding and the info return follow
// Sytf2.
func Hetf2[T core.Scalar](uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return sytf2(true, uplo, n, a, lda, ipiv)
}

func sytf2[T core.Scalar](herm bool, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	if uplo == Lower {
		return reflected(n, a, lda, ipiv, func(p []T, ldp int) int { return sytf2(herm, Upper, n, p, ldp, ipiv) })
	}
	info := 0
	at := func(i, j int) T { return a[i+j*lda] }
	set := func(i, j int, v T) { a[i+j*lda] = v }
	// fixDiag drops the imaginary parts the Hermitian variant ignores from
	// the diagonal entries a pivot step has read or moved.
	fixDiag := func(idx ...int) {
		if herm {
			for _, i := range idx {
				set(i, i, realPart(at(i, i)))
			}
		}
	}
	one := core.FromFloat[T](1)
	for k := n - 1; k >= 0; {
		kstep := 1
		kp := k
		absakk := absDiag(herm, at(k, k))
		imax, colmax := 0, 0.0
		if k > 0 {
			imax = blas.Iamax(k, a[k*lda:], 1)
			colmax = core.Abs1(at(imax, k))
		}
		if math.Max(absakk, colmax) == 0 {
			if info == 0 {
				info = k + 1
			}
			fixDiag(k)
		} else {
			if absakk >= bkAlpha*colmax {
				kp = k
			} else {
				rowmax := 0.0
				for j := imax + 1; j <= k; j++ {
					rowmax = math.Max(rowmax, core.Abs1(at(imax, j)))
				}
				if imax > 0 {
					jmax := blas.Iamax(imax, a[imax*lda:], 1)
					rowmax = math.Max(rowmax, core.Abs1(at(jmax, imax)))
				}
				if absakk >= bkAlpha*colmax*(colmax/rowmax) {
					kp = k
				} else if absDiag(herm, at(imax, imax)) >= bkAlpha*rowmax {
					kp = imax
				} else {
					kp = imax
					kstep = 2
				}
			}
			kk := k - kstep + 1
			if kp != kk {
				blas.Swap(kp, a[kk*lda:], 1, a[kp*lda:], 1)
				blas.Swap(kk-kp-1, a[kp+1+kk*lda:], 1, a[kp+(kp+1)*lda:], lda)
				if herm {
					lacgv(kk-kp-1, a[kp+1+kk*lda:], 1)
					lacgv(kk-kp-1, a[kp+(kp+1)*lda:], lda)
					set(kp, kk, core.Conj(at(kp, kk)))
				}
				t := at(kk, kk)
				set(kk, kk, at(kp, kp))
				set(kp, kp, t)
				if kstep == 2 {
					t = at(k-1, k)
					set(k-1, k, at(kp, k))
					set(kp, k, t)
				}
			}
			fixDiag(k, kk, kp)
			switch {
			case kstep == 1 && herm:
				r1 := 1 / core.Re(at(k, k))
				blas.Her(Upper, k, -r1, a[k*lda:], 1, a, lda)
				blas.ScalReal(k, r1, a[k*lda:], 1)
			case kstep == 1:
				r1 := core.Div(one, at(k, k))
				blas.Syr(Upper, k, -r1, a[k*lda:], 1, a, lda)
				blas.Scal(k, r1, a[k*lda:], 1)
			case k > 1 && herm:
				d := core.Abs(at(k-1, k))
				d22 := core.Re(at(k-1, k-1)) / d
				d11 := core.Re(at(k, k)) / d
				tt := 1 / (d11*d22 - 1)
				d12 := core.FromComplex[T](core.ToComplex(at(k-1, k)) / complex(d, 0))
				dd := core.FromFloat[T](tt / d)
				for j := k - 2; j >= 0; j-- {
					wkm1 := dd * (core.FromFloat[T](d11)*at(j, k-1) - core.Conj(d12)*at(j, k))
					wk := dd * (core.FromFloat[T](d22)*at(j, k) - d12*at(j, k-1))
					for i := j; i >= 0; i-- {
						set(i, j, at(i, j)-at(i, k)*core.Conj(wk)-at(i, k-1)*core.Conj(wkm1))
					}
					set(j, k, wk)
					set(j, k-1, wkm1)
					set(j, j, realPart(at(j, j)))
				}
			case k > 1:
				d12 := at(k-1, k)
				d22 := core.Div(at(k-1, k-1), d12)
				d11 := core.Div(at(k, k), d12)
				t := core.Div(one, d11*d22-one)
				d12 = core.Div(t, d12)
				for j := k - 2; j >= 0; j-- {
					wkm1 := d12 * (d11*at(j, k-1) - at(j, k))
					wk := d12 * (d22*at(j, k) - at(j, k-1))
					for i := j; i >= 0; i-- {
						set(i, j, at(i, j)-at(i, k)*wk-at(i, k-1)*wkm1)
					}
					set(j, k, wk)
					set(j, k-1, wkm1)
				}
			}
		}
		if kstep == 1 {
			ipiv[k] = kp
		} else {
			ipiv[k] = -(kp + 1)
			ipiv[k-1] = -(kp + 1)
		}
		k -= kstep
	}
	return info
}

// lasyf factors the last panel of the Upper triangle of a symmetric or
// Hermitian matrix with the Bunch–Kaufman pivoting strategy and applies the
// panel's transformations to the rest of the matrix with Level-3 updates
// (xLASYF / xLAHEF; Sytrf reaches Lower through the reflection). w is an
// n×nb workspace holding the updated panel columns (the columns of U·D); kb
// is the number of columns actually factored — possibly nb-1, and one less
// than requested when the last pivot turned out 2×2. Pivots in ipiv and the
// info return follow Sytf2.
func lasyf[T core.Scalar](cfg *core.Config, herm bool, n, nb int, a []T, lda int, ipiv []int, w []T, ldw int) (kb, info int) {
	one := core.FromFloat[T](1)
	trans := TransT
	if herm {
		trans = ConjTrans
	}
	// update computes y -= A·xᵀ for a row x of w (stride ldw) — A·xᴴ when
	// herm, by conjugating x around the product — and, when herm, drops the
	// imaginary part the product leaves in the diagonal entry *diag.
	update := func(m, cols int, ap []T, x []T, y []T, diag *T) {
		if herm {
			lacgv(cols, x, ldw)
		}
		blas.Gemv(cfg, NoTrans, m, cols, -one, ap, lda, x, ldw, one, y, 1)
		if herm {
			lacgv(cols, x, ldw)
			*diag = realPart(*diag)
		}
	}
	// Factor columns n-1 down to at most n-nb+1, storing updated columns in
	// the trailing columns of w: A column k lives in w column kw = nb-n+k.
	k := n - 1
	for !((k <= n-nb && nb < n) || k < 0) {
		kw := nb - n + k
		// Copy column k and apply the updates from the columns already
		// factored in this panel.
		blas.Copy(k+1, a[k*lda:], 1, w[kw*ldw:], 1)
		if herm {
			w[k+kw*ldw] = realPart(w[k+kw*ldw])
		}
		if k < n-1 {
			update(k+1, n-1-k, a[(k+1)*lda:], w[k+(kw+1)*ldw:], w[kw*ldw:], &w[k+kw*ldw])
		}
		kstep := 1
		absakk := absDiag(herm, w[k+kw*ldw])
		imax, colmax := 0, 0.0
		if k > 0 {
			imax = blas.Iamax(k, w[kw*ldw:], 1)
			colmax = core.Abs1(w[imax+kw*ldw])
		}
		kp := k
		if math.Max(absakk, colmax) == 0 {
			if info == 0 {
				info = k + 1
			}
			blas.Copy(k+1, w[kw*ldw:], 1, a[k*lda:], 1)
		} else {
			if absakk < bkAlpha*colmax {
				// Build the updated column imax in w column kw-1 to run
				// the rook-style comparison against its row maximum:
				// rows above the diagonal from the column, rows below
				// from the (conjugated, when herm) row.
				blas.Copy(imax+1, a[imax*lda:], 1, w[(kw-1)*ldw:], 1)
				for j := imax + 1; j <= k; j++ {
					w[j+(kw-1)*ldw] = a[imax+j*lda]
				}
				if herm {
					w[imax+(kw-1)*ldw] = realPart(w[imax+(kw-1)*ldw])
					lacgv(k-imax, w[imax+1+(kw-1)*ldw:], 1)
				}
				if k < n-1 {
					update(k+1, n-1-k, a[(k+1)*lda:], w[imax+(kw+1)*ldw:], w[(kw-1)*ldw:], &w[imax+(kw-1)*ldw])
				}
				jmax := imax + 1 + blas.Iamax(k-imax, w[imax+1+(kw-1)*ldw:], 1)
				rowmax := core.Abs1(w[jmax+(kw-1)*ldw])
				if imax > 0 {
					jmax = blas.Iamax(imax, w[(kw-1)*ldw:], 1)
					rowmax = math.Max(rowmax, core.Abs1(w[jmax+(kw-1)*ldw]))
				}
				switch {
				case absakk >= bkAlpha*colmax*(colmax/rowmax):
					// kp = k: 1×1 pivot, no interchange.
				case absDiag(herm, w[imax+(kw-1)*ldw]) >= bkAlpha*rowmax:
					kp = imax
					blas.Copy(k+1, w[(kw-1)*ldw:], 1, w[kw*ldw:], 1)
				default:
					kp = imax
					kstep = 2
				}
			}
			kk := k - kstep + 1
			kkw := nb - n + kk
			if kp != kk {
				// Move row/column kk of the leading block to position kp
				// (column kk's data survives in w).
				a[kp+kp*lda] = a[kk+kk*lda]
				for j := kp + 1; j < kk; j++ {
					a[kp+j*lda] = a[j+kk*lda]
				}
				if herm {
					a[kp+kp*lda] = realPart(a[kp+kp*lda])
					lacgv(kk-kp-1, a[kp+(kp+1)*lda:], lda)
				}
				if kp > 0 {
					blas.Copy(kp, a[kk*lda:], 1, a[kp*lda:], 1)
				}
				if k < n-1 {
					blas.Swap(n-1-k, a[kk+(k+1)*lda:], lda, a[kp+(k+1)*lda:], lda)
				}
				blas.Swap(n-kk, w[kk+kkw*ldw:], ldw, w[kp+kkw*ldw:], ldw)
			}
			if kstep == 1 {
				// Store U(:,k) = w(:,kw)/d(k,k).
				blas.Copy(k+1, w[kw*ldw:], 1, a[k*lda:], 1)
				if herm {
					blas.ScalReal(k, 1/core.Re(a[k+k*lda]), a[k*lda:], 1)
				} else {
					blas.Scal(k, core.Div(one, a[k+k*lda]), a[k*lda:], 1)
				}
			} else {
				// 2×2 pivot in rows/columns k-1:k (herm: D = [d11̂ d12;
				// conj(d12) d22̂]); store the two columns of U = W·D⁻¹.
				if k > 1 {
					d12 := w[k-1+kw*ldw]
					d22 := core.Div(w[k-1+(kw-1)*ldw], d12)
					var d11, d12c T
					if herm {
						d11 = core.Div(w[k+kw*ldw], core.Conj(d12))
						d12 = core.Div(core.FromFloat[T](1/(core.Re(d11*d22)-1)), d12)
						d12c = core.Conj(d12)
					} else {
						d11 = core.Div(w[k+kw*ldw], d12)
						d12 = core.Div(core.Div(one, d11*d22-one), d12)
						d12c = d12
					}
					for j := 0; j < k-1; j++ {
						a[j+(k-1)*lda] = d12 * (d11*w[j+(kw-1)*ldw] - w[j+kw*ldw])
						a[j+k*lda] = d12c * (d22*w[j+kw*ldw] - w[j+(kw-1)*ldw])
					}
				}
				a[k-1+(k-1)*lda] = w[k-1+(kw-1)*ldw]
				a[k-1+k*lda] = w[k-1+kw*ldw]
				a[k+k*lda] = w[k+kw*ldw]
			}
		}
		if kstep == 1 {
			ipiv[k] = kp
		} else {
			ipiv[k] = -(kp + 1)
			ipiv[k-1] = -(kp + 1)
		}
		k -= kstep
	}
	// Level-3 update of the unfactored leading block
	// A(0:k+1, 0:k+1) -= U12·(D·U12ᵀ) (ᴴ when herm, keeping the diagonal
	// real): one triangle update per panel.
	kRem := k + 1
	kwr := nb - n + kRem
	blas.Gemmt(cfg, Upper, NoTrans, trans, kRem, n-kRem, -one, a[kRem*lda:], lda,
		w[kwr*ldw:], ldw, one, a, lda)
	if herm {
		realDiag(kRem, a, lda)
	}
	// Put U12 in standard form: partially undo the interchanges in the
	// factored columns so Sytrs can apply ipiv sequentially.
	for j := kRem; j < n; {
		jj := j
		jp := ipiv[j]
		if jp < 0 {
			jp = -jp - 1
			j++
		}
		j++
		if jp != jj && j < n {
			blas.Swap(n-j, a[jp+j*lda:], lda, a[jj+j*lda:], lda)
		}
	}
	return n - kRem, info
}

// Sytrf computes the Bunch–Kaufman factorization of a symmetric matrix
// (xSYTRF): panels are factored with lasyf so the bulk of the update flops
// run as one Level-3 triangle update per panel, with an unblocked Sytf2
// cleanup on the last sub-panel block.
func Sytrf[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return sytrf(cfg, false, uplo, n, a, lda, ipiv)
}

// Hetrf computes the Bunch–Kaufman factorization of a Hermitian matrix
// (xHETRF), blocked like Sytrf.
func Hetrf[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return sytrf(cfg, true, uplo, n, a, lda, ipiv)
}

func sytrf[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	if uplo == Lower {
		return reflected(n, a, lda, ipiv, func(p []T, ldp int) int { return sytrf(cfg, herm, Upper, n, p, ldp, ipiv) })
	}
	nb := Ilaenv(1, "SYTRF", n, -1, -1, -1) // HETRF's is the same
	if nb >= n {
		return sytf2(herm, Upper, n, a, lda, ipiv)
	}
	info := 0
	// lasyf writes every element of w it reads, so the panel workspace is
	// pooled scratch.
	w := blas.GetScratch[T](n * nb)
	defer blas.PutScratch(w)
	// Peel panels off the trailing columns; the leading block shrinks.
	for k := n; k > 0; {
		if k <= nb {
			if iinfo := sytf2(herm, Upper, k, a, lda, ipiv[:k]); iinfo != 0 && info == 0 {
				info = iinfo
			}
			break
		}
		kb, iinfo := lasyf(cfg, herm, k, nb, a, lda, ipiv, w, n)
		if iinfo != 0 && info == 0 {
			info = iinfo
		}
		k -= kb
	}
	return info
}

// Sytrs solves A·X = B using the factorization from Sytrf (xSYTRS).
func Sytrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	sytrs(cfg, false, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Hetrs solves A·X = B using the Hermitian factorization from Hetrf
// (xHETRS).
func Hetrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	sytrs(cfg, true, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

func sytrs[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	if n == 0 || nrhs == 0 {
		return
	}
	one := core.FromFloat[T](1)
	at := func(i, j int) T { return a[i+j*lda] }
	// scalRow applies the inverse of the 1×1 pivot d to row k of B.
	scalRow := func(k int, d T) {
		if herm {
			blas.ScalReal(nrhs, 1/core.Re(d), b[k:], ldb)
		} else {
			blas.Scal(nrhs, core.Div(one, d), b[k:], ldb)
		}
	}
	// solve2 applies the inverse of the 2×2 pivot [p off; offᴴ q] (offᵀ for
	// the symmetric variant) to rows r and r+1 of B; off is the stored
	// off-diagonal entry, which sits in row r for Upper and r+1 for Lower.
	solve2 := func(r int, p, q, off T) {
		offP, offQ := off, off
		if herm && uplo == Upper {
			offQ = core.Conj(off)
		} else if herm {
			offP = core.Conj(off)
		}
		akm1 := core.Div(p, offP)
		ak := core.Div(q, offQ)
		denom := akm1*ak - one
		for j := 0; j < nrhs; j++ {
			bkm1 := core.Div(b[r+j*ldb], offP)
			bk := core.Div(b[r+1+j*ldb], offQ)
			b[r+j*ldb] = core.Div(ak*bkm1-bk, denom)
			b[r+1+j*ldb] = core.Div(akm1*bk-bkm1, denom)
		}
	}
	// backMul computes B(k,:) -= xᵀ·B(rows,:) for a column x of the factor
	// (xᴴ when herm, by conjugating the row around a ConjTrans product).
	trans := TransT
	if herm {
		trans = ConjTrans
	}
	backMul := func(k, m int, rows, x []T) {
		if herm {
			lacgv(nrhs, b[k:], ldb)
		}
		blas.Gemv(cfg, trans, m, nrhs, -one, rows, ldb, x, 1, one, b[k:], ldb)
		if herm {
			lacgv(nrhs, b[k:], ldb)
		}
	}
	if uplo == Upper {
		// First solve U·D·x' = b, walking the blocks from the bottom.
		for k := n - 1; k >= 0; {
			if ipiv[k] >= 0 {
				if kp := ipiv[k]; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				blas.Ger(k, nrhs, -one, a[k*lda:], 1, b[k:], ldb, b, ldb)
				scalRow(k, at(k, k))
				k--
			} else {
				if kp := -ipiv[k] - 1; kp != k-1 {
					blas.Swap(nrhs, b[k-1:], ldb, b[kp:], ldb)
				}
				blas.Ger(k-1, nrhs, -one, a[k*lda:], 1, b[k:], ldb, b, ldb)
				blas.Ger(k-1, nrhs, -one, a[(k-1)*lda:], 1, b[k-1:], ldb, b, ldb)
				solve2(k-1, at(k-1, k-1), at(k, k), at(k-1, k))
				k -= 2
			}
		}
		// Then multiply by inv(Uᵀ), walking the blocks from the top.
		for k := 0; k < n; {
			backMul(k, k, b, a[k*lda:])
			if ipiv[k] >= 0 {
				if kp := ipiv[k]; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				k++
			} else {
				backMul(k+1, k, b, a[(k+1)*lda:])
				if kp := -ipiv[k] - 1; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				k += 2
			}
		}
		return
	}
	// Lower: solve L·D·x' = b from the top...
	for k := 0; k < n; {
		if ipiv[k] >= 0 {
			if kp := ipiv[k]; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			if k < n-1 {
				blas.Ger(n-k-1, nrhs, -one, a[k+1+k*lda:], 1, b[k:], ldb, b[k+1:], ldb)
			}
			scalRow(k, at(k, k))
			k++
		} else {
			if kp := -ipiv[k] - 1; kp != k+1 {
				blas.Swap(nrhs, b[k+1:], ldb, b[kp:], ldb)
			}
			if k < n-2 {
				blas.Ger(n-k-2, nrhs, -one, a[k+2+k*lda:], 1, b[k:], ldb, b[k+2:], ldb)
				blas.Ger(n-k-2, nrhs, -one, a[k+2+(k+1)*lda:], 1, b[k+1:], ldb, b[k+2:], ldb)
			}
			solve2(k, at(k, k), at(k+1, k+1), at(k+1, k))
			k += 2
		}
	}
	// ...then multiply by inv(Lᵀ) from the bottom.
	for k := n - 1; k >= 0; {
		if k < n-1 {
			backMul(k, n-k-1, b[k+1:], a[k+1+k*lda:])
		}
		if ipiv[k] >= 0 {
			if kp := ipiv[k]; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			k--
		} else {
			// 2×2 block occupying rows k-1 and k.
			if k < n-1 {
				backMul(k-1, n-k-1, b[k+1:], a[k+1+(k-1)*lda:])
			}
			if kp := -ipiv[k] - 1; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			k -= 2
		}
	}
}

// Sysv solves A·X = B for a symmetric indefinite matrix (the xSYSV driver).
func Sysv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	return sysv(cfg, false, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Hesv solves A·X = B for a Hermitian indefinite matrix (the xHESV driver).
func Hesv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	return sysv(cfg, true, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

func sysv[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	info := sytrf(cfg, herm, uplo, n, a, lda, ipiv)
	if info == 0 {
		sytrs(cfg, herm, uplo, n, nrhs, a, lda, ipiv, b, ldb)
	}
	return info
}

// sySystem describes the uplo triangle of the dense symmetric (herm false)
// or Hermitian indefinite matrix a to the expert pipeline (expert.go), with
// its Bunch–Kaufman factorization in af/ipiv.
func sySystem[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n int, a []T, lda int, af []T, ldaf int, ipiv []int) *system[T] {
	mv := blas.Symv[T]
	if herm {
		mv = blas.Hemv[T]
	}
	return &system[T]{
		n: n, sym: true,
		cols: triSeg(uplo, n, a, lda, -1),
		factor: func() int {
			Lacpy('A', n, n, a, lda, af, ldaf)
			return sytrf(cfg, herm, uplo, n, af, ldaf, ipiv)
		},
		solve: func(_ Trans, nrhs int, x []T, ldx int) { sytrs(cfg, herm, uplo, n, nrhs, af, ldaf, ipiv, x, ldx) },
		mul:   func(_ Trans, alpha T, x []T, beta T, y []T) { mv(uplo, n, alpha, a, lda, x, 1, beta, y, 1) },
	}
}

// Sysvx is the expert driver for symmetric indefinite systems (xSYSVX); see
// Gesvx. There is no equilibration step.
func Sysvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(sySystem(cfg, false, uplo, n, a, lda, af, ldaf, ipiv), fact, NoTrans, nrhs, b, ldb, x, ldx)
}

// Hesvx is the expert driver for Hermitian indefinite systems (xHESVX).
func Hesvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(sySystem(cfg, true, uplo, n, a, lda, af, ldaf, ipiv), fact, NoTrans, nrhs, b, ldb, x, ldx)
}

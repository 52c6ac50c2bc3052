package lapack

import (
	"repro/internal/blas"
	"repro/internal/core"
)

// Getf2 computes the unblocked LU factorization with partial pivoting of an
// m×n matrix: A = P·L·U (xGETF2). ipiv must have length min(m, n); ipiv[i]
// is the 0-based row interchanged with row i. The return value is the
// LAPACK info code: 0 on success, k+1 if U(k,k) is exactly zero (1-based,
// factorization completed but U is singular).
func Getf2[T core.Scalar](m, n int, a []T, lda int, ipiv []int) int {
	info := 0
	mn := min(m, n)
	for j := 0; j < mn; j++ {
		// Pivot: largest |re|+|im| in column j at or below the diagonal.
		p := j + blas.Iamax(m-j, a[j+j*lda:], 1)
		ipiv[j] = p
		if a[p+j*lda] != 0 {
			if p != j {
				blas.Swap(n, a[j:], lda, a[p:], lda)
			}
			if j < m-1 {
				// Reciprocal-multiply only when 1/pivot cannot overflow
				// (|pivot| ≥ SafeMin); a subnormal pivot divides
				// elementwise instead, as in xGETF2.
				piv := a[j+j*lda]
				if core.Abs1(piv) >= core.SafeMin[T]() {
					inv := core.Div(core.FromFloat[T](1), piv)
					blas.Scal(m-j-1, inv, a[j+1+j*lda:], 1)
				} else {
					for i := j + 1; i < m; i++ {
						a[i+j*lda] = core.Div(a[i+j*lda], piv)
					}
				}
			}
		} else if info == 0 {
			info = j + 1
		}
		if j < mn-1 || n > m {
			// Trailing update A[j+1:m, j+1:n] -= l_j * u_jᵀ.
			if j < m-1 && j < n-1 {
				blas.Ger(m-j-1, n-j-1, core.FromFloat[T](-1),
					a[j+1+j*lda:], 1, a[j+(j+1)*lda:], lda, a[j+1+(j+1)*lda:], lda)
			}
		}
	}
	return info
}

// Getrf2 computes the LU factorization with partial pivoting of an m×n
// matrix by recursion on the column count (LAPACK ≥3.6 xGETRF2): the left
// half is factored recursively, the right half is updated with one Trsm and
// one Gemm, and the trailing block recurses. Every flop beyond the tiny
// Getf2 leaves therefore runs on the Level-3 engine, which is what makes it
// suitable as the panel kernel of the blocked Getrf. Semantics (ipiv, info)
// are identical to Getf2.
func Getrf2[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, ipiv []int) int {
	mn := min(m, n)
	if mn == 0 {
		return 0
	}
	if leaf := Ilaenv(1, "GETRF2", m, n, -1, -1); n <= leaf || m == 1 {
		return Getf2(m, n, a, lda, ipiv)
	}
	one := core.FromFloat[T](1)
	// [ A11 A12 ]   n1 = mn/2 columns on the left.
	// [ A21 A22 ]
	n1 := mn / 2
	n2 := n - n1
	info := Getrf2(cfg, m, n1, a, lda, ipiv[:n1])
	// Apply the left-half interchanges to the right half, solve the U12
	// block row, and update A22.
	Laswp(n2, a[n1*lda:], lda, 0, n1, ipiv)
	blas.Trsm(cfg, Left, Lower, NoTrans, Unit, n1, n2, one, a, lda, a[n1*lda:], lda)
	if m > n1 {
		blas.Gemm(cfg, NoTrans, NoTrans, m-n1, n2, n1, -one,
			a[n1:], lda, a[n1*lda:], lda, one, a[n1+n1*lda:], lda)
		// Factor A22 recursively and pull its interchanges across A21.
		if iinfo := Getrf2(cfg, m-n1, n2, a[n1+n1*lda:], lda, ipiv[n1:mn]); iinfo != 0 && info == 0 {
			info = iinfo + n1
		}
		for k := n1; k < mn; k++ {
			ipiv[k] += n1
		}
		Laswp(n1, a, lda, n1, mn, ipiv)
	}
	return info
}

// Getrf computes the LU factorization with partial pivoting of an m×n
// matrix using the blocked right-looking algorithm (xGETRF) with recursive
// (Level-3) panels and a static depth-1 lookahead: while the bulk of the
// trailing matrix absorbs the Gemm update for panel j, the next panel —
// whose columns are updated first — is already being factored on a second
// worker. A Threads budget of 1 runs the serial schedule, which executes the
// exact same partitioned updates in order, so results are bit-identical
// pipelined or not, and identical to earlier non-pipelined versions of this
// routine. Semantics are identical to Getf2.
func Getrf[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, ipiv []int) int {
	cfg = core.Cfg(cfg)
	mn := min(m, n)
	if mn == 0 {
		return 0
	}
	if blas.SmallOK(max(m, n)) {
		// The whole problem sits under the pack-free crossover: one leaf per
		// block step beats both the recursion and the blocked loop there
		// (see smalllu.go).
		return getrfSmall(m, n, a, lda, ipiv)
	}
	nb := Ilaenv(1, "GETRF", m, n, -1, -1)
	if nb >= mn {
		return Getrf2(cfg, m, n, a, lda, ipiv)
	}
	// The blocked loop lives in a helper whose cfg parameter is never
	// reassigned: its lookahead closures then capture cfg by value, so the
	// small and recursive paths above stay allocation-free.
	return getrfBlocked(cfg, m, n, a, lda, ipiv, nb)
}

// getrfBlocked is the blocked right-looking loop of Getrf with the depth-1
// lookahead pipeline; cfg is already nil-normalized.
func getrfBlocked[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, ipiv []int, nb int) int {
	mn := min(m, n)
	info := 0
	one := core.FromFloat[T](1)
	pipelined := cfg.Threads > 1
	// The lookahead panel runs beside the trailing update's tile group on one
	// worker of its own: groups opened inside it would only oversubscribe the
	// CPUs. When it is done its CPU joins the update, whose tiles are
	// claimed, not dealt out in advance (blas/parallel.go).
	panelCfg := cfg
	if pipelined {
		panelCfg = cfg.With(func(c *core.Config) { c.Threads = 1 })
	}
	// The first panel has no pending update; factor it up front so that each
	// loop iteration below starts with panel j already factored (either here
	// or by the lookahead task of the previous iteration).
	if iinfo := Getrf2(cfg, m, min(nb, mn), a, lda, ipiv[:min(nb, mn)]); iinfo != 0 {
		info = iinfo
	}
	for j := 0; j < mn; j += nb {
		// Cancellation checkpoint: once per panel, between pivot sweeps.
		cfg.Checkpoint()
		jb := min(nb, mn-j)
		// Convert panel-local pivots to global row indices.
		for k := j; k < j+jb; k++ {
			ipiv[k] += j
		}
		// Apply interchanges to the columns left of the panel...
		Laswp(j, a, lda, j, j+jb, ipiv)
		if j+jb >= n {
			continue
		}
		// ...and to the right of the panel.
		Laswp(n-j-jb, a[(j+jb)*lda:], lda, j, j+jb, ipiv)
		// U block row: solve L11 * U12 = A12.
		blas.Trsm(cfg, Left, Lower, NoTrans, Unit, jb, n-j-jb, one,
			a[j+j*lda:], lda, a[j+(j+jb)*lda:], lda)
		if j+jb >= m {
			continue
		}
		// Trailing submatrix update A22 -= L21 * U12, partitioned so the
		// next panel's pb columns complete first; the panel factorization
		// then overlaps the update of the remaining columns.
		p := j + jb
		pb := min(nb, mn-p)
		blas.Gemm(cfg, NoTrans, NoTrans, m-p, pb, jb, -one,
			a[p+j*lda:], lda, a[j+p*lda:], lda, one, a[p+p*lda:], lda)
		pinfo := 0
		factorNext := func() {
			pinfo = Getrf2(panelCfg, m-p, pb, a[p+p*lda:], lda, ipiv[p:p+pb])
		}
		updateRest := func() {
			if rest := n - p - pb; rest > 0 {
				blas.Gemm(cfg, NoTrans, NoTrans, m-p, rest, jb, -one,
					a[p+j*lda:], lda, a[j+(p+pb)*lda:], lda, one,
					a[p+(p+pb)*lda:], lda)
			}
		}
		// The two tasks touch disjoint column ranges of the trailing matrix.
		if pipelined {
			blas.Fork(cfg, updateRest, factorNext)
		} else {
			factorNext()
			updateRest()
		}
		if pinfo != 0 && info == 0 {
			info = pinfo + p
		}
	}
	return info
}

// Getrs solves op(A)·X = B using the LU factorization from Getrf (xGETRS).
// B is n×nrhs and is overwritten with X.
func Getrs[T core.Scalar](cfg *core.Config, trans Trans, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	if n == 0 || nrhs == 0 {
		return
	}
	if trans == NoTrans && nrhs < 8 && blas.SmallOK(n) {
		// Narrow right-hand sides under the small crossover: direct
		// substitution, skipping the Trsm recursion entirely.
		getrsSmall(n, nrhs, a, lda, ipiv, b, ldb)
		return
	}
	one := core.FromFloat[T](1)
	if trans == NoTrans {
		Laswp(nrhs, b, ldb, 0, n, ipiv)
		blas.Trsm(cfg, Left, Lower, NoTrans, Unit, n, nrhs, one, a, lda, b, ldb)
		blas.Trsm(cfg, Left, Upper, NoTrans, NonUnit, n, nrhs, one, a, lda, b, ldb)
		return
	}
	blas.Trsm(cfg, Left, Upper, trans, NonUnit, n, nrhs, one, a, lda, b, ldb)
	blas.Trsm(cfg, Left, Lower, trans, Unit, n, nrhs, one, a, lda, b, ldb)
	LaswpInv(nrhs, b, ldb, 0, n, ipiv)
}

// Gesv solves A·X = B for a general n×n matrix by LU factorization with
// partial pivoting (the xGESV driver). On exit a holds the factors and b
// holds the solution. The info return follows LAPACK: 0 on success, i > 0
// when U(i,i) is exactly zero so no solution was computed.
func Gesv[T core.Scalar](cfg *core.Config, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	info := Getrf(cfg, n, n, a, lda, ipiv)
	if info == 0 {
		Getrs(cfg, NoTrans, n, nrhs, a, lda, ipiv, b, ldb)
	}
	return info
}

// Trti2 computes the unblocked inverse of a triangular matrix in place
// (xTRTI2). Returns i > 0 if the matrix is singular with zero A(i,i).
func Trti2[T core.Scalar](uplo Uplo, diag Diag, n int, a []T, lda int) int {
	for j := 0; j < n; j++ {
		if diag == NonUnit && a[j+j*lda] == 0 {
			return j + 1
		}
	}
	one := core.FromFloat[T](1)
	if uplo == Upper {
		for j := 0; j < n; j++ {
			var ajj T
			if diag == NonUnit {
				a[j+j*lda] = core.Div(one, a[j+j*lda])
				ajj = -a[j+j*lda]
			} else {
				ajj = -one
			}
			// Compute elements 0..j-1 of column j.
			blas.Trmv(Upper, NoTrans, diag, j, a, lda, a[j*lda:], 1)
			blas.Scal(j, ajj, a[j*lda:], 1)
		}
	} else {
		for j := n - 1; j >= 0; j-- {
			var ajj T
			if diag == NonUnit {
				a[j+j*lda] = core.Div(one, a[j+j*lda])
				ajj = -a[j+j*lda]
			} else {
				ajj = -one
			}
			if j < n-1 {
				blas.Trmv(Lower, NoTrans, diag, n-j-1, a[j+1+(j+1)*lda:], lda, a[j+1+j*lda:], 1)
				blas.Scal(n-j-1, ajj, a[j+1+j*lda:], 1)
			}
		}
	}
	return 0
}

// Trtri inverts a triangular matrix in place (xTRTRI).
func Trtri[T core.Scalar](uplo Uplo, diag Diag, n int, a []T, lda int) int {
	return Trti2(uplo, diag, n, a, lda)
}

// Getri computes the inverse of a matrix from its LU factorization
// (xGETRI). work must have length at least n. Returns i > 0 if U(i,i) is
// zero and the inverse could not be computed.
func Getri[T core.Scalar](cfg *core.Config, n int, a []T, lda int, ipiv []int, work []T) int {
	if n == 0 {
		return 0
	}
	// Invert U in place.
	if info := Trtri(Upper, NonUnit, n, a, lda); info != 0 {
		return info
	}
	one := core.FromFloat[T](1)
	// Solve inv(A)·L = inv(U) column by column, right to left.
	for j := n - 1; j >= 0; j-- {
		// Save the strict lower part of column j (the L factors) and zero it.
		for i := j + 1; i < n; i++ {
			work[i] = a[i+j*lda]
			a[i+j*lda] = 0
		}
		if j < n-1 {
			blas.Gemv(cfg, NoTrans, n, n-j-1, -one, a[(j+1)*lda:], lda, work[j+1:], 1, one, a[j*lda:], 1)
		}
	}
	// Apply column interchanges: columns are swapped in reverse pivot order.
	for j := n - 1; j >= 0; j-- {
		if p := ipiv[j]; p != j {
			blas.Swap(n, a[j*lda:], 1, a[p*lda:], 1)
		}
	}
	return 0
}

package lapack

import "repro/internal/core"

// Gttrf computes the LU factorization with partial pivoting of a general
// tridiagonal matrix (xGTTRF). dl (n-1), d (n) and du (n-1) are the sub-,
// main and super-diagonal; du2 (n-2) receives the second super-diagonal of
// U created by pivoting; ipiv[i] is the 0-based row interchanged with row
// i. Returns i > 0 (1-based) when U(i,i) is exactly zero.
func Gttrf[T core.Scalar](n int, dl, d, du, du2 []T, ipiv []int) int {
	for i := 0; i < n; i++ {
		ipiv[i] = i
	}
	for i := 0; i < n-2; i++ {
		if core.Abs1(d[i]) >= core.Abs1(dl[i]) {
			if d[i] != 0 {
				fact := core.Div(dl[i], d[i])
				dl[i] = fact
				d[i+1] -= fact * du[i]
			}
			du2[i] = 0
		} else {
			fact := core.Div(d[i], dl[i])
			d[i] = dl[i]
			dl[i] = fact
			tmp := du[i]
			du[i] = d[i+1]
			d[i+1] = tmp - fact*d[i+1]
			du2[i] = du[i+1]
			du[i+1] = -fact * du[i+1]
			ipiv[i] = i + 1
		}
	}
	if n > 1 {
		i := n - 2
		if core.Abs1(d[i]) >= core.Abs1(dl[i]) {
			if d[i] != 0 {
				fact := core.Div(dl[i], d[i])
				dl[i] = fact
				d[i+1] -= fact * du[i]
			}
		} else {
			fact := core.Div(d[i], dl[i])
			d[i] = dl[i]
			dl[i] = fact
			tmp := du[i]
			du[i] = d[i+1]
			d[i+1] = tmp - fact*d[i+1]
			ipiv[i] = i + 1
		}
	}
	for i := 0; i < n; i++ {
		if d[i] == 0 {
			return i + 1
		}
	}
	return 0
}

// Gttrs solves op(A)·X = B using the factorization from Gttrf (xGTTRS).
func Gttrs[T core.Scalar](trans Trans, n, nrhs int, dl, d, du, du2 []T, ipiv []int, b []T, ldb int) {
	if n == 0 {
		return
	}
	for j := 0; j < nrhs; j++ {
		col := b[j*ldb:]
		switch trans {
		case NoTrans:
			// Forward elimination with the recorded interchanges.
			for i := 0; i < n-1; i++ {
				if ipiv[i] == i {
					col[i+1] -= dl[i] * col[i]
				} else {
					tmp := col[i]
					col[i] = col[i+1]
					col[i+1] = tmp - dl[i]*col[i]
				}
			}
			// Back substitution with U (three bands).
			col[n-1] = core.Div(col[n-1], d[n-1])
			if n > 1 {
				col[n-2] = core.Div(col[n-2]-du[n-2]*col[n-1], d[n-2])
			}
			for i := n - 3; i >= 0; i-- {
				col[i] = core.Div(col[i]-du[i]*col[i+1]-du2[i]*col[i+2], d[i])
			}
		case TransT, ConjTrans:
			cj := func(v T) T { return v }
			if trans == ConjTrans {
				cj = core.Conj[T]
			}
			// Solve Uᵀ·y = b.
			col[0] = core.Div(col[0], cj(d[0]))
			if n > 1 {
				col[1] = core.Div(col[1]-cj(du[0])*col[0], cj(d[1]))
			}
			for i := 2; i < n; i++ {
				col[i] = core.Div(col[i]-cj(du[i-1])*col[i-1]-cj(du2[i-2])*col[i-2], cj(d[i]))
			}
			// Solve Lᵀ·x = y with interchanges applied in reverse.
			for i := n - 2; i >= 0; i-- {
				if ipiv[i] == i {
					col[i] -= cj(dl[i]) * col[i+1]
				} else {
					tmp := col[i+1]
					col[i+1] = col[i] - cj(dl[i])*tmp
					col[i] = tmp
				}
			}
		}
	}
}

// Gtsv solves A·X = B for a general tridiagonal matrix (the xGTSV driver).
// dl, d and du are overwritten by the factorization.
func Gtsv[T core.Scalar](n, nrhs int, dl, d, du []T, b []T, ldb int) int {
	du2 := make([]T, max(0, n-2))
	ipiv := make([]int, n)
	info := Gttrf(n, dl, d, du, du2, ipiv)
	if info == 0 {
		Gttrs(NoTrans, n, nrhs, dl, d, du, du2, ipiv, b, ldb)
	}
	return info
}

// gtmv computes y = alpha·op(A)·x + beta·y for a tridiagonal matrix.
func gtmv[T core.Scalar](trans Trans, n int, dl, d, du []T, alpha T, x []T, beta T, y []T) {
	cj := func(v T) T { return v }
	if trans == ConjTrans {
		cj = core.Conj[T]
	}
	for i := 0; i < n; i++ {
		var s T
		switch trans {
		case NoTrans:
			s = d[i] * x[i]
			if i > 0 {
				s += dl[i-1] * x[i-1]
			}
			if i < n-1 {
				s += du[i] * x[i+1]
			}
		default:
			s = cj(d[i]) * x[i]
			if i > 0 {
				s += cj(du[i-1]) * x[i-1]
			}
			if i < n-1 {
				s += cj(dl[i]) * x[i+1]
			}
		}
		if beta == 0 {
			y[i] = alpha * s
		} else {
			y[i] = alpha*s + beta*y[i]
		}
	}
}

// gtSystem describes the tridiagonal matrix dl/d/du to the expert pipeline,
// with its LU factorization in dlf/df/duf/du2/ipiv.
func gtSystem[T core.Scalar](n int, dl, d, du, dlf, df, duf, du2 []T, ipiv []int) *system[T] {
	var col [3]T
	return &system[T]{
		n: n,
		cols: func(j int) ([]T, int) { // gathered: du(j−1), d(j), dl(j)
			seg, lo := col[:0], j
			if j > 0 {
				seg, lo = append(seg, du[j-1]), j-1
			}
			seg = append(seg, d[j])
			if j < n-1 {
				seg = append(seg, dl[j])
			}
			return seg, lo
		},
		factor: func() int {
			copy(df[:n], d[:n])
			if n > 1 {
				copy(dlf[:n-1], dl[:n-1])
				copy(duf[:n-1], du[:n-1])
			}
			return Gttrf(n, dlf, df, duf, du2, ipiv)
		},
		solve: func(tr Trans, nrhs int, x []T, ldx int) { Gttrs(tr, n, nrhs, dlf, df, duf, du2, ipiv, x, ldx) },
		mul:   func(tr Trans, alpha T, x []T, beta T, y []T) { gtmv(tr, n, dl, d, du, alpha, x, beta, y) },
	}
}

// Gtsvx is the expert driver for general tridiagonal systems (xGTSVX); see
// Gesvx. There is no equilibration step.
func Gtsvx[T core.Scalar](fact Fact, trans Trans, n, nrhs int, dl, d, du, dlf, df, duf, du2 []T, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(gtSystem(n, dl, d, du, dlf, df, duf, du2, ipiv), fact, trans, nrhs, b, ldb, x, ldx)
}

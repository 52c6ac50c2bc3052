package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Lacn2 estimates the 1-norm of a matrix accessible only through
// matrix-vector products, using Higham's algorithm (xLACN2). apply must
// overwrite x with A·x when conjTrans is false and with Aᴴ·x (Aᵀ·x for real
// element types) when true. The estimate is a lower bound that is almost
// always within a factor of 3 of the true norm.
func Lacn2[T core.Scalar](n int, apply func(conjTrans bool, x []T)) float64 {
	const itmax = 5
	if n == 0 {
		return 0
	}
	x := make([]T, n)
	for i := range x {
		x[i] = core.FromFloat[T](1 / float64(n))
	}
	apply(false, x)
	if n == 1 {
		if e := core.Abs(x[0]); !math.IsNaN(e) {
			return e
		}
		return math.Inf(1)
	}
	est := blas.Asum(n, x, 1)
	signVec(x)
	apply(true, x)
	j := argmaxAbs(x)
	for iter := 2; iter <= itmax; iter++ {
		for i := range x {
			x[i] = 0
		}
		x[j] = core.FromFloat[T](1)
		apply(false, x)
		estold := est
		est = blas.Asum(n, x, 1)
		if est <= estold {
			break
		}
		signVec(x)
		apply(true, x)
		jlast := j
		j = argmaxAbs(x)
		if core.Abs(x[jlast]) == core.Abs(x[j]) {
			break
		}
	}
	// Alternative estimate on an oscillating test vector.
	altsgn := 1.0
	for i := 0; i < n; i++ {
		x[i] = core.FromFloat[T](altsgn * (1 + float64(i)/float64(n-1)))
		altsgn = -altsgn
	}
	apply(false, x)
	if t := 2 * blas.Asum(n, x, 1) / (3 * float64(n)); t > est {
		est = t
	}
	if math.IsNaN(est) {
		// The solves overflowed (Inf − Inf inside apply): the norm being
		// estimated is beyond representable range. Report +Inf — consumers
		// then derive rcond = 0 / ferr = Inf, the honest diagnosis — rather
		// than letting NaN masquerade as a condition estimate. (LAPACK
		// avoids the overflow itself via the scaled xLATRS solves; we
		// normalize the outcome instead.)
		return math.Inf(1)
	}
	return est
}

// signVec overwrites x with elementwise sign: x/|x| for complex entries
// (1 when zero), ±1 for real entries.
func signVec[T core.Scalar](x []T) {
	for i, v := range x {
		a := core.Abs(v)
		if a == 0 {
			x[i] = core.FromFloat[T](1)
		} else {
			x[i] = core.FromComplex[T](core.ToComplex(v) / complex(a, 0))
		}
	}
}

func argmaxAbs[T core.Scalar](x []T) int {
	best, bv := 0, -1.0
	for i, v := range x {
		if a := core.Abs(v); a > bv {
			best, bv = i, a
		}
	}
	return best
}

// geSystem describes the dense general matrix a to the expert pipeline
// (expert.go), with its LU factorization in af/ipiv.
func geSystem[T core.Scalar](cfg *core.Config, n int, a []T, lda int, af []T, ldaf int, ipiv []int) *system[T] {
	return &system[T]{
		n: n, equil: true,
		cols: func(j int) ([]T, int) { return a[j*lda : j*lda+n], 0 },
		factor: func() int {
			Lacpy('A', n, n, a, lda, af, ldaf)
			return Getrf(cfg, n, n, af, ldaf, ipiv)
		},
		solve: func(tr Trans, nrhs int, x []T, ldx int) { Getrs(cfg, tr, n, nrhs, af, ldaf, ipiv, x, ldx) },
		mul: func(tr Trans, alpha T, x []T, beta T, y []T) {
			blas.Gemv(cfg, tr, n, n, alpha, a, lda, x, 1, beta, y, 1)
		},
		growth: func() float64 { // max|a_ij| / max|u_ij|
			u := matNorm(MaxAbs, n, n, false, func(j int) ([]T, int) { return af[j*ldaf : j*ldaf+j+1], 0 })
			if u == 0 {
				return 1
			}
			return Lange(MaxAbs, n, n, a, lda) / u
		},
	}
}

// Gecon estimates the reciprocal condition number of a general matrix from
// its LU factorization (xGECON). norm selects the 1-norm or ∞-norm; anorm
// is the corresponding norm of the original matrix.
func Gecon[T core.Scalar](cfg *core.Config, norm Norm, n int, a []T, lda int, ipiv []int, anorm float64) float64 {
	return geSystem(cfg, n, nil, 0, a, lda, ipiv).con(norm, anorm)
}

// Geequ computes row and column scalings meant to equilibrate an m×n matrix
// (xGEEQU). On return r and c hold the scale factors and rowcnd/colcnd the
// ratios of smallest to largest scale; amax is the largest absolute element.
// info > 0 signals an exactly zero row (info = i) or column (info = m+j),
// 1-based as in LAPACK.
func Geequ[T core.Scalar](m, n int, a []T, lda int, r, c []float64) (rowcnd, colcnd, amax float64, info int) {
	return equScales(m, n, func(j int) ([]T, int) { return a[j*lda : j*lda+m], 0 }, r, c)
}

// Gerfs improves the computed solution X of op(A)·X = B by iterative
// refinement and returns componentwise backward errors berr and estimated
// forward error bounds ferr per right-hand side (xGERFS). a is the original
// matrix, af/ipiv its LU factorization.
func Gerfs[T core.Scalar](cfg *core.Config, trans Trans, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	geSystem(cfg, n, a, lda, af, ldaf, ipiv).rfs(trans, nrhs, b, ldb, x, ldx, ferr, berr)
}

// Gesvx is the expert driver for general linear systems (xGESVX): it
// optionally equilibrates the system, factors it (unless fact is FactFact and
// af/ipiv supply the factors), solves, iteratively refines, and returns error
// bounds and a condition estimate. a and b are overwritten only when
// equilibration is applied; the solution is written to x.
func Gesvx[T core.Scalar](cfg *core.Config, fact Fact, trans Trans, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SvxResult {
	return svx(geSystem(cfg, n, a, lda, af, ldaf, ipiv), fact, trans, nrhs, b, ldb, x, ldx)
}

package lapack_test

import (
	"fmt"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// The unblocked generators and the reflector-by-reflector Ormtr that Orgtr,
// Ormtr and Orglq ran on before they reached the blocked QR routines, kept
// verbatim as their oracles.

func lacgvRef[T core.Scalar](n int, x []T, inc int) {
	for i, ix := 0, 0; i < n; i, ix = i+1, ix+inc {
		x[ix] = core.Conj(x[ix])
	}
}

// org2lRef generates the last n columns of the unitary matrix Q defined as a
// product of k reflectors stored column-wise QL-style (xORG2L/xUNG2L). a
// is m×n with n <= m and the reflectors in its last k columns.
func org2lRef[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	if n <= 0 {
		return
	}
	work := blas.GetScratch[T](n)
	defer blas.PutScratch(work)
	// First n-k columns are unit vectors ending at row m-n+j.
	for j := 0; j < n-k; j++ {
		for i := 0; i < m; i++ {
			a[i+j*lda] = 0
		}
		a[m-n+j+j*lda] = core.FromFloat[T](1)
	}
	for i := 0; i < k; i++ {
		ii := n - k + i
		// Apply H(i) to A(0:m-n+ii+1, 0:ii) from the left.
		a[m-n+ii+ii*lda] = core.FromFloat[T](1)
		lapack.Larf(cfg, lapack.Left, m-n+ii+1, ii, a[ii*lda:], 1, tau[i], a, lda, work)
		blas.Scal(m-n+ii, -tau[i], a[ii*lda:], 1)
		a[m-n+ii+ii*lda] = core.FromFloat[T](1) - tau[i]
		for l := m - n + ii + 1; l < m; l++ {
			a[l+ii*lda] = 0
		}
	}
}

// orgl2Ref generates the first k rows of the unitary matrix Q from the
// reflectors returned by Gelq2 (xORGL2/xUNGL2). a is m×n with m <= n.
func orgl2Ref[T core.Scalar](cfg *core.Config, m, n, k int, a []T, lda int, tau []T) {
	if m <= 0 {
		return
	}
	work := blas.GetScratch[T](m)
	defer blas.PutScratch(work)
	for i := k; i < m; i++ {
		for j := 0; j < n; j++ {
			a[i+j*lda] = 0
		}
		a[i+i*lda] = core.FromFloat[T](1)
	}
	for i := k - 1; i >= 0; i-- {
		if i < n-1 {
			lacgvRef(n-i-1, a[i+(i+1)*lda:], lda)
			if i < m-1 {
				a[i+i*lda] = core.FromFloat[T](1)
				lapack.Larf(cfg, lapack.Right, m-i-1, n-i, a[i+i*lda:], lda, core.Conj(tau[i]), a[i+1+i*lda:], lda, work)
			}
			blas.Scal(n-i-1, -tau[i], a[i+(i+1)*lda:], lda)
			lacgvRef(n-i-1, a[i+(i+1)*lda:], lda)
		}
		a[i+i*lda] = core.FromFloat[T](1) - core.Conj(tau[i])
		for j := 0; j < i; j++ {
			a[i+j*lda] = 0
		}
	}
}

// orgtrRef generates the unitary matrix Q from the reduction computed by
// Sytrd (xORGTR/xUNGTR), overwriting a with the n×n Q.
func orgtrRef[T core.Scalar](cfg *core.Config, uplo lapack.Uplo, n int, a []T, lda int, tau []T) {
	if n == 0 {
		return
	}
	if uplo == lapack.Upper {
		// Q = H(n-2)…H(0) with reflector i stored in A(0:i, i+1): shift the
		// columns left and generate QL-style.
		for j := 0; j < n-1; j++ {
			for i := 0; i < j; i++ {
				a[i+j*lda] = a[i+(j+1)*lda]
			}
			a[n-1+j*lda] = 0
		}
		for i := 0; i < n-1; i++ {
			a[i+(n-1)*lda] = 0
		}
		a[n-1+(n-1)*lda] = core.FromFloat[T](1)
		org2lRef(cfg, n-1, n-1, n-1, a, lda, tau)
		return
	}
	// Lower: Q = H(0)…H(n-2) with reflector i in A(i+2:n, i): shift right.
	for j := n - 1; j >= 1; j-- {
		a[j*lda] = 0
		for i := j + 1; i < n; i++ {
			a[i+j*lda] = a[i+(j-1)*lda]
		}
	}
	a[0] = core.FromFloat[T](1)
	for i := 1; i < n; i++ {
		a[i] = 0
	}
	if n > 1 {
		lapack.Org2r(cfg, n-1, n-1, n-1, a[1+lda:], lda, tau)
	}
}

// ormtrRef multiplies C by the unitary Q from Sytrd or its conjugate
// transpose (xORMTR/xUNMTR). Only side == Left is needed by this library's
// drivers and implemented.
func ormtrRef[T core.Scalar](cfg *core.Config, uplo lapack.Uplo, trans lapack.Trans, m, n int, a []T, lda int, tau []T, c []T, ldc int) {
	if m <= 1 {
		return
	}
	if uplo == lapack.Lower {
		// Q = H(0)…H(m-2), reflectors stored below the first subdiagonal:
		// exactly the QR layout on the shifted submatrix.
		lapack.Ormqr(cfg, lapack.Left, trans, m-1, n, m-1, a[1:], lda, tau, c[1:], ldc)
		return
	}
	// Upper: QL-style reflectors in A(0:i, i+1). Apply each explicitly.
	work := make([]T, n)
	k := m - 1
	notran := trans == lapack.NoTrans
	// Q = H(k-1)…H(0) (QL product): Q·C applies H(0) first, so the loop
	// ascends for NoTrans and descends for the conjugate transpose.
	start, end, step := k-1, -1, -1
	if notran {
		start, end, step = 0, k, 1
	}
	v := make([]T, m)
	for i := start; i != end; i += step {
		taui := tau[i]
		if !notran {
			taui = core.Conj(taui)
		}
		// Reflector i: stored tail in A(0:i-1, i+1), implicit 1 at row i,
		// acting on rows 0..i.
		for j := 0; j < i; j++ {
			v[j] = a[j+(i+1)*lda]
		}
		v[i] = core.FromFloat[T](1)
		lapack.Larf(cfg, lapack.Left, i+1, n, v, 1, taui, c, ldc, work)
	}
}

// testTridiagBasis checks Orgtr and Ormtr on the Sytrd factored form of a
// random Hermitian matrix: equal to the unblocked references within n·ε,
// Ormtr(Q)·I = Orgtr, Ormtr(Qᴴ)·Q = I, and Q unitary.
func testTridiagBasis[T core.Scalar](t *testing.T, uplo lapack.Uplo, n int) {
	t.Helper()
	name := fmt.Sprintf("%T/uplo=%c/n=%d", *new(T), byte(uplo), n)
	cfg := tcfg()
	a := randHerm[T](lapack.NewRng([4]int{n, 2, 9, 5}), n, n)
	d, e, tau := make([]float64, n), make([]float64, n), make([]T, n)
	lapack.Sytrd(cfg, uplo, n, a, n, d, e, tau)
	tol := 4 * float64(n) * core.Eps[T]()
	q, qref := append([]T(nil), a...), append([]T(nil), a...)
	lapack.Orgtr(cfg, uplo, n, q, n, tau)
	orgtrRef(cfg, uplo, n, qref, n, tau)
	if diff := diff.MaxDiff(q, qref); diff > tol {
		t.Errorf("%s: Orgtr differs from the unblocked generator by %.3g", name, diff)
	}
	if r := testutil.OrthoResidual(n, n, q, n); r > 10 {
		t.Errorf("%s: ‖QᴴQ − I‖ ratio %.3g", name, r)
	}
	ident := make([]T, n*n)
	lapack.Laset('A', n, n, core.FromFloat[T](0), core.FromFloat[T](1), ident, n)
	for _, trans := range []lapack.Trans{lapack.NoTrans, lapack.ConjTrans} {
		c, cref := append([]T(nil), ident...), append([]T(nil), ident...)
		want := ident
		if trans == lapack.NoTrans {
			want = q // Q·I
		} else {
			copy(c, q) // Qᴴ·Q
			copy(cref, q)
		}
		lapack.Ormtr(cfg, uplo, trans, n, n, a, n, tau, c, n)
		ormtrRef(cfg, uplo, trans, n, n, a, n, tau, cref, n)
		if diff := diff.MaxDiff(c, cref); diff > tol {
			t.Errorf("%s trans=%c: Ormtr differs from the reflector loop by %.3g", name, byte(trans), diff)
		}
		if diff := diff.MaxDiff(c, want); diff > tol {
			t.Errorf("%s trans=%c: Ormtr off Orgtr's Q by %.3g", name, byte(trans), diff)
		}
	}
}

func TestOrgtrOrmtr(t *testing.T) {
	for _, n := range []int{1, 2, 9, 33, 130, 384} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			testTridiagBasis[float64](t, uplo, n)
			testTridiagBasis[float32](t, uplo, n)
			testTridiagBasis[complex128](t, uplo, n)
			testTridiagBasis[complex64](t, uplo, n)
		}
	}
}

// TestOrglqAgainstOrgl2: the transposed blocked generator reproduces the
// unblocked one, square and wide, with fewer reflectors than rows.
func testOrglq[T core.Scalar](t *testing.T, m, n, k int) {
	t.Helper()
	cfg := tcfg()
	a := testutil.RandGeneral[T](lapack.NewRng([4]int{m, n, 4, 3}), m, n, m)
	tau := make([]T, m)
	lapack.Gelqf(cfg, k, n, a, m, tau)
	q, qref := append([]T(nil), a...), append([]T(nil), a...)
	lapack.Orglq(cfg, m, n, k, q, m, tau)
	orgl2Ref(cfg, m, n, k, qref, m, tau)
	if diff := diff.MaxDiff(q, qref); diff > 4*float64(n)*core.Eps[T]() {
		t.Errorf("%T %dx%d k=%d: Orglq differs from Orgl2 by %.3g", *new(T), m, n, k, diff)
	}
}

func TestOrglqAgainstOrgl2(t *testing.T) {
	for _, sh := range [][3]int{{1, 1, 1}, {5, 5, 5}, {7, 20, 4}, {130, 130, 130}, {255, 255, 255}, {100, 300, 100}} {
		testOrglq[float64](t, sh[0], sh[1], sh[2])
		testOrglq[float32](t, sh[0], sh[1], sh[2])
		testOrglq[complex128](t, sh[0], sh[1], sh[2])
		testOrglq[complex64](t, sh[0], sh[1], sh[2])
	}
}

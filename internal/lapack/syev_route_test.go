package lapack_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matgen"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// symEigName is one name of the xSYEV/xSYEVD family at this layer, run with
// vectors on the Hermitian matrix a (both triangles stored, leading dimension
// n): w receives the eigenvalues and z (n×n) the eigenvectors. The dense
// names read a's uplo triangle in their own storage — SPEV packed, SBEV as a
// band of kd = n−1 (the same matrix), SYGV as the pencil (A, I) — and STEV,
// for which a must be real symmetric tridiagonal, its two diagonals. The D
// names of the packed, band and tridiagonal formats run the same entry points
// (la/eig.go).
type symEigName[T core.Scalar] struct {
	name    string
	tridiag bool
	run     func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int
}

func symEigNames[T core.Scalar]() []symEigName[T] {
	cfg := tcfg()
	dense := func(f func(*core.Config, bool, lapack.Uplo, int, []T, int, []float64) int) func(lapack.Uplo, int, []T, []float64, []T) int {
		return func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int {
			copy(z, a)
			return f(cfg, true, uplo, n, z, n, w)
		}
	}
	return []symEigName[T]{
		{"SYEV", false, dense(lapack.Syev[T])},
		{"SYEVD", false, dense(lapack.Syevd[T])},
		{"SPEV", false, func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int {
			return lapack.Spev(cfg, true, uplo, n, packTri(uplo, n, a, n), w, z, n)
		}},
		{"SBEV", false, func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int {
			return lapack.Sbev(cfg, true, uplo, n, n-1, fullBand(uplo, n, a), n, w, z, n)
		}},
		{"SYGV", false, func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int {
			b := make([]T, n*n)
			lapack.Laset('A', n, n, core.FromFloat[T](0), core.FromFloat[T](1), b, n)
			copy(z, a)
			return lapack.Sygv(cfg, 1, true, uplo, n, z, n, b, n, w)
		}},
		{"STEV", true, func(uplo lapack.Uplo, n int, a []T, w []float64, z []T) int {
			e := make([]float64, max(n-1, 0))
			for i := 0; i < n; i++ {
				w[i] = core.Re(a[i+i*n])
				if i+1 < n {
					e[i] = core.Re(a[i+1+i*n])
				}
			}
			return lapack.Stev(cfg, n, w, e, z, n)
		}},
	}
}

// fullBand stores the uplo triangle of the n×n matrix a as a band of
// kd = n−1 off-diagonals (leading dimension n).
func fullBand[T core.Scalar](uplo lapack.Uplo, n int, a []T) []T {
	ab := make([]T, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			switch {
			case uplo == lapack.Upper && i <= j:
				ab[n-1+i-j+j*n] = a[i+j*n]
			case uplo == lapack.Lower && i >= j:
				ab[i-j+j*n] = a[i+j*n]
			}
		}
	}
	return ab
}

// tridiagDense is the real symmetric tridiagonal matrix (d, e) in dense
// storage.
func tridiagDense[T core.Scalar](d, e []float64) []T {
	n := len(d)
	t := make([]T, n*n)
	for i := 0; i < n; i++ {
		t[i+i*n] = core.FromFloat[T](d[i])
		if i+1 < n {
			t[i+1+i*n] = core.FromFloat[T](e[i])
			t[i+(i+1)*n] = core.FromFloat[T](e[i])
		}
	}
	return t
}

// syevSpectrum is one of the route test's spectra of order n, signs
// alternating: clustered (one eigenvalue 4, the others ±4e-6), graded
// (geometric from 4 to 4e-12) and rank-deficient (arithmetic from 4 to 0.4,
// the last third exactly zero). With a spectral radius of 4 the tridiagonal
// form's largest entry is at least 4/3, so no scaling step of the solvers
// fires and the bits are those of the unscaled routes.
func syevSpectrum(kind string, n int) []float64 {
	var lam []float64
	switch kind {
	case "clustered":
		lam = matgen.SingularValues(1, n, 1e6)
	case "graded":
		lam = matgen.SingularValues(3, n, 1e12)
	default:
		lam = matgen.SingularValues(4, n, 10)
		clear(lam[n-n/3:])
	}
	for i := range lam {
		lam[i] *= 4
		if i%2 == 1 {
			lam[i] = -lam[i]
		}
	}
	return lam
}

// hermWithSpectrum returns Q·diag(lam)·Qᴴ for a random unitary Q, both
// triangles stored and exactly Hermitian.
func hermWithSpectrum[T core.Scalar](rng *lapack.Rng, lam []float64) []T {
	n := len(lam)
	cfg := tcfg()
	q, qd, a := make([]T, n*n), make([]T, n*n), make([]T, n*n)
	matgen.RandOrtho(cfg, rng, n, q, n)
	for j, l := range lam {
		for i := 0; i < n; i++ {
			qd[i+j*n] = q[i+j*n] * core.FromFloat[T](l)
		}
	}
	blas.Gemm(cfg, blas.NoTrans, blas.ConjTrans, n, n, n, core.FromFloat[T](1), qd, n, q, n, core.FromFloat[T](0), a, n)
	for j := 0; j < n; j++ {
		a[j+j*n] = core.FromFloat[T](core.Re(a[j+j*n]))
		for i := 0; i < j; i++ {
			a[j+i*n] = core.Conj(a[i+j*n])
		}
	}
	return a
}

// routeCase is one input of the route test: a Hermitian matrix of a given
// spectrum and the tridiagonal form Sytrd reduces its uplo triangle to.
type routeCase[T core.Scalar] struct {
	name string
	uplo lapack.Uplo
	a    []T
	d, e []float64
}

var syevSpectra = []string{"clustered", "graded", "rank-deficient"}

// routeCases returns the two cases of order n: the Upper one on spectrum
// syevSpectra[k mod 3], the Lower one on the next.
func routeCases[T core.Scalar](n, k int) []routeCase[T] {
	var cs []routeCase[T]
	for u, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
		kind := syevSpectra[(k+u)%len(syevSpectra)]
		c := routeCase[T]{name: fmt.Sprintf("%T/n=%d/%v/%s", *new(T), n, uplo, kind), uplo: uplo,
			a: hermWithSpectrum[T](lapack.NewRng([4]int{n, k, u, 17}), syevSpectrum(kind, n)),
			d: make([]float64, n), e: make([]float64, n)}
		work, tau := append([]T(nil), c.a...), make([]T, n)
		lapack.Sytrd(tcfg(), uplo, n, work, n, c.d, c.e, tau)
		cs = append(cs, c)
	}
	return cs
}

// syevRouteGolden fingerprints, per element type and order, SYEV's and
// STEV's outputs on every case of routeCases (FNV-64a; one hash, which every
// kernel row must produce — the portable route's own column was dropped when
// its Go twins took the asm rows' bits). They were generated at the commit
// before the fold
// from that commit's SYEV and STEV up to lapack.SyevCrossover and from its
// SYEVD and STEVD above it. The asm column of float32 and complex64 up to the
// crossover was regenerated when the float32 asm rows got their rotation
// kernel (srotSeqFma); every other entry is the earlier commit's bits.
// Regenerate with `go test ./internal/lapack -run SyevRoutes -args -golden`.
var syevRouteGolden = diff.Table{
	"complex128/n=111": {Hash: 0x864a9c730a4ed475},
	"complex128/n=112": {Hash: 0x2698e3716df71644},
	"complex128/n=113": {Hash: 0xd42305de587ea291},
	"complex128/n=224": {Hash: 0x1b4a0032566d134d},
	"complex128/n=384": {Hash: 0x3edce468e63aa842},
	"complex64/n=111":  {Hash: 0xcf56b09c78706fdd},
	"complex64/n=112":  {Hash: 0xa25353d3d341ab69},
	"complex64/n=113":  {Hash: 0xb87a6e37eee0ab6a},
	"complex64/n=224":  {Hash: 0xeb81f5d4a8c66173},
	"complex64/n=384":  {Hash: 0xe692b95d4eec4f3b},
	"float32/n=111":    {Hash: 0x65d523e777909f26},
	"float32/n=112":    {Hash: 0xf0770466493e7f21},
	"float32/n=113":    {Hash: 0x643866a8f3295b8d},
	"float32/n=224":    {Hash: 0x2eeba4cf1de3cc5d},
	"float32/n=384":    {Hash: 0x351126e40028259f},
	"float64/n=111":    {Hash: 0xfc322fe9445fe88f},
	"float64/n=112":    {Hash: 0xe763124fe6f1a2d3},
	"float64/n=113":    {Hash: 0x7cca1f97eb516bbd},
	"float64/n=224":    {Hash: 0x55ff471cf44be029},
	"float64/n=384":    {Hash: 0xd99ef2b5fef5b569},
}

// TestSyevRoutes: every name of the xSYEV/xSYEVD family runs one body per
// storage format, which takes the QL/QR iteration up to lapack.SyevCrossover
// and divide & conquer above it. Around the crossover, at twice it and at the
// eig_svd order, on both triangles and every type, the clustered, graded and
// rank-deficient spectra taking turns:
//   - the route the order selects is composed from the exported pieces —
//     Sytrd, then Orgtr and Steqr on Q (QR), or Stevd and Ormtr (D&C) — and
//     SYEV reproduces it bit for bit; at the crossover and one above it so do
//     SYEVD, SPEV and SBEV, and SYGV on (A, I) up to the sign of a zero, so the
//     residual and orthogonality bounds SYEV meets hold for every name;
//   - the other route's eigenvalues agree to n·ε·‖A‖₁, and STEV on Sytrd's
//     (d, e) meets the residual and orthogonality bounds too;
//   - syevRouteGolden pins SYEV's and STEV's bits, on the selected row (-golden
//     runs the portable row too, to print its column).
func TestSyevRoutes(t *testing.T) {
	x := lapack.SyevCrossover
	syevRouteGolden.Check(t, func(t *testing.T, out map[string]*diff.Hash) {
		for k, n := range []int{x - 1, x, x + 1, 2 * x, 384} {
			out[fmt.Sprintf("float64/n=%d", n)] = testSyevRoutes[float64](t, n, 2*k)
			out[fmt.Sprintf("float32/n=%d", n)] = testSyevRoutes[float32](t, n, 2*k)
			out[fmt.Sprintf("complex128/n=%d", n)] = testSyevRoutes[complex128](t, n, 2*k)
			out[fmt.Sprintf("complex64/n=%d", n)] = testSyevRoutes[complex64](t, n, 2*k)
		}
	}, diff.Selected)
}

func testSyevRoutes[T core.Scalar](t *testing.T, n, k int) *diff.Hash {
	t.Helper()
	cfg := tcfg()
	h := diff.NewHash()
	route := 0
	if n > lapack.SyevCrossover {
		route = 1
	}
	aliases := n == lapack.SyevCrossover || n == lapack.SyevCrossover+1
	for _, c := range routeCases[T](n, k) {
		// The two routes.
		var w [2][]float64
		var z [2][]T
		for r := range w {
			work, tau := append([]T(nil), c.a...), make([]T, n)
			w[r], z[r] = make([]float64, n), make([]T, n*n)
			e := make([]float64, n)
			lapack.Sytrd(cfg, c.uplo, n, work, n, w[r], e, tau)
			var info int
			if r == 0 {
				lapack.Orgtr(cfg, c.uplo, n, work, n, tau)
				info = lapack.Steqr(cfg, n, w[r], e, work, n)
				copy(z[r], work)
			} else if info = lapack.Stevd(cfg, n, w[r], e, z[r], n); info == 0 {
				lapack.Ormtr(cfg, c.uplo, lapack.NoTrans, n, n, work, n, tau, z[r], n)
			}
			if info != 0 {
				t.Fatalf("%s route %d: info %d", c.name, r, info)
			}
		}
		checkEig(t, c.name, n, c.a, w[route], z[route])
		tol := float64(n) * core.Eps[T]() * lapack.Lange(lapack.OneNorm, n, n, c.a, n)
		for i := range w[0] {
			if !(math.Abs(w[0][i]-w[1][i]) <= tol) {
				t.Fatalf("%s: λ[%d] = %v by QL/QR, %v by D&C", c.name, i, w[0][i], w[1][i])
			}
		}
		// Every name.
		for _, nm := range symEigNames[T]() {
			if !aliases && nm.name != "SYEV" && !nm.tridiag {
				continue
			}
			wn, zn := make([]float64, n), make([]T, n*n)
			a := c.a
			if nm.tridiag {
				a = tridiagDense[T](c.d, c.e)
			}
			if info := nm.run(c.uplo, n, a, wn, zn); info != 0 {
				t.Fatalf("%s %s: info %d", c.name, nm.name, info)
			}
			if nm.tridiag {
				checkEig(t, c.name+" "+nm.name, n, a, wn, zn)
				h.Float(wn...)
				diff.Add(h, zn)
				continue
			}
			// SYGV's back-substitution by I may flip the sign of a zero
			// imaginary part; every other name is bit for bit.
			same := diff.Same(wn, w[route]) && diff.Same(zn, z[route])
			if nm.name == "SYGV" {
				same = slices.Equal(wn, w[route]) && slices.Equal(zn, z[route])
			}
			if !same {
				t.Errorf("%s %s: differs from route %d", c.name, nm.name, route)
			}
			if nm.name == "SYEV" {
				h.Float(wn...)
				diff.Add(h, zn)
			}
		}
	}
	return h
}

// checkEig bounds the residual and orthogonality ratios of an
// eigendecomposition of the Hermitian a.
func checkEig[T core.Scalar](t *testing.T, name string, n int, a []T, w []float64, z []T) {
	t.Helper()
	if r := testutil.EigResidual(n, a, n, w, z, n); !(r <= thresh) {
		t.Errorf("%s: residual ratio %.3g", name, r)
	}
	if r := testutil.OrthoResidual(n, n, z, n); !(r <= thresh) {
		t.Errorf("%s: orthogonality ratio %.3g", name, r)
	}
}

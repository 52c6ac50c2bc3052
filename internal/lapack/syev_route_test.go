package lapack_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lapack"
	"repro/internal/matgen"
	"repro/internal/testutil"
)

var routePrint = flag.Bool("routeprint", false, "print the TestSyevRoutes fingerprints instead of checking them")

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

// hashOut folds eigenvalues and eigenvectors into h.
func hashOut[T core.Scalar](h hash.Hash64, w []float64, z []T) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range w {
		put(v)
	}
	for _, v := range z {
		c := core.ToComplex(v)
		put(real(c))
		put(imag(c))
	}
}

// syevRouteGolden fingerprints, per element type and order, SYEV's and
// STEV's outputs on every case of routeCases (FNV-64a; columns: assembly
// route, portable route). They were generated at the commit before the fold
// from that commit's SYEV and STEV up to lapack.SyevCrossover and from its
// SYEVD and STEVD above it. The asm column of float32 and complex64 up to the
// crossover was regenerated when the float32 asm rows got their rotation
// kernel (srotSeqFma); every other entry is the earlier commit's bits.
// Regenerate with `go test ./internal/lapack -run SyevRoutes -routeprint -v`.
var syevRouteGolden = map[string][2]uint64{
	"complex128/n=111": {0x864a9c730a4ed475, 0xc88614274fe084bd},
	"complex128/n=112": {0x2698e3716df71644, 0x44d41c38ad4c266c},
	"complex128/n=113": {0xd42305de587ea291, 0xd7aa6b4b18c9b112},
	"complex128/n=224": {0x1b4a0032566d134d, 0x413f280de6bb2a56},
	"complex128/n=384": {0x3edce468e63aa842, 0xd47f54af75e6e084},
	"complex64/n=111":  {0xcf56b09c78706fdd, 0x2d734648c82dac1d},
	"complex64/n=112":  {0xa25353d3d341ab69, 0x026656fb8631485b},
	"complex64/n=113":  {0xb87a6e37eee0ab6a, 0x9ecd0e45ea19a172},
	"complex64/n=224":  {0xeb81f5d4a8c66173, 0x8fd224d9b3b98272},
	"complex64/n=384":  {0xe692b95d4eec4f3b, 0x4cd85d618d9ed26f},
	"float32/n=111":    {0x65d523e777909f26, 0xdaad89dc0d70a188},
	"float32/n=112":    {0xf0770466493e7f21, 0x099b93c2cc758fcc},
	"float32/n=113":    {0x643866a8f3295b8d, 0x51e6e2a3332b686f},
	"float32/n=224":    {0x2eeba4cf1de3cc5d, 0x6ce4d15ff3d1cb33},
	"float32/n=384":    {0x351126e40028259f, 0x8855782d2e5cce09},
	"float64/n=111":    {0xfc322fe9445fe88f, 0x61243c279714e8d4},
	"float64/n=112":    {0xe763124fe6f1a2d3, 0x41edb1fcf7a13bcb},
	"float64/n=113":    {0x7cca1f97eb516bbd, 0x6e8ed6d3eafce069},
	"float64/n=224":    {0x55ff471cf44be029, 0x7e14654f182052b3},
	"float64/n=384":    {0xd99ef2b5fef5b569, 0x19359254694bddd7},
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
//   - syevRouteGolden pins SYEV's and STEV's bits.
func TestSyevRoutes(t *testing.T) {
	x := lapack.SyevCrossover
	fingerprints := func() map[string]uint64 {
		got := map[string]uint64{}
		for k, n := range []int{x - 1, x, x + 1, 2 * x, 384} {
			got[fmt.Sprintf("float64/n=%d", n)] = testSyevRoutes[float64](t, n, 2*k)
			got[fmt.Sprintf("float32/n=%d", n)] = testSyevRoutes[float32](t, n, 2*k)
			got[fmt.Sprintf("complex128/n=%d", n)] = testSyevRoutes[complex128](t, n, 2*k)
			got[fmt.Sprintf("complex64/n=%d", n)] = testSyevRoutes[complex64](t, n, 2*k)
		}
		return got
	}
	got := fingerprints()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *routePrint {
		faultinject.ForcePortable(true)
		port := fingerprints()
		faultinject.ForcePortable(false)
		for _, k := range keys {
			fmt.Printf("\t%q: {%#016x, %#016x},\n", k, got[k], port[k])
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64 (other targets fuse multiply-adds in the portable kernels)")
	}
	for _, k := range keys {
		// The default route is the assembly one on AVX2 hardware and the
		// portable one under LA90_NO_ASM=1 or without AVX2.
		if want := syevRouteGolden[k]; got[k] != want[0] && got[k] != want[1] {
			t.Errorf("%s: %#016x, want %#016x (asm) or %#016x (portable)", k, got[k], want[0], want[1])
		}
	}
}

func testSyevRoutes[T core.Scalar](t *testing.T, n, k int) uint64 {
	t.Helper()
	cfg := tcfg()
	h := fnv.New64a()
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
				hashOut(h, wn, zn)
				continue
			}
			// SYGV's back-substitution by I may flip the sign of a zero
			// imaginary part; every other name is bit for bit.
			same := bitsEqual(wn, w[route]) && bitsEqual(zn, z[route])
			if nm.name == "SYGV" {
				same = slices.Equal(wn, w[route]) && slices.Equal(zn, z[route])
			}
			if !same {
				t.Errorf("%s %s: differs from route %d", c.name, nm.name, route)
			}
			if nm.name == "SYEV" {
				hashOut(h, wn, zn)
			}
		}
	}
	return h.Sum64()
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

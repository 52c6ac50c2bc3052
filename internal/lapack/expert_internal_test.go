package lapack

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// One table over the nine storage formats of the expert pipeline: the same
// checks the per-format xxCON / xxRFS / xLANxx tests used to make, each made
// of every format through the shared bodies — matNorm against Lange of the
// dense matrix (at unit scale and at 1e±300, where squaring over- and
// underflows), absMul against the dense |A|·x, con against the condition
// number from the explicit inverse, and rfs on a system with small integer
// entries, so that b = A·x is exact and ferr is tested against the true error.

// expertFormat builds the system of one storage format from a dense matrix
// with kl sub- and ku super-diagonals (n−1: full).
type expertFormat[T core.Scalar] struct {
	name     string
	herm, pd bool // Hermitian (else symmetric); positive definite
	general  bool
	kl, ku   func(n int) int
	build    func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T]
}

func expertFormats[T core.Scalar]() []expertFormat[T] {
	full := func(n int) int { return n - 1 }
	upTo := func(k int) func(int) int { return func(n int) int { return min(k, n-1) } }
	tri := func(uplo Uplo, n, kd int, a []T) (ab []T, ldab int) { // triangular band storage
		ldab = kd + 1
		ab = make([]T, ldab*n)
		for j := 0; j < n; j++ {
			for i := max(0, j-kd); i <= min(n-1, j+kd); i++ {
				switch {
				case uplo == Upper && i <= j:
					ab[kd+i-j+j*ldab] = a[i+j*n]
				case uplo == Lower && i >= j:
					ab[i-j+j*ldab] = a[i+j*n]
				}
			}
		}
		return ab, ldab
	}
	packed := func(uplo Uplo, n int, a []T) []T {
		ap := make([]T, 0, n*(n+1)/2)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if uplo == Upper && i <= j || uplo == Lower && i >= j {
					ap = append(ap, a[i+j*n])
				}
			}
		}
		return ap
	}
	dense := func(a []T) []T { return append([]T(nil), a...) }
	return []expertFormat[T]{
		{"GE", false, false, true, full, full, func(cfg *core.Config, _ Uplo, n int, a []T) *system[T] {
			return geSystem(cfg, n, dense(a), n, make([]T, n*n), n, make([]int, n))
		}},
		{"GB", false, false, true, upTo(2), upTo(3), func(_ *core.Config, _ Uplo, n int, a []T) *system[T] {
			kl, ku := min(2, n-1), min(3, n-1)
			ldab := kl + ku + 1
			ab := make([]T, ldab*n)
			for j := 0; j < n; j++ {
				for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
					ab[ku+i-j+j*ldab] = a[i+j*n]
				}
			}
			return gbSystem(n, kl, ku, ab, ldab, make([]T, (2*kl+ku+1)*n), 2*kl+ku+1, make([]int, n))
		}},
		{"GT", false, false, true, upTo(1), upTo(1), func(_ *core.Config, _ Uplo, n int, a []T) *system[T] {
			dl, d, du := make([]T, n-1), make([]T, n), make([]T, n-1)
			for i := 0; i < n; i++ {
				d[i] = a[i+i*n]
				if i < n-1 {
					dl[i], du[i] = a[i+1+i*n], a[i+(i+1)*n]
				}
			}
			return gtSystem(n, dl, d, du, make([]T, n-1), make([]T, n), make([]T, n-1), make([]T, max(0, n-2)), make([]int, n))
		}},
		{"PO", true, true, false, full, full, func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return poSystem(cfg, uplo, n, dense(a), n, make([]T, n*n), n)
		}},
		{"PP", true, true, false, full, full, func(_ *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return ppSystem(uplo, n, packed(uplo, n, a), make([]T, n*(n+1)/2))
		}},
		{"PB", true, true, false, upTo(3), upTo(3), func(_ *core.Config, uplo Uplo, n int, a []T) *system[T] {
			ab, ldab := tri(uplo, n, min(3, n-1), a)
			return pbSystem(uplo, n, min(3, n-1), ab, ldab, make([]T, len(ab)), ldab)
		}},
		{"PT", true, true, false, upTo(1), upTo(1), func(_ *core.Config, _ Uplo, n int, a []T) *system[T] {
			d, e := make([]float64, n), make([]T, n-1)
			for i := 0; i < n; i++ {
				d[i] = core.Re(a[i+i*n])
				if i < n-1 {
					e[i] = a[i+1+i*n]
				}
			}
			return ptSystem(n, d, e, make([]float64, n), make([]T, n-1))
		}},
		{"SY", false, false, false, full, full, func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return sySystem(cfg, false, uplo, n, dense(a), n, make([]T, n*n), n, make([]int, n))
		}},
		{"HE", true, false, false, full, full, func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return sySystem(cfg, true, uplo, n, dense(a), n, make([]T, n*n), n, make([]int, n))
		}},
		{"SP", false, false, false, full, full, func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return spSystem(cfg, false, uplo, n, packed(uplo, n, a), make([]T, n*(n+1)/2), make([]int, n))
		}},
		{"HP", true, false, false, full, full, func(cfg *core.Config, uplo Uplo, n int, a []T) *system[T] {
			return spSystem(cfg, true, uplo, n, packed(uplo, n, a), make([]T, n*(n+1)/2), make([]int, n))
		}},
	}
}

// expertDense fills the (kl, ku) band of a dense n×n matrix with small
// integers (integer parts for complex T) times scale, symmetric or Hermitian
// unless general, with a diagonal heavy enough to be positive definite when
// pd and comfortably nonsingular otherwise.
func expertDense[T core.Scalar](f expertFormat[T], n int, scale float64) []T {
	rng := NewRng([4]int{n, len(f.name), int(f.name[0]), int(f.name[1])})
	kl, ku := f.kl(n), f.ku(n)
	a := make([]T, n*n)
	small := func() float64 { return math.Floor(9*rng.Uniform()) - 4 }
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			if !f.general && i > j {
				continue
			}
			re, im := small(), 0.0
			if core.IsComplex[T]() {
				im = small()
			}
			if i == j {
				re += float64(6 * n)
				if f.herm {
					im = 0
				}
				if !f.pd && !f.general && j%2 == 1 {
					re = -re // indefinite
				}
			}
			a[i+j*n] = core.FromComplex[T](complex(re*scale, im*scale))
			if !f.general && i != j {
				a[j+i*n] = a[i+j*n]
				if f.herm {
					a[j+i*n] = core.Conj(a[i+j*n])
				}
			}
		}
	}
	return a
}

func testExpertFormat[T core.Scalar](t *testing.T, f expertFormat[T], uplo Uplo, n int) {
	cfg := core.Default()
	tol := 100 * core.Eps[T]()
	near := func(what string, got, want float64) {
		t.Helper()
		if !(math.Abs(got-want) <= tol*math.Abs(want)) {
			t.Errorf("%s = %v, dense reference %v", what, got, want)
		}
	}
	// Norms, at the scales where a naive sum of squares breaks.
	for _, scale := range []float64{1, 1e300, 1e-300} {
		if scale != 1 && core.Eps[T]() > 1e-10 {
			continue // outside float32's range
		}
		a := expertDense(f, n, scale)
		s := f.build(cfg, uplo, n, a)
		for _, norm := range []Norm{MaxAbs, OneNorm, InfNorm, FrobeniusNorm} {
			near(fmt.Sprintf("matNorm(%c) at scale %g", byte(norm), scale), matNorm(norm, n, n, s.sym, s.cols), Lange(norm, n, n, a, n))
		}
	}
	a := expertDense(f, n, 1)
	s := f.build(cfg, uplo, n, a)
	if s.sym == f.general {
		t.Fatalf("sym = %v on a general = %v format", s.sym, f.general)
	}
	// Explicit inverse of the dense matrix.
	inv, ipiv := append([]T(nil), a...), make([]int, n)
	if info := Getrf(cfg, n, n, inv, n, ipiv); info != 0 {
		t.Fatalf("dense getrf info %d", info)
	}
	if info := Getri(cfg, n, inv, n, ipiv, make([]T, n)); info != 0 {
		t.Fatalf("dense getri info %d", info)
	}
	if info := s.factor(); info != 0 {
		t.Fatalf("factor info %d", info)
	}
	norms := []Norm{OneNorm}
	transes := []Trans{NoTrans}
	if f.general {
		norms, transes = append(norms, InfNorm), append(transes, TransT, ConjTrans)
	}
	for _, norm := range norms {
		anorm := matNorm(norm, n, n, s.sym, s.cols)
		truth := 1 / (Lange(norm, n, n, a, n) * Lange(norm, n, n, inv, n))
		// Higham's estimate of ‖A⁻¹‖ is a lower bound, almost always within
		// a factor 3, so rcond from it is an upper bound — up to the √2 by
		// which Lacn2's |re|+|im| sums exceed moduli for complex T.
		if est := s.con(norm, anorm); est < truth*(1-tol)/math.Sqrt2 || est > 10*truth {
			t.Errorf("con(%c) = %v, from the explicit inverse %v", byte(norm), est, truth)
		}
	}
	const nrhs = 2
	for _, trans := range transes {
		// Integer x, so that b = op(A)·x is exact.
		xTrue, b := make([]T, n*nrhs), make([]T, n*nrhs)
		for k := range xTrue {
			xTrue[k] = core.FromFloat[T](float64((k%5 + 1) * (1 - 2*(k%2)))) // never 0: a zero row of |b| + |A|·|x| makes berr 1
		}
		absX, absB := make([]float64, n), make([]float64, n)
		for j := 0; j < nrhs; j++ {
			for i := 0; i < n; i++ {
				var sum complex128
				for k := 0; k < n; k++ {
					e := a[i+k*n]
					switch trans {
					case TransT:
						e = a[k+i*n]
					case ConjTrans:
						e = core.Conj(a[k+i*n])
					}
					sum += core.ToComplex(e) * core.ToComplex(xTrue[k+j*n])
					if j == 0 {
						absB[i] += core.Abs1(e) * core.Abs1(xTrue[k])
					}
				}
				b[i+j*n] = core.FromComplex[T](sum)
			}
		}
		// absMul against the dense |op(A)|·|x| of the first column.
		for i := range absX {
			absX[i] = core.Abs1(xTrue[i])
		}
		y := make([]float64, n)
		s.absMul(trans, absX, y)
		for i := range y {
			near(fmt.Sprintf("absMul(trans %d)[%d]", trans, i), y[i], absB[i])
		}
		x := append([]T(nil), b...)
		s.solve(trans, nrhs, x, n)
		ferr, berr := make([]float64, nrhs), make([]float64, nrhs)
		s.rfs(trans, nrhs, b, n, x, n, ferr, berr)
		for j := 0; j < nrhs; j++ {
			errMax, xMax := 0.0, 0.0
			for i := 0; i < n; i++ {
				errMax = math.Max(errMax, core.Abs(x[i+j*n]-xTrue[i+j*n]))
				xMax = math.Max(xMax, core.Abs(x[i+j*n]))
			}
			if berr[j] > tol {
				t.Errorf("rfs(trans %d) berr[%d] = %v", trans, j, berr[j])
			}
			if errMax/xMax > ferr[j] || ferr[j] > 1e4*core.Eps[T]()*float64(n) {
				t.Errorf("rfs(trans %d) ferr[%d] = %v, true error %v", trans, j, ferr[j], errMax/xMax)
			}
		}
	}
}

func TestExpertFormats(t *testing.T) {
	for u, uplo := range []Uplo{Upper, Lower} {
		for _, n := range []int{1, 2, 5, 24} {
			for _, f := range expertFormats[float64]() {
				t.Run(fmt.Sprintf("%s/float64/%c/n%d", f.name, "UL"[u], n), func(t *testing.T) { testExpertFormat(t, f, uplo, n) })
			}
			for _, f := range expertFormats[complex128]() {
				t.Run(fmt.Sprintf("%s/complex128/%c/n%d", f.name, "UL"[u], n), func(t *testing.T) { testExpertFormat(t, f, uplo, n) })
			}
			for _, f := range expertFormats[float32]() {
				t.Run(fmt.Sprintf("%s/float32/%c/n%d", f.name, "UL"[u], n), func(t *testing.T) { testExpertFormat(t, f, uplo, n) })
			}
		}
	}
}

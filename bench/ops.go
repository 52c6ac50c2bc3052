package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/f77"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/la"
)

// threshold is the Appendix-F pass limit on every residual and orthogonality
// ratio, the value cmd/la90test uses.
const threshold = 10.0

// panelK is the rank of the "panel" GEMM: the k = NB shape the blocked
// drivers issue for their trailing updates.
const panelK = 64

// An op is one entry of a workload's op list: one problem (or one set of
// small problems) that can be solved through each layer on fresh copies of
// the same input. Every closure works on buffers the op owns; reset restores
// the inputs and is never timed.
type op struct {
	name    string // what the la user calls, e.g. "POSV/L" or "BatchGesv"
	dtype   string
	shape   string
	threads int
	systems int     // problems solved per execution: the la calls attempted
	flops   float64 // nominal LAPACK flop count of one execution (complex flop = 4)

	reset   func()
	la      func() (failed int) // the public driver with the options a user gets by default
	f77     func() (failed int) // nil when f77 has no routine running the same algorithm
	lapack  func() (failed int) // the lapack driver la calls, called directly
	phases  []phase             // the computational routines inside that driver, in order
	verify  func() (worst float64, bad int)
	outputs func() []any // la's result arrays, for the output hash

	blasKey string              // ops with equal keys share one blas replay per pass
	blas    func(rec blasTimer) // Level-3 calls at this op's dtype, shape and thread budget
}

// A phase is one computational routine of a driver, run on the state the
// phases before it left behind. prep (untimed, may be nil) does the copies
// the driver makes between routines.
type phase struct {
	class   string // factor | solve | reduce | iterate | backtransform
	routine string
	flops   float64
	prep    func()
	run     func()
}

// blasTimer times one Level-3 call of a blas replay; prep is untimed.
type blasTimer func(routine string, flops float64, prep, run func())

func dtypeName[T core.Scalar]() string {
	var z T
	switch any(z).(type) {
	case float32:
		return "f32"
	case float64:
		return "f64"
	case complex64:
		return "c64"
	}
	return "c128"
}

// flopMul is the real flops per nominal flop of type T.
func flopMul[T core.Scalar]() float64 {
	if core.IsComplex[T]() {
		return 4
	}
	return 1
}

func cfgThreads(threads int) *core.Config {
	return core.Default().With(func(c *core.Config) { c.Threads = threads })
}

func randVal[T core.Scalar](rng *rand.Rand) T {
	re := 2*rng.Float64() - 1
	if core.IsComplex[T]() {
		return core.FromComplex[T](complex(re, 2*rng.Float64()-1))
	}
	return core.FromFloat[T](re)
}

// randMat returns an m×n column-major matrix with entries uniform in (-1, 1).
func randMat[T core.Scalar](rng *rand.Rand, m, n int) []T {
	a := make([]T, m*n)
	for i := range a {
		a[i] = randVal[T](rng)
	}
	return a
}

// randSym returns a full n×n symmetric (herm false) or Hermitian matrix with
// shift added to its diagonal; shift = n makes it diagonally dominant and so
// positive definite. Both triangles are stored, so either UPLO reads it.
func randSym[T core.Scalar](rng *rand.Rand, n int, herm bool, shift float64) []T {
	a := make([]T, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			v := randVal[T](rng)
			a[i+j*n] = v
			if herm {
				v = core.Conj(v)
			}
			a[j+i*n] = v
		}
		d := randVal[T](rng)
		if herm {
			d = core.FromFloat[T](core.Re(d))
		}
		a[j+j*n] = d + core.FromFloat[T](shift)
	}
	return a
}

func countErrs(errs []error, err error, n int) int {
	if err != nil {
		return n
	}
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	return failed
}

// worse folds one test ratio into a running (worst, bad) pair. A NaN ratio
// fails.
func worse(worst *float64, bad *int, ratio float64) {
	if !(ratio <= threshold) {
		*bad++
	}
	if !(ratio <= *worst) {
		*worst = ratio
	}
}

type solveKind int

const (
	gesv solveKind = iota
	posv
	sysv
)

// newSolveOp builds a linear-solve op over len(sizes) independent systems:
// one large system for the dense workloads, 1024 small ones for small_batch.
// With batch the la call is the Batch driver, otherwise a loop of single
// calls; f77 and lapack have no batch interface and always loop.
func newSolveOp[T core.Scalar](rng *rand.Rand, name string, kind solveKind, lower, batch bool, sizes []int, nrhs, threads int) *op {
	k := len(sizes)
	a0, b0 := make([][]T, k), make([][]T, k)
	as, bs := make([]*la.Matrix[T], k), make([]*la.Matrix[T], k)
	ipiv := make([][]int, k)
	fm := flopMul[T]()
	var fFactor, fSolve float64
	dims := make([][2]int, k)
	for i, n := range sizes {
		switch kind {
		case gesv:
			a0[i] = randMat[T](rng, n, n)
		case posv:
			a0[i] = randSym[T](rng, n, true, float64(n))
		case sysv:
			a0[i] = randSym[T](rng, n, false, 0)
		}
		b0[i] = randMat[T](rng, n, nrhs)
		as[i], bs[i] = la.NewMatrix[T](n, n), la.NewMatrix[T](n, nrhs)
		ipiv[i] = make([]int, n)
		n3 := float64(n) * float64(n) * float64(n)
		if kind == gesv {
			fFactor += fm * 2 / 3 * n3
		} else {
			fFactor += fm / 3 * n3
		}
		fSolve += fm * 2 * float64(n) * float64(n) * float64(nrhs)
		dims[i] = [2]int{n, n}
	}
	cfg := cfgThreads(threads)
	uplo := la.Upper
	opts := []la.Opt{la.WithThreads(threads)}
	if lower {
		// The default-UPLO op passes no WithUpLo at all: that is the call a
		// user who does not care makes.
		uplo = la.Lower
		opts = append(opts, la.WithUpLo(la.Lower))
	}
	shape := fmt.Sprintf("n=%d nrhs=%d", sizes[0], nrhs)
	if k > 1 {
		shape = fmt.Sprintf("%d systems n=%d..%d nrhs=%d", k, slices.Min(sizes), slices.Max(sizes), nrhs)
	}
	o := &op{name: name, dtype: dtypeName[T](), shape: shape, threads: threads, systems: k, flops: fFactor + fSolve}
	o.reset = func() {
		for i := range as {
			copy(as[i].Data, a0[i])
			copy(bs[i].Data, b0[i])
		}
	}
	o.la = func() int {
		if batch {
			if kind == gesv {
				_, errs, err := la.BatchGesv(as, bs, opts...)
				return countErrs(errs, err, k)
			}
			errs, err := la.BatchPosv(as, bs, opts...)
			return countErrs(errs, err, k)
		}
		failed := 0
		for i := range as {
			var err error
			switch kind {
			case gesv:
				_, err = la.GESV(as[i], bs[i], opts...)
			case posv:
				err = la.POSV(as[i], bs[i], opts...)
			case sysv:
				_, err = la.SYSV(as[i], bs[i], opts...)
			}
			if err != nil {
				failed++
			}
		}
		return failed
	}
	o.f77 = func() int {
		failed := 0
		for i, n := range sizes {
			var info int
			switch kind {
			case gesv:
				info = f77.GESV(n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
			case posv:
				info = f77.POSV(uplo, n, nrhs, as[i].Data, n, bs[i].Data, n)
			case sysv:
				info = f77.SYSV(uplo, n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
			}
			if info != 0 {
				failed++
			}
		}
		return failed
	}
	o.lapack = func() int {
		failed := 0
		for i, n := range sizes {
			var info int
			switch kind {
			case gesv:
				info = lapack.Gesv(cfg, n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
			case posv:
				info = lapack.Posv(cfg, uplo, n, nrhs, as[i].Data, n, bs[i].Data, n)
			case sysv:
				info = lapack.Sysv(cfg, uplo, n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
			}
			if info != 0 {
				failed++
			}
		}
		return failed
	}
	factor, solve := [...]string{"Getrf", "Potrf", "Sytrf"}[kind], [...]string{"Getrs", "Potrs", "Sytrs"}[kind]
	o.phases = []phase{
		{class: "factor", routine: factor, flops: fFactor, run: func() {
			for i, n := range sizes {
				switch kind {
				case gesv:
					lapack.Getrf(cfg, n, n, as[i].Data, n, ipiv[i])
				case posv:
					lapack.Potrf(cfg, uplo, n, as[i].Data, n)
				case sysv:
					lapack.Sytrf(cfg, uplo, n, as[i].Data, n, ipiv[i])
				}
			}
		}},
		{class: "solve", routine: solve, flops: fSolve, run: func() {
			for i, n := range sizes {
				switch kind {
				case gesv:
					lapack.Getrs(cfg, lapack.NoTrans, n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
				case posv:
					lapack.Potrs(cfg, uplo, n, nrhs, as[i].Data, n, bs[i].Data, n)
				case sysv:
					lapack.Sytrs(cfg, uplo, n, nrhs, as[i].Data, n, ipiv[i], bs[i].Data, n)
				}
			}
		}},
	}
	o.verify = func() (worst float64, bad int) {
		for i, n := range sizes {
			worse(&worst, &bad, testutil.SolveResidual(n, nrhs, a0[i], n, bs[i].Data, n, b0[i], n))
		}
		return worst, bad
	}
	o.outputs = func() []any {
		out := make([]any, k)
		for i := range bs {
			out[i] = bs[i].Data
		}
		return out
	}
	o.blasKey = fmt.Sprintf("%s %s t%d", o.dtype, shape, threads)
	o.blas = newBlasReplay[T](rng.Int63(), threads, dims)
	return o
}

// newSyevOp builds SYEV (dc false: QL/QR iteration) or SYEVD (divide and
// conquer) with eigenvectors on an n×n symmetric/Hermitian matrix.
func newSyevOp[T core.Scalar](rng *rand.Rand, dc bool, n, threads int) *op {
	a0 := randSym[T](rng, n, true, 0)
	a := la.NewMatrix[T](n, n)
	var w []float64
	wbuf, d, e, tau := make([]float64, n), make([]float64, n), make([]float64, max(0, n-1)), make([]T, max(0, n-1))
	cfg := cfgThreads(threads)
	opts := []la.Opt{la.WithVectors(), la.WithThreads(threads)}
	fm := flopMul[T]()
	n3 := float64(n) * float64(n) * float64(n)
	name, iterate, fIter := "SYEV", "Steqr", 6*n3
	if dc {
		name, iterate, fIter = "SYEVD", "Stedc", 8.0/3*n3
	}
	o := &op{name: name, dtype: dtypeName[T](), shape: fmt.Sprintf("n=%d vectors", n), threads: threads, systems: 1,
		flops: fm*8/3*n3 + fIter}
	o.reset = func() { copy(a.Data, a0) }
	o.la = func() int {
		var err error
		if dc {
			w, err = la.SYEVD(a, opts...)
		} else {
			w, err = la.SYEV(a, opts...)
		}
		return b2i(err != nil)
	}
	o.f77 = func() int {
		if dc {
			return b2i(f77.SYEVD(true, f77.Upper, n, a.Data, n, wbuf) != 0)
		}
		return b2i(f77.SYEV(true, f77.Upper, n, a.Data, n, wbuf) != 0)
	}
	o.lapack = func() int {
		if dc {
			return b2i(lapack.Syevd(cfg, true, lapack.Upper, n, a.Data, n, wbuf) != 0)
		}
		return b2i(lapack.Syev(cfg, true, lapack.Upper, n, a.Data, n, wbuf) != 0)
	}
	o.phases = []phase{
		{class: "reduce", routine: "Sytrd", flops: fm * 4 / 3 * n3, run: func() { lapack.Sytrd(cfg, lapack.Upper, n, a.Data, n, d, e, tau) }},
		{class: "backtransform", routine: "Orgtr", flops: fm * 4 / 3 * n3, run: func() { lapack.Orgtr(cfg, lapack.Upper, n, a.Data, n, tau) }},
		{class: "iterate", routine: iterate, flops: fIter, run: func() {
			if dc {
				lapack.Stedc(cfg, n, d, e, a.Data, n)
			} else {
				lapack.Steqr(cfg, n, d, e, a.Data, n)
			}
		}},
	}
	o.verify = func() (worst float64, bad int) {
		if len(w) != n {
			return math.NaN(), 1
		}
		worse(&worst, &bad, testutil.EigResidual(n, a0, n, w, a.Data, n))
		worse(&worst, &bad, testutil.OrthoResidual(n, n, a.Data, n))
		return worst, min(bad, 1)
	}
	o.outputs = func() []any { return []any{w, a.Data} }
	o.blasKey = fmt.Sprintf("%s n=%d t%d", o.dtype, n, threads)
	o.blas = newBlasReplay[T](rng.Int63(), threads, [][2]int{{n, n}})
	return o
}

// newGesvdOp builds GESVD with the defaults: divide and conquer, economy
// vectors. f77.GESVD runs the QR iteration instead, so there is no f77 twin.
func newGesvdOp[T core.Scalar](rng *rand.Rand, n, threads int) *op {
	a0 := randMat[T](rng, n, n)
	a := la.NewMatrix[T](n, n)
	var res *la.SVDResult[T]
	s, u, vt := make([]float64, n), make([]T, n*n), make([]T, n*n)
	d, e, tauq, taup := make([]float64, n), make([]float64, max(0, n-1)), make([]T, n), make([]T, n)
	u0, vt0 := make([]float64, n*n), make([]float64, n*n)
	cfg := cfgThreads(threads)
	fm := flopMul[T]()
	n3 := float64(n) * float64(n) * float64(n)
	o := &op{name: "GESVD", dtype: dtypeName[T](), shape: fmt.Sprintf("n=%d economy", n), threads: threads, systems: 1,
		flops: fm*(8.0/3+8.0/3+4)*n3 + 8.0/3*n3}
	o.reset = func() { copy(a.Data, a0) }
	o.la = func() int {
		var err error
		res, err = la.GESVD(a, la.WithThreads(threads))
		return b2i(err != nil)
	}
	o.lapack = func() int {
		return b2i(lapack.Gesdd(cfg, lapack.SVDSome, lapack.SVDSome, n, n, a.Data, n, s, u, n, vt, n) != 0)
	}
	o.phases = []phase{
		{class: "reduce", routine: "Gebrd", flops: fm * 8 / 3 * n3, run: func() { lapack.Gebrd(cfg, n, n, a.Data, n, d, e, tauq, taup) }},
		{class: "iterate", routine: "Bdsdc", flops: 8.0 / 3 * n3, run: func() { lapack.Bdsdc(cfg, n, d, e, u0, n, vt0, n) }},
		{class: "backtransform", routine: "Orgbr/Q", flops: fm * 4 / 3 * n3,
			prep: func() { lapack.Lacpy('L', n, n, a.Data, n, u, n) },
			run:  func() { lapack.Orgbr(cfg, 'Q', n, n, n, u, n, tauq) }},
		{class: "backtransform", routine: "Orgbr/P", flops: fm * 4 / 3 * n3,
			prep: func() { lapack.Lacpy('U', n, n, a.Data, n, vt, n) },
			run:  func() { lapack.Orgbr(cfg, 'P', n, n, n, vt, n, taup) }},
	}
	o.verify = func() (worst float64, bad int) {
		if res == nil || res.U == nil || res.VT == nil {
			return math.NaN(), 1
		}
		worse(&worst, &bad, svdResidual(n, n, a0, res.S, res.U.Data, res.VT.Data))
		worse(&worst, &bad, testutil.OrthoResidual(n, n, res.U.Data, n))
		worse(&worst, &bad, testutil.OrthoResidual(n, n, res.VT.Data, n))
		return worst, min(bad, 1)
	}
	o.outputs = func() []any { return []any{res.S, res.U.Data, res.VT.Data} }
	o.blasKey = fmt.Sprintf("%s n=%d t%d", o.dtype, n, threads)
	o.blas = newBlasReplay[T](rng.Int63(), threads, [][2]int{{n, n}})
	return o
}

// svdResidual returns ‖A − U·Σ·Vᴴ‖₁ / (‖A‖₁·n·ε) for the economy factors of
// an m×n matrix with m ≥ n.
func svdResidual[T core.Scalar](m, n int, a []T, s []float64, u, vt []T) float64 {
	us := make([]T, m*n)
	for j := 0; j < n; j++ {
		sj := core.FromFloat[T](s[j])
		for i := 0; i < m; i++ {
			us[i+j*m] = u[i+j*m] * sj
		}
	}
	r := append([]T(nil), a...)
	one := core.FromFloat[T](1)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, m, n, n, -one, us, m, vt, n, one, r, m)
	return lapack.Lange(lapack.OneNorm, m, n, r, m) / (lapack.Lange(lapack.OneNorm, m, n, a, m) * float64(n) * core.Eps[T]())
}

// newGeevOp builds GEEV with right eigenvectors on a real n×n matrix.
func newGeevOp(rng *rand.Rand, n, threads int) *op {
	a0 := randMat[float64](rng, n, n)
	a := la.NewMatrix[float64](n, n)
	var w []complex128
	var vr *la.Matrix[float64]
	wr, wi, vrbuf := make([]float64, n), make([]float64, n), make([]float64, n*n)
	h, z, scale, tau := make([]float64, n*n), make([]float64, n*n), make([]float64, n), make([]float64, max(0, n-1))
	var ilo, ihi int
	cfg := cfgThreads(threads)
	n3 := float64(n) * float64(n) * float64(n)
	o := &op{name: "GEEV", dtype: "f64", shape: fmt.Sprintf("n=%d right vectors", n), threads: threads, systems: 1, flops: 26.33 * n3}
	o.reset = func() { copy(a.Data, a0) }
	o.la = func() int {
		var err error
		w, _, vr, err = la.GEEV(a, la.WithRight(), la.WithThreads(threads))
		return b2i(err != nil)
	}
	o.f77 = func() int { return b2i(f77.GEEV(false, true, n, a.Data, n, wr, wi, nil, 1, vrbuf, n) != 0) }
	o.lapack = func() int { return b2i(lapack.Geev(cfg, false, true, n, a.Data, n, wr, wi, nil, 1, vrbuf, n) != 0) }
	o.phases = []phase{
		{class: "reduce", routine: "Gehrd", flops: 10.0 / 3 * n3,
			prep: func() { copy(h, a0); ilo, ihi = lapack.Gebal('B', n, h, n, scale) },
			run:  func() { lapack.Gehrd(cfg, n, ilo, ihi, h, n, tau) }},
		{class: "backtransform", routine: "Orghr", flops: 4.0 / 3 * n3,
			prep: func() { copy(z, h) },
			run:  func() { lapack.Orghr(cfg, n, ilo, ihi, z, n, tau) }},
		{class: "iterate", routine: "Hseqr", flops: 20 * n3, run: func() { lapack.Hseqr(cfg, true, n, ilo, ihi, h, n, wr, wi, z, n) }},
	}
	o.verify = func() (worst float64, bad int) {
		if len(w) != n || vr == nil {
			return math.NaN(), 1
		}
		worse(&worst, &bad, geevResidual(n, a0, w, vr.Data))
		return worst, bad
	}
	o.outputs = func() []any { return []any{w, vr.Data} }
	o.blasKey = fmt.Sprintf("f64 n=%d t%d", n, threads)
	o.blas = newBlasReplay[float64](rng.Int63(), threads, [][2]int{{n, n}})
	return o
}

// geevResidual returns ‖A·V − V·Λ‖₁ / (‖A‖₁·‖V‖₁·n·ε) with V unpacked from
// the LAPACK real storage of complex-conjugate eigenvector pairs.
func geevResidual(n int, a []float64, w []complex128, vr []float64) float64 {
	ac, v := make([]complex128, n*n), make([]complex128, n*n)
	for i, x := range a {
		ac[i] = complex(x, 0)
	}
	for j := 0; j < n; j++ {
		if imag(w[j]) == 0 || j+1 == n {
			for i := 0; i < n; i++ {
				v[i+j*n] = complex(vr[i+j*n], 0)
			}
			continue
		}
		for i := 0; i < n; i++ {
			re, im := vr[i+j*n], vr[i+(j+1)*n]
			v[i+j*n], v[i+(j+1)*n] = complex(re, im), complex(re, -im)
		}
		j++
	}
	r := make([]complex128, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			r[i+j*n] = -v[i+j*n] * w[j]
		}
	}
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, n, n, n, 1, ac, n, v, n, 1, r, n)
	one := lapack.OneNorm
	return lapack.Lange(one, n, n, r, n) / (lapack.Lange(one, n, n, ac, n) * lapack.Lange(one, n, n, v, n) * float64(n) * core.EpsDouble)
}

// newLsOp builds GELS (dc false: QR) or GELSD (dc true: QR first, then the
// divide-and-conquer SVD of R) on a tall m×n matrix. f77 has GELSS, which
// runs the QR-iteration SVD, but no GELSD.
func newLsOp[T core.Scalar](rng *rand.Rand, dc bool, m, n, nrhs, threads int) *op {
	a0, b0 := randMat[T](rng, m, n), randMat[T](rng, m, nrhs)
	a, b := la.NewMatrix[T](m, n), la.NewMatrix[T](m, nrhs)
	tau := make([]T, n)
	cfg := cfgThreads(threads)
	fm := flopMul[T]()
	fm_, fn_, fr := float64(m), float64(n), float64(nrhs)
	n3 := fn_ * fn_ * fn_
	fGeqrf := fm * (2*fm_*fn_*fn_ - 2.0/3*n3)
	fOrmqr := fm * fr * (4*fm_*fn_ - 2*fn_*fn_)
	o := &op{dtype: dtypeName[T](), shape: fmt.Sprintf("%dx%d nrhs=%d", m, n, nrhs), threads: threads, systems: 1}
	o.reset = func() { copy(a.Data, a0); copy(b.Data, b0) }
	var rank int
	if !dc {
		o.name = "GELS"
		fTrtrs := fm * fn_ * fn_ * fr
		o.flops = fGeqrf + fOrmqr + fTrtrs
		o.la = func() int { return b2i(la.GELS(a, b, la.WithThreads(threads)) != nil) }
		o.f77 = func() int { return b2i(f77.GELS(f77.NoTrans, m, n, nrhs, a.Data, m, b.Data, m, nil, 0) != 0) }
		o.lapack = func() int { return b2i(lapack.Gels(cfg, lapack.NoTrans, m, n, nrhs, a.Data, m, b.Data, m) != 0) }
		o.phases = []phase{
			{class: "factor", routine: "Geqrf", flops: fGeqrf, run: func() { lapack.Geqrf(cfg, m, n, a.Data, m, tau) }},
			{class: "solve", routine: "Ormqr", flops: fOrmqr, run: func() {
				lapack.Ormqr(cfg, lapack.Left, lapack.ConjTrans, m, nrhs, n, a.Data, m, tau, b.Data, m)
			}},
			{class: "solve", routine: "Trtrs", flops: fTrtrs, run: func() {
				lapack.Trtrs(cfg, lapack.Upper, lapack.NoTrans, lapack.NonUnit, n, nrhs, a.Data, m, b.Data, m)
			}},
		}
		rank = n
	} else {
		o.name = "GELSD"
		s := make([]float64, n)
		r, ur, vt, u := make([]T, n*n), make([]T, n*n), make([]T, n*n), make([]T, m*n)
		d, e, tauq, taup := make([]float64, n), make([]float64, max(0, n-1)), make([]T, n), make([]T, n)
		u0, vt0 := make([]float64, n*n), make([]float64, n*n)
		fOrgqr := fm * (4*fm_*fn_*fn_ - 4.0/3*n3)
		// QR, the n×n SVD as in GESVD, Q·U_R, and the two products that
		// apply the pseudo-inverse.
		o.flops = fGeqrf + fm*(8.0/3+8.0/3+4)*n3 + 8.0/3*n3 + fOrgqr + fm*2*fm_*fn_*fn_ + fm*2*fr*(fm_*fn_+fn_*fn_)
		o.la = func() int {
			var err error
			rank, _, err = la.GELSD(a, b, la.WithThreads(threads))
			return b2i(err != nil)
		}
		o.lapack = func() int {
			_, info := lapack.Gelsd(cfg, m, n, nrhs, a.Data, m, b.Data, m, s, -1)
			return b2i(info != 0)
		}
		var zero T
		o.phases = []phase{
			{class: "factor", routine: "Geqrf", flops: fGeqrf, run: func() { lapack.Geqrf(cfg, m, n, a.Data, m, tau) }},
			{class: "reduce", routine: "Gebrd", flops: fm * 8 / 3 * n3,
				prep: func() { lapack.Laset('A', n, n, zero, zero, r, n); lapack.Lacpy('U', n, n, a.Data, m, r, n) },
				run:  func() { lapack.Gebrd(cfg, n, n, r, n, d, e, tauq, taup) }},
			{class: "iterate", routine: "Bdsdc", flops: 8.0 / 3 * n3, run: func() { lapack.Bdsdc(cfg, n, d, e, u0, n, vt0, n) }},
			{class: "backtransform", routine: "Orgbr/Q", flops: fm * 4 / 3 * n3,
				prep: func() { lapack.Lacpy('L', n, n, r, n, ur, n) },
				run:  func() { lapack.Orgbr(cfg, 'Q', n, n, n, ur, n, tauq) }},
			{class: "backtransform", routine: "Orgbr/P", flops: fm * 4 / 3 * n3,
				prep: func() { lapack.Lacpy('U', n, n, r, n, vt, n) },
				run:  func() { lapack.Orgbr(cfg, 'P', n, n, n, vt, n, taup) }},
			{class: "backtransform", routine: "Orgqr", flops: fOrgqr,
				prep: func() { lapack.Lacpy('L', m, n, a.Data, m, u, m) },
				run:  func() { lapack.Orgqr(cfg, m, n, n, u, m, tau) }},
		}
	}
	o.verify = func() (worst float64, bad int) {
		if rank != n {
			return math.NaN(), 1
		}
		worse(&worst, &bad, lsResidual(m, n, nrhs, a0, b0, b.Data))
		return worst, bad
	}
	o.outputs = func() []any {
		x := make([]T, 0, n*nrhs)
		for j := 0; j < nrhs; j++ {
			x = append(x, b.Data[j*m:j*m+n]...)
		}
		return []any{x}
	}
	o.blasKey = fmt.Sprintf("%s %s t%d", o.dtype, o.shape, threads)
	o.blas = newBlasReplay[T](rng.Int63(), threads, [][2]int{{m, n}})
	return o
}

// lsResidual is the normal-equation test of a least squares solution X (the
// leading n rows of the m×nrhs array x): ‖Aᴴ·(B − A·X)‖₁ over
// ‖A‖₁·(‖A‖₁·‖X‖₁ + ‖B‖₁)·max(m,n)·ε, which a backward-stable solver keeps
// O(1).
func lsResidual[T core.Scalar](m, n, nrhs int, a, b, x []T) float64 {
	one, zero := core.FromFloat[T](1), core.FromFloat[T](0)
	r := append([]T(nil), b...)
	blas.Gemm(nil, blas.NoTrans, blas.NoTrans, m, nrhs, n, -one, a, m, x, m, one, r, m)
	g := make([]T, n*nrhs)
	blas.Gemm(nil, blas.ConjTrans, blas.NoTrans, n, nrhs, m, one, a, m, r, m, zero, g, n)
	l1 := lapack.OneNorm
	anorm := lapack.Lange(l1, m, n, a, m)
	den := anorm * (anorm*lapack.Lange(l1, n, nrhs, x, m) + lapack.Lange(l1, m, nrhs, b, m))
	return lapack.Lange(l1, n, nrhs, g, n) / (den * float64(max(m, n)) * core.Eps[T]())
}

// newBlasReplay returns the Level-3 calls at an op's shapes: for each (m, n)
// a square-ish GEMM, the rank-panelK GEMM the blocked drivers issue, and
// Trsm, Syrk and Trmm against an n×n triangle. Buffers are allocated on first
// use, since only the traced run replays.
func newBlasReplay[T core.Scalar](seed int64, threads int, dims [][2]int) func(rec blasTimer) {
	cfg := cfgThreads(threads)
	// Every system reads the leading corner of the same buffers; the
	// triangle keeps the largest leading dimension so that its corner stays
	// diagonally dominant.
	mm, nn := 0, 0
	for _, d := range dims {
		mm, nn = max(mm, d[0]), max(nn, d[1])
	}
	var a, t, c, c0, s []T
	return func(rec blasTimer) {
		if a == nil {
			rng := rand.New(rand.NewSource(seed))
			a, c0 = randMat[T](rng, mm, nn), randMat[T](rng, mm, nn)
			t = randSym[T](rng, nn, false, float64(nn))
			c, s = make([]T, mm*nn), make([]T, nn*nn)
		}
		one, zero := core.FromFloat[T](1), core.FromFloat[T](0)
		var fGemm, fPanel, fTri float64
		for _, d := range dims {
			m, n := float64(d[0]), float64(d[1])
			fGemm += flopMul[T]() * 2 * m * n * n
			fPanel += flopMul[T]() * 2 * m * n * math.Min(panelK, n)
			fTri += flopMul[T]() * m * n * n
		}
		restore := func() { copy(c, c0) }
		rec("Gemm", fGemm, nil, func() {
			for _, d := range dims {
				blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, d[0], d[1], d[1], one, a, d[0], t, nn, zero, c, d[0])
			}
		})
		rec("Gemm/panel", fPanel, nil, func() {
			for _, d := range dims {
				blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, d[0], d[1], min(panelK, d[1]), one, a, d[0], t, nn, zero, c, d[0])
			}
		})
		rec("Trsm", fTri, restore, func() {
			for _, d := range dims {
				blas.Trsm(cfg, blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, d[0], d[1], one, t, nn, c, d[0])
			}
		})
		rec("Syrk", fTri, nil, func() {
			for _, d := range dims {
				blas.Syrk(cfg, blas.Lower, blas.TransT, d[1], d[0], one, a, d[0], zero, s, d[1])
			}
		})
		rec("Trmm", fTri, restore, func() {
			for _, d := range dims {
				blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, d[0], d[1], one, t, nn, c, d[0])
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

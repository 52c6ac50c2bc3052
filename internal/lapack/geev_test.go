package lapack_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// evalPairs converts (wr, wi) into complex eigenvalues.
func evalPairs(wr, wi []float64) []complex128 {
	out := make([]complex128, len(wr))
	for i := range wr {
		out[i] = complex(wr[i], wi[i])
	}
	return out
}

// checkRightEvecs verifies A·v = λ·v for every eigenpair in LAPACK real
// packing.
func checkRightEvecs(t *testing.T, n int, a []float64, wr, wi []float64, vr []float64, tol float64) {
	t.Helper()
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
	for j := 0; j < n; j++ {
		v := make([]complex128, n)
		if wi[j] == 0 {
			for i := 0; i < n; i++ {
				v[i] = complex(vr[i+j*n], 0)
			}
		} else {
			for i := 0; i < n; i++ {
				v[i] = complex(vr[i+j*n], vr[i+(j+1)*n])
			}
		}
		lambda := complex(wr[j], wi[j])
		res := 0.0
		for i := 0; i < n; i++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += complex(a[i+k*n], 0) * v[k]
			}
			res = math.Max(res, cmplx.Abs(s-lambda*v[i]))
		}
		if res > tol*(anorm+cmplx.Abs(lambda)) {
			t.Fatalf("right eigenpair %d residual %v (λ=%v)", j, res, lambda)
		}
		if wi[j] != 0 {
			j++
		}
	}
}

func TestGeevReal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 25, 50} {
		rng := lapack.NewRng([4]int{n, 3, 3, 3})
		a := testutil.RandGeneral[float64](rng, n, n, n)
		ac := append([]float64(nil), a...)
		wr, wi := make([]float64, n), make([]float64, n)
		vr, vl := make([]float64, n*n), make([]float64, n*n)
		if info := lapack.Geev[float64](tcfg(), true, true, n, ac, n, wr, wi, vl, n, vr, n); info != 0 {
			t.Fatalf("n=%d: geev info=%d", n, info)
		}
		checkRightEvecs(t, n, a, wr, wi, vr, 1e-11*float64(n))
		// Left eigenvectors: uᴴ·A = λ·uᴴ, so Aᵀ·u = λ̄·u.
		at, wic := make([]float64, n*n), make([]float64, n)
		for j := 0; j < n; j++ {
			wic[j] = -wi[j]
			for i := 0; i < n; i++ {
				at[j+i*n] = a[i+j*n]
			}
		}
		checkRightEvecs(t, n, at, wr, wic, vl, 1e-10*float64(n))
		// Trace invariant.
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += a[i+i*n]
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += wr[i]
		}
		if math.Abs(tr-sum) > 1e-10*float64(n)*(1+math.Abs(tr)) {
			t.Fatalf("n=%d: trace %v vs eigenvalue sum %v", n, tr, sum)
		}
	}
}

func TestGeevRotationMatrix(t *testing.T) {
	// 2D rotation by θ has eigenvalues cos θ ± i sin θ.
	th := 0.3
	a := []float64{math.Cos(th), math.Sin(th), -math.Sin(th), math.Cos(th)}
	wr, wi := make([]float64, 2), make([]float64, 2)
	if info := lapack.Geev[float64](tcfg(), false, false, 2, a, 2, wr, wi, nil, 0, nil, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	if math.Abs(wr[0]-math.Cos(th)) > 1e-14 || math.Abs(math.Abs(wi[0])-math.Sin(th)) > 1e-14 {
		t.Fatalf("eigenvalues (%v,%v), (%v,%v)", wr[0], wi[0], wr[1], wi[1])
	}
	if wi[0] != -wi[1] {
		t.Fatalf("pair not conjugate: %v %v", wi[0], wi[1])
	}
}

func TestGeevCompanion(t *testing.T) {
	// Companion matrix of p(x) = x³ − 6x² + 11x − 6 = (x−1)(x−2)(x−3).
	n := 3
	a := make([]float64, n*n)
	a[0+2*n], a[1+2*n], a[2+2*n], a[1], a[2+n] = 6, -11, 6, 1, 1
	wr, wi := make([]float64, n), make([]float64, n)
	if info := lapack.Geev[float64](tcfg(), false, false, n, a, n, wr, wi, nil, 0, nil, 0); info != 0 {
		t.Fatalf("info=%d", info)
	}
	sort.Float64s(wr)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(wr[i]-want) > 1e-10 || math.Abs(wi[i]) > 1e-10 {
			t.Fatalf("roots %v / %v", wr, wi)
		}
	}
}

func TestGeevComplex(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 30} {
		rng := lapack.NewRng([4]int{n, 7, 7, 7})
		a := testutil.RandGeneral[complex128](rng, n, n, n)
		ac := append([]complex128(nil), a...)
		w := make([]complex128, n)
		vr, vl := make([]complex128, n*n), make([]complex128, n*n)
		if info := lapack.GeevC[complex128](tcfg(), true, true, n, ac, n, w, vl, n, vr, n); info != 0 {
			t.Fatalf("n=%d: geevc info=%d", n, info)
		}
		anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
		for j := 0; j < n; j++ {
			res, lres := 0.0, 0.0
			for i := 0; i < n; i++ {
				var s, sl complex128
				for k := 0; k < n; k++ {
					s += a[i+k*n] * vr[k+j*n]
					sl += cmplx.Conj(vl[k+j*n]) * a[k+i*n]
				}
				res = math.Max(res, cmplx.Abs(s-w[j]*vr[i+j*n]))
				lres = math.Max(lres, cmplx.Abs(sl-w[j]*cmplx.Conj(vl[i+j*n])))
			}
			if res > 1e-11*float64(n)*(anorm+cmplx.Abs(w[j])) {
				t.Fatalf("n=%d right pair %d residual %v", n, j, res)
			}
			if lres > 1e-10*float64(n)*(anorm+cmplx.Abs(w[j])) {
				t.Fatalf("n=%d left pair %d residual %v", n, j, lres)
			}
		}
	}
}

func TestGeevFloat32(t *testing.T) {
	n := 8
	rng := lapack.NewRng([4]int{8, 8, 8, 8})
	a := testutil.RandGeneral[float32](rng, n, n, n)
	a64 := make([]float64, n*n)
	for i := range a {
		a64[i] = float64(a[i])
	}
	wr, wi := make([]float64, n), make([]float64, n)
	vr := make([]float32, n*n)
	if info := lapack.Geev[float32](tcfg(), false, true, n, a, n, wr, wi, nil, 0, vr, n); info != 0 {
		t.Fatalf("info=%d", info)
	}
	vr64 := make([]float64, n*n)
	for i := range vr {
		vr64[i] = float64(vr[i])
	}
	checkRightEvecs(t, n, a64, wr, wi, vr64, 1e-5)
}

func schurResidual[T core.Scalar](n int, a, tm, z []T) float64 {
	// ‖A − Z·T·Zᴴ‖₁ / (‖A‖₁ n ε)
	tmp, rec := make([]T, n*n), make([]T, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, 1, z, n, tm, n, 0, tmp, n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.ConjTrans, n, n, n, 1, tmp, n, z, n, 0, rec, n)
	for i := range rec {
		rec[i] -= a[i]
	}
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
	if anorm == 0 {
		anorm = 1
	}
	return lapack.Lange(lapack.OneNorm, n, n, rec, n) / (anorm * float64(n) * core.EpsDouble)
}

func TestGeesReal(t *testing.T) {
	for _, n := range []int{1, 2, 6, 20, 40} {
		rng := lapack.NewRng([4]int{n, 9, 1, 1})
		a := testutil.RandGeneral[float64](rng, n, n, n)
		tm := append([]float64(nil), a...)
		w := make([]complex128, n)
		vs := make([]float64, n*n)
		info := lapack.Geesx(tcfg(), false, nil, n, tm, n, w, vs, n).Info
		if info != 0 {
			t.Fatalf("n=%d gees info=%d", n, info)
		}
		if r := testutil.OrthoResidual(n, n, vs, n); r > thresh {
			t.Fatalf("n=%d Schur vectors orthogonality %v", n, r)
		}
		if r := schurResidual(n, a, tm, vs); r > 10*thresh {
			t.Fatalf("n=%d Schur residual %v", n, r)
		}
		// T must be quasi-triangular: nothing below the first subdiagonal,
		// and no two consecutive nonzero subdiagonals.
		for j := 0; j < n; j++ {
			for i := j + 2; i < n; i++ {
				if tm[i+j*n] != 0 {
					t.Fatalf("n=%d: T(%d,%d) = %v below subdiagonal", n, i, j, tm[i+j*n])
				}
			}
		}
		for i := 0; i < n-2; i++ {
			if tm[i+1+i*n] != 0 && tm[i+2+(i+1)*n] != 0 {
				t.Fatalf("n=%d: consecutive 2x2 blocks at %d", n, i)
			}
		}
	}
}

// TestGeevIsolated: Gebal isolates every eigenvalue of a triangular matrix,
// and Hseqr must still report them.
func TestGeevIsolated(t *testing.T) {
	a := []float64{1, 0, 0, 2, 3, 0, 4, 5, 6}
	wr, wi, vr := make([]float64, 3), make([]float64, 3), make([]float64, 9)
	info := lapack.Geev(tcfg(), false, true, 3, append([]float64(nil), a...), 3, wr, wi, nil, 1, vr, 3)
	w := make([]complex128, 3)
	lapack.GeevC(tcfg(), false, false, 3, []complex128{1, 0, 0, 2, 3, 0, 4, 5, 6}, 3, w, nil, 1, nil, 1)
	if info != 0 || wr[1] != 3 || wr[2] != 6 || w[1] != 3 || w[2] != 6 {
		t.Fatalf("info %d, eigenvalues %v and %v, want the diagonal 1 3 6", info, wr, w)
	}
	checkRightEvecs(t, 3, a, wr, wi, vr, 1e-14)
}

// TestSchurToComplex: the complex triangular form that RCONDV builds from a
// real Schur form, one rotation per 2×2 block, carries w on its diagonal in
// order and is unitarily similar to T.
func TestSchurToComplex(t *testing.T) {
	n := 12
	tm := testutil.RandGeneral[float64](lapack.NewRng([4]int{n, 2, 4, 8}), n, n, n)
	w := make([]complex128, n)
	lapack.Geesx(tcfg(), false, nil, n, tm, n, w, nil, 1)
	t0, tc, z := make([]complex128, n*n), make([]complex128, n*n), make([]complex128, n*n)
	for i, v := range tm {
		t0[i] = complex(v, 0)
	}
	copy(tc, t0)
	lapack.Laset('A', n, n, 0, 1, z, n)
	lapack.SchurToComplex(n, tc, n, w, z, n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if tc[i+j*n] != 0 {
				t.Fatalf("T(%d,%d) = %v below the diagonal", i, j, tc[i+j*n])
			}
		}
		if tc[j+j*n] != w[j] {
			t.Fatalf("T(%d,%d) = %v, want w = %v", j, j, tc[j+j*n], w[j])
		}
	}
	if r := schurResidual(n, t0, tc, z); r > 10*thresh {
		t.Fatalf("complex Schur residual %v", r)
	}
}

// TestReorderFieldsAgree: a real matrix and the same matrix as complex128
// move the same eigenvalues to the top left.
func TestReorderFieldsAgree(t *testing.T) {
	n := 16
	a := testutil.RandGeneral[float64](lapack.NewRng([4]int{n, 6, 1, 9}), n, n, n)
	ac := make([]complex128, n*n)
	for i, v := range a {
		ac[i] = complex(v, 0)
	}
	w, wc := make([]complex128, n), make([]complex128, n)
	sel := func(re, im float64) bool { return re > 0 }
	sdim, sdimc := lapack.Geesx(tcfg(), false, sel, n, a, n, w, nil, 1).SDim, lapack.Geesx(tcfg(), false, sel, n, ac, n, wc, nil, 1).SDim
	near := func(x []complex128, v complex128) bool {
		for _, u := range x {
			if cmplx.Abs(u-v) < 1e-12*float64(n) {
				return true
			}
		}
		return false
	}
	for i := 0; i < sdim; i++ {
		if sdim != sdimc || !near(wc[:sdim], w[i]) || !near(w[:sdim], wc[i]) {
			t.Fatalf("SDim %d and %d, selected %v and %v", sdim, sdimc, w[:sdim], wc[:sdimc])
		}
	}
}

func TestGeesSelect(t *testing.T) {
	// Reorder eigenvalues with positive real part to the top.
	for _, n := range []int{4, 9, 16, 25} {
		rng := lapack.NewRng([4]int{n, 4, 2, 0})
		a := testutil.RandGeneral[float64](rng, n, n, n)
		tm := append([]float64(nil), a...)
		w := make([]complex128, n)
		vs := make([]float64, n*n)
		sel := func(re, im float64) bool { return re > 0 }
		res := lapack.Geesx(tcfg(), false, sel, n, tm, n, w, vs, n)
		sdim, info := res.SDim, res.Info
		if info != 0 {
			t.Fatalf("n=%d gees(select) info=%d", n, info)
		}
		// Schur form still valid.
		if r := schurResidual(n, a, tm, vs); r > 20*thresh {
			t.Fatalf("n=%d reordered Schur residual %v", n, r)
		}
		// Count positives and verify they are leading.
		want := 0
		for i := 0; i < n; i++ {
			if real(w[i]) > 0 {
				want++
			}
		}
		if sdim != want {
			t.Fatalf("n=%d sdim=%d want %d (w=%v)", n, sdim, want, w)
		}
		for i := 0; i < sdim; i++ {
			if real(w[i]) <= 0 {
				t.Fatalf("n=%d: eigenvalue %d (%v) not positive after reorder", n, i, w[i])
			}
		}
	}
}

func TestGeesComplex(t *testing.T) {
	for _, n := range []int{1, 3, 10, 24} {
		rng := lapack.NewRng([4]int{n, 5, 5, 5})
		a := testutil.RandGeneral[complex128](rng, n, n, n)
		tm := append([]complex128(nil), a...)
		w := make([]complex128, n)
		vs := make([]complex128, n*n)
		info := lapack.Geesx(tcfg(), false, nil, n, tm, n, w, vs, n).Info
		if info != 0 {
			t.Fatalf("n=%d geesc info=%d", n, info)
		}
		if r := testutil.OrthoResidual(n, n, vs, n); r > thresh {
			t.Fatalf("n=%d Z orthogonality %v", n, r)
		}
		if r := schurResidual(n, a, tm, vs); r > 10*thresh {
			t.Fatalf("n=%d complex Schur residual %v", n, r)
		}
		// Strictly upper triangular T.
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				if tm[i+j*n] != 0 {
					t.Fatalf("n=%d: T(%d,%d) nonzero", n, i, j)
				}
			}
		}
		// Select ordering by |λ| > median-ish cutoff.
		cutoff := 0.0
		for _, v := range w {
			cutoff += cmplx.Abs(v)
		}
		cutoff /= float64(n)
		tm2 := append([]complex128(nil), a...)
		w2 := make([]complex128, n)
		vs2 := make([]complex128, n*n)
		sel := func(re, im float64) bool { return math.Hypot(re, im) > cutoff }
		res := lapack.Geesx(tcfg(), false, sel, n, tm2, n, w2, vs2, n)
		if res.Info != 0 {
			t.Fatalf("n=%d geesc(select) info=%d", n, res.Info)
		}
		for i := 0; i < res.SDim; i++ {
			if !sel(real(w2[i]), imag(w2[i])) {
				t.Fatalf("n=%d: reordered eigenvalue %d not selected", n, i)
			}
		}
		if r := schurResidual(n, a, tm2, vs2); r > 20*thresh {
			t.Fatalf("n=%d reordered complex Schur residual %v", n, r)
		}
	}
}

func TestGebalIdentityInvariance(t *testing.T) {
	// Balancing must preserve eigenvalues: compare geev on a badly scaled
	// matrix against the scaled-by-hand version.
	n := 6
	rng := lapack.NewRng([4]int{6, 6, 1, 2})
	a := testutil.RandGeneral[float64](rng, n, n, n)
	// Bad scaling: D·A·D⁻¹ with D = diag(10^k).
	b := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b[i+j*n] = a[i+j*n] * math.Pow(10, float64(i-j))
		}
	}
	wr1, wi1 := make([]float64, n), make([]float64, n)
	ac := append([]float64(nil), a...)
	lapack.Geev[float64](tcfg(), false, false, n, ac, n, wr1, wi1, nil, 0, nil, 0)
	wr2, wi2 := make([]float64, n), make([]float64, n)
	lapack.Geev[float64](tcfg(), false, false, n, b, n, wr2, wi2, nil, 0, nil, 0)
	sort.Float64s(wr1)
	sort.Float64s(wr2)
	for i := range wr1 {
		if math.Abs(wr1[i]-wr2[i]) > 1e-7*(1+math.Abs(wr1[i])) {
			t.Fatalf("balanced eigenvalues differ at %d: %v vs %v", i, wr1[i], wr2[i])
		}
	}
}

// TestHseqrRoutesAgree runs the double-shift QR iteration with Schur vectors
// on every row of the kernel table — the asm reflector kernels and the
// portable loops (what LA90_NO_ASM=1 selects): each row's Schur form reproduces
// the matrix and has orthogonal vectors to the Appendix-F ratios, and the
// spectra agree with the selected row's to n·ε·‖A‖
// times the slack a nonsymmetric spectrum's conditioning needs.
func TestHseqrRoutesAgree(t *testing.T) {
	for _, n := range []int{4, 37, 120} {
		rng := lapack.NewRng([4]int{n, 7, 7, 9})
		a := testutil.RandGeneral[float64](rng, n, n, n)
		h0 := append([]float64(nil), a...)
		tau := make([]float64, n-1)
		lapack.Gehrd(tcfg(), n, 0, n-1, h0, n, tau)
		z0 := append([]float64(nil), h0...)
		lapack.Orghr(tcfg(), n, 0, n-1, z0, n, tau)
		var spectra [3][]complex128
		diff.OnRows(t, func(r diff.Row) {
			h, z := append([]float64(nil), h0...), append([]float64(nil), z0...)
			wr, wi := make([]float64, n), make([]float64, n)
			info := lapack.Hseqr(tcfg(), true, n, 0, n-1, h, n, wr, wi, z, n)
			// The same iteration in a leading dimension with rows to spare —
			// the row leaves then run their last group of columns vectorised
			// too — must land on the same Schur form.
			const pad = 5
			hp, zp := make([]float64, (n+pad)*n), make([]float64, (n+pad)*n)
			lapack.Lacpy('A', n, n, h0, n, hp, n+pad)
			lapack.Lacpy('A', n, n, z0, n, zp, n+pad)
			wrp, wip := make([]float64, n), make([]float64, n)
			infop := lapack.Hseqr(tcfg(), true, n, 0, n-1, hp, n+pad, wrp, wip, zp, n+pad)
			lapack.Lacpy('A', n, n, hp, n+pad, hp, n)
			if infop != info || diff.MaxDiff(hp[:n*n], h) > 1e3*float64(n)*core.EpsDouble*lapack.Lange(lapack.MaxAbs, n, n, a, n) {
				t.Errorf("n=%d %v row: Schur form depends on the leading dimension (info %d/%d)", n, r, info, infop)
			}
			if info != 0 {
				t.Fatalf("n=%d %v row: hseqr info=%d", n, r, info)
			}
			if res := testutil.OrthoResidual(n, n, z, n); res > thresh {
				t.Errorf("n=%d %v row: Schur vectors orthogonality %v", n, r, res)
			}
			if res := schurResidual(n, a, h, z); res > 10*thresh {
				t.Errorf("n=%d %v row: Schur residual %v", n, r, res)
			}
			w := evalPairs(wr, wi)
			sort.Slice(w, func(i, j int) bool {
				if real(w[i]) != real(w[j]) {
					return real(w[i]) < real(w[j])
				}
				return imag(w[i]) < imag(w[j])
			})
			spectra[r] = w
		})
		tol := 1e3 * float64(n) * core.EpsDouble * lapack.Lange(lapack.OneNorm, n, n, a, n)
		for r, w := range spectra[1:] {
			for i := range w {
				if cmplx.Abs(spectra[0][i]-w[i]) > tol {
					t.Errorf("n=%d: eigenvalue %d is %v on the selected row, %v on the %v row", n, i, spectra[0][i], w[i], diff.Row(r+1))
				}
			}
		}
	}
}

// TestGeevNormalisationRange is the regression test of the eigenvector
// normalisation: on a matrix scaled by 2^±520 whose balancing spreads the
// rows of the back-transformed vectors over 2^±300 more, a bare Σv² overflows
// (or underflows to zero) where the vector itself is representable. Every
// eigenvector must come back finite, of unit norm, with its largest component
// real, and satisfy A·v = λ·v to a residual ratio under 10.
func TestGeevNormalisationRange(t *testing.T) {
	const n = 24
	for _, shift := range []int{520, -520} {
		for _, grade := range []int{0, 300} {
			name := fmt.Sprintf("2^%d/grade=%d", shift, grade)
			// A = 2^shift · D·A0·D⁻¹, D = diag(2^(grade·i/n)): Gebal undoes D,
			// Gebak puts it back into the vectors.
			a0 := testutil.RandGeneral[float64](lapack.NewRng([4]int{n, 5, 2, 0}), n, n, n)
			ar, ac := make([]float64, n*n), make([]complex128, n*n)
			rng := lapack.NewRng([4]int{n, 5, 2, 1})
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					e := shift + grade*i/n - grade*j/n
					ar[i+j*n] = math.Ldexp(a0[i+j*n], e)
					ac[i+j*n] = complex(ar[i+j*n], math.Ldexp(rng.Uniform11(), e))
				}
			}
			check := func(kind string, a []complex128, w []complex128, v []complex128) {
				t.Helper()
				anorm := 0.0 // ‖A‖₁ / 2^shift
				for j := 0; j < n; j++ {
					s := 0.0
					for i := 0; i < n; i++ {
						s += cmplx.Abs(a[i+j*n]) * math.Ldexp(1, -shift)
					}
					anorm = math.Max(anorm, s)
				}
				for j := 0; j < n; j++ {
					x := v[j*n : (j+1)*n]
					nrm, big, isReal := 0.0, 0, true
					for i, c := range x {
						if cmplx.IsNaN(c) || cmplx.IsInf(c) {
							t.Fatalf("%s %s: vector %d not finite", name, kind, j)
						}
						nrm += real(c)*real(c) + imag(c)*imag(c)
						isReal = isReal && imag(c) == 0
						if cmplx.Abs(c) > cmplx.Abs(x[big]) {
							big = i
						}
					}
					if math.Abs(math.Sqrt(nrm)-1) > 10*n*core.EpsDouble {
						t.Errorf("%s %s: vector %d has norm %v", name, kind, j, math.Sqrt(nrm))
					}
					if imag(x[big]) != 0 || (!isReal && real(x[big]) <= 0) {
						t.Errorf("%s %s: largest component of vector %d is %v", name, kind, j, x[big])
					}
					res := 0.0
					lambda := w[j] * complex(math.Ldexp(1, -shift), 0)
					for i := 0; i < n; i++ {
						var s complex128
						for k := 0; k < n; k++ {
							s += a[i+k*n] * complex(math.Ldexp(1, -shift), 0) * x[k]
						}
						res += cmplx.Abs(s - lambda*x[i])
					}
					if ratio := res / (anorm * n * core.EpsDouble); ratio > 10 {
						t.Errorf("%s %s: eigenpair %d residual ratio %.3g", name, kind, j, ratio)
					}
				}
			}
			// Real driver: unpack the (re, im) column pairs.
			wr, wi, vr := make([]float64, n), make([]float64, n), make([]float64, n*n)
			if info := lapack.Geev(tcfg(), false, true, n, append([]float64(nil), ar...), n, wr, wi, nil, 1, vr, n); info != 0 {
				t.Fatalf("%s: Geev info=%d", name, info)
			}
			w, v, af := make([]complex128, n), make([]complex128, n*n), make([]complex128, n*n)
			for i, x := range ar {
				af[i] = complex(x, 0)
			}
			for j := 0; j < n; j++ {
				w[j] = complex(wr[j], wi[j])
				for i := 0; i < n; i++ {
					switch {
					case wi[j] > 0:
						v[i+j*n] = complex(vr[i+j*n], vr[i+(j+1)*n])
					case wi[j] < 0:
						v[i+j*n] = complex(vr[i+(j-1)*n], -vr[i+j*n])
					default:
						v[i+j*n] = complex(vr[i+j*n], 0)
					}
				}
			}
			check("real", af, w, v)
			if info := lapack.GeevC(tcfg(), false, true, n, append([]complex128(nil), ac...), n, w, nil, 1, v, n); info != 0 {
				t.Fatalf("%s: GeevC info=%d", name, info)
			}
			check("complex", ac, w, v)
		}
	}
}

package lapack_test

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil"
	"repro/internal/testutil/diff"
)

// bdsdcCheck runs Bdsdc on the given bidiagonal and verifies the three
// D&C-vs-QR-iteration acceptance properties: singular values agree with
// Bdsqr to ~n·eps·σ₀, U and Vᵀ are orthogonal to ~n·eps, and U·Σ·Vᵀ
// reconstructs B.
func bdsdcCheck(t *testing.T, n int, d, e []float64) {
	t.Helper()
	eps := core.EpsDouble
	// Reference spectrum by QR iteration.
	dq := append([]float64(nil), d...)
	eq := append([]float64(nil), e...)
	if info := lapack.Bdsqr[float64](tcfg(), n, dq, eq, nil, 0, 0, nil, 0, 0); info != 0 {
		t.Fatalf("bdsqr info=%d", info)
	}
	dc := append([]float64(nil), d...)
	ec := append([]float64(nil), e...)
	u := make([]float64, n*n)
	vt := make([]float64, n*n)
	if info := lapack.Bdsdc(tcfg(), n, dc, ec, u, n, vt, n); info != 0 {
		t.Fatalf("bdsdc info=%d", info)
	}
	// The same tree with the dense-GEMM merges it had before they learnt the
	// children's block structure (dc_ref_test.go).
	dr, er := append([]float64(nil), d...), append([]float64(nil), e...)
	if info := lapack.BdsdcDenseRef(tcfg(), n, dr, er, make([]float64, n*n), n, make([]float64, n*n), n); info != 0 {
		t.Fatalf("dense-merge reference info=%d", info)
	}
	s0 := math.Max(dq[0], 1e-300)
	for i := 0; i < n; i++ {
		if math.Abs(dc[i]-dr[i]) > float64(n)*eps*s0 {
			t.Fatalf("s[%d]: structured merges %v, dense merges %v", i, dc[i], dr[i])
		}
		if dc[i] < 0 {
			t.Fatalf("negative singular value s[%d]=%v", i, dc[i])
		}
		if i > 0 && dc[i] > dc[i-1]*(1+1e-13) {
			t.Fatalf("singular values not descending at %d: %v > %v", i, dc[i], dc[i-1])
		}
		if math.Abs(dc[i]-dq[i]) > 40*float64(n)*eps*s0 {
			t.Fatalf("s[%d]: dc=%v qr=%v (diff %v)", i, dc[i], dq[i], math.Abs(dc[i]-dq[i]))
		}
	}
	// OrthoResidual is already normalized by n·eps.
	const northo = 30.0
	if r := testutil.OrthoResidual(n, n, u, n); r > northo {
		t.Fatalf("U orthogonality %v > %v", r, northo)
	}
	if r := testutil.OrthoResidual(n, n, vt, n); r > northo {
		t.Fatalf("VT orthogonality %v > %v", r, northo)
	}
	// Reconstruction ‖U·Σ·Vᵀ − B‖max ≤ ~n·eps·σ₀.
	us := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			us[i+j*n] = u[i+j*n] * dc[j]
		}
	}
	rec := make([]float64, n*n)
	blas.Gemm(tcfg(), blas.NoTrans, blas.NoTrans, n, n, n, 1.0, us, n, vt, n, 0.0, rec, n)
	b := make([]float64, n*n)
	for i := 0; i < n; i++ {
		b[i+i*n] = d[i]
		if i < n-1 {
			b[i+(i+1)*n] = e[i]
		}
	}
	if diff := diff.MaxDiff(rec, b); diff > 40*float64(n)*eps*s0 {
		t.Fatalf("reconstruction diff %v (σ₀=%v)", diff, s0)
	}
}

func TestBdsdcRandom(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 24, 25, 26, 40, 64, 90} {
		rng := lapack.NewRng([4]int{n, 11, 12, 13})
		d := make([]float64, n)
		e := make([]float64, max(0, n-1))
		lapack.Larnv(2, rng, n, d)
		lapack.Larnv(2, rng, max(0, n-1), e)
		bdsdcCheck(t, n, d, e)
	}
}

func TestBdsdcGraded(t *testing.T) {
	// Graded diagonal 2^0 .. 2^-50: exercises the wide dynamic range where
	// the squared-value secular solve is most stressed.
	n := 60
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 0; i < n; i++ {
		d[i] = math.Pow(2, -float64(i)*50/float64(n-1))
		if i < n-1 {
			e[i] = d[i] * 0.25
		}
	}
	bdsdcCheck(t, n, d, e)
}

func TestBdsdcDeflationHeavy(t *testing.T) {
	// Clustered singular values (near-identical diagonal, tiny coupling):
	// nearly every merge entry deflates by rule 1 or rule 2.
	n := 70
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := 0; i < n; i++ {
		d[i] = 3 + 1e-14*float64(i%5)
		if i < n-1 {
			e[i] = 1e-13
		}
	}
	bdsdcCheck(t, n, d, e)

	// Exact zeros on the diagonal (rank deficiency).
	for i := 0; i < n; i += 7 {
		d[i] = 0
	}
	for i := range e {
		e[i] = 0.5
	}
	bdsdcCheck(t, n, d, e)

	// Glued Wilkinson-type bidiagonals: clusters of singular values across
	// the tears and inside the halves, so the two-sided rule-2 rotations mix
	// columns of both children.
	for _, glue := range []float64{1e-3, 1e-8, 1e-14} {
		d, e := gluedWilkinson(8, 5, glue)
		for i := range d {
			d[i]++ // keep the diagonal away from zero
		}
		bdsdcCheck(t, len(d), d, e)
	}

	// All-deflating: the couplings across every tear are far below the
	// threshold, so every merge passes all of its columns through.
	n = 131
	rng := lapack.NewRng([4]int{n, 5, 1, 9})
	d, e = make([]float64, n), make([]float64, n-1)
	for i := range d {
		d[i] = 1 + rng.Uniform()
		if i < n-1 {
			e[i] = 1e-18 * rng.Uniform11()
		}
	}
	bdsdcCheck(t, n, d, e)
}

func TestBdsdcSigns(t *testing.T) {
	// Negative bidiagonal entries must not break the value/vector pairing.
	n := 33
	rng := lapack.NewRng([4]int{7, 5, 3, 1})
	d := make([]float64, n)
	e := make([]float64, n-1)
	lapack.Larnv(2, rng, n, d)
	lapack.Larnv(2, rng, n-1, e)
	for i := range d {
		if i%3 == 0 {
			d[i] = -d[i]
		}
	}
	for i := range e {
		if i%2 == 0 {
			e[i] = -e[i]
		}
	}
	bdsdcCheck(t, n, d, e)
}

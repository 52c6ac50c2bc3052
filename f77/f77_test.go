package f77_test

import (
	"math"
	"testing"

	"repro/f77"
	"repro/internal/lapack"
	"repro/la"
)

// TestExample1Figure1 reproduces the paper's Figure 1 (Example 1): the
// explicit-argument F77 interface solving A·X = B with N = 5, NRHS = 2,
// random A and B(:,j) = j·rowsums(A), so X(:,j) = j·ones.
func TestExample1Figure1(t *testing.T) {
	n, nrhs := 5, 2
	rng := lapack.NewRng([4]int{1998, 3, 28, 1})
	lda, ldb := n, n
	a := make([]float64, lda*n)
	lapack.Larnv(1, rng, lda*n, a) // RANDOM_NUMBER: uniform (0,1)
	b := make([]float64, ldb*nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += a[i+k*lda]
			}
			b[i+j*ldb] = sum * float64(j+1)
		}
	}
	ipiv := make([]int, n)
	info := f77.GESV(n, nrhs, a, lda, ipiv, b, ldb)
	if info != 0 {
		t.Fatalf("INFO = %d", info)
	}
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(b[i+j*ldb]-float64(j+1)) > 1e-10 {
				t.Fatalf("X(%d,%d) = %v, want %d", i, j, b[i+j*ldb], j+1)
			}
		}
	}
	// IPIV is 1-based as in LAPACK 77.
	for i, p := range ipiv {
		if p < 1 || p > n {
			t.Fatalf("ipiv[%d] = %d not 1-based in range", i, p)
		}
	}
}

// TestF77AgreesWithLA90 checks the paper's Example 3 invariant: the
// F77 interface and the F90 interface compute identical answers on the
// same data (they drive the same computational core).
func TestF77AgreesWithLA90(t *testing.T) {
	n, nrhs := 50, 3
	rng := lapack.NewRng([4]int{7, 7, 7, 7})
	a77 := make([]float64, n*n)
	lapack.Larnv(1, rng, n*n, a77)
	b77 := make([]float64, n*nrhs)
	lapack.Larnv(1, rng, n*nrhs, b77)

	a90 := la.NewMatrix[float64](n, n)
	copy(a90.Data, a77)
	b90 := la.NewMatrix[float64](n, nrhs)
	copy(b90.Data, b77)

	ipiv := make([]int, n)
	if info := f77.GESV(n, nrhs, a77, n, ipiv, b77, n); info != 0 {
		t.Fatalf("f77 info=%d", info)
	}
	ipiv90, err := la.GESV(a90, b90)
	if err != nil {
		t.Fatalf("la: %v", err)
	}
	for i := 0; i < n*nrhs; i++ {
		if b77[i] != b90.Data[i] {
			t.Fatalf("solutions differ at %d: %v vs %v", i, b77[i], b90.Data[i])
		}
	}
	for i := range ipiv {
		if ipiv[i] != ipiv90[i]+1 {
			t.Fatalf("pivots differ at %d: f77 %d vs la %d (0-based)", i, ipiv[i], ipiv90[i])
		}
	}
}

func TestF77Primitives(t *testing.T) {
	// GETRF + GETRS + GETRI round trip through the F77 signatures.
	n := 6
	rng := lapack.NewRng([4]int{2, 4, 6, 8})
	a := make([]float64, n*n)
	lapack.Larnv(2, rng, n*n, a)
	orig := append([]float64(nil), a...)
	ipiv := make([]int, n)
	if info := f77.GETRF(n, n, a, n, ipiv); info != 0 {
		t.Fatalf("getrf info=%d", info)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += orig[i+j*n] * x[j]
		}
	}
	if info := f77.GETRS(f77.NoTrans, n, 1, a, n, ipiv, b, n); info != 0 {
		t.Fatalf("getrs info=%d", info)
	}
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-10 {
			t.Fatalf("solve error at %d", i)
		}
	}
	work := make([]float64, n*f77.ILAENV(1, "GETRI", n, -1, -1, -1))
	if info := f77.GETRI(n, a, n, ipiv, work, len(work)); info != 0 {
		t.Fatalf("getri info=%d", info)
	}
	// A·A⁻¹ = I spot check.
	for i := 0; i < n; i++ {
		s := 0.0
		for k := 0; k < n; k++ {
			s += orig[i+k*n] * a[k+i*n]
		}
		if math.Abs(s-1) > 1e-10 {
			t.Fatalf("inverse diagonal %d: %v", i, s)
		}
	}

	// LAMCH matches the paper's machine epsilon for single precision.
	if eps := f77.LAMCH[float32]('E'); math.Abs(eps-1.1920928955078125e-07) > 0 {
		t.Fatalf("slamch eps = %v", eps)
	}
	if eps := f77.LAMCH[float64]('E'); eps != 0x1p-52 {
		t.Fatalf("dlamch eps = %v", eps)
	}

	// SYEV and GESVD through the F77 signatures.
	h := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			v := orig[i+j*n] + orig[j+i*n]
			h[i+j*n] = v
			h[j+i*n] = v
		}
	}
	w := make([]float64, n)
	if info := f77.SYEV[float64](true, f77.Upper, n, h, n, w); info != 0 {
		t.Fatalf("syev info=%d", info)
	}
	s := make([]float64, n)
	g := append([]float64(nil), orig...)
	if info := f77.GESVD('N', 'N', n, n, g, n, s, nil, 1, nil, 1); info != 0 {
		t.Fatalf("gesvd info=%d", info)
	}
	for i := 1; i < n; i++ {
		if s[i] > s[i-1] {
			t.Fatal("singular values not sorted")
		}
	}

	// The stored-matrix rule on every routine, at LAPACK 77's argument
	// positions: a leading dimension below the rows of its matrix (2 < 3),
	// an array too short for its matrix, or a negative dimension is
	// INFO = -i before any work.
	z := func(k int) []float64 { return make([]float64, k) }
	c := func(k int) []complex128 { return make([]complex128, k) }
	p, w3, s3, e2, cw := make([]int, 3), z(3), z(3), z(2), c(3)
	for _, pr := range []struct {
		name string
		want int
		info int
	}{
		{"GETRF", -4, f77.GETRF(3, 3, z(9), 2, p)},
		{"GETRS", -8, f77.GETRS(f77.NoTrans, 3, 1, z(9), 3, p, z(3), 2)},
		{"GETRI", -3, f77.GETRI(3, z(9), 2, p, z(9), 9)},
		{"GESV LDA", -4, f77.GESV(3, 1, z(9), 2, p, z(3), 3)},
		{"GESV LDB", -7, f77.GESV(3, 1, z(9), 3, p, z(3), 2)},
		{"GESV N", -1, f77.GESV(-1, 1, z(9), 3, p, z(3), 3)},
		{"POTRF", -4, f77.POTRF(f77.Upper, 3, z(9), 2)},
		{"POTRS", -7, f77.POTRS(f77.Upper, 3, 1, z(9), 3, z(3), 2)},
		{"POSV", -5, f77.POSV(f77.Upper, 3, 1, z(9), 2, z(3), 3)},
		{"GBSV", -6, f77.GBSV(3, 1, 1, 1, z(12), 3, p, z(3), 3)},
		{"GTSV", -7, f77.GTSV(3, 1, z(2), z(3), z(2), z(3), 2)},
		{"PTSV", -5, f77.PTSV(3, 1, z(3), z(2), z(2), 3)},
		{"PPSV", -6, f77.PPSV(f77.Upper, 3, 1, z(6), z(3), 2)},
		{"PBSV", -6, f77.PBSV(f77.Upper, 3, 1, 1, z(6), 1, z(3), 3)},
		{"SYSV", -8, f77.SYSV(f77.Upper, 3, 1, z(9), 3, p, z(3), 2)},
		{"HESV", -5, f77.HESV(f77.Upper, 3, 1, c(9), 2, p, c(3), 3)},
		{"GELS", -8, f77.GELS(f77.NoTrans, 3, 2, 1, z(6), 3, z(2), 2, nil, 0)},
		{"SYEV", -5, f77.SYEV(true, f77.Upper, 3, z(9), 2, w3)},
		{"SYEVD", -4, f77.SYEVD(false, f77.Upper, 3, z(8), 3, w3)},
		{"GESVD", -9, f77.GESVD('S', 'S', 3, 3, z(9), 3, s3, z(9), 2, z(9), 3)},
		{"GEQRF", -4, f77.GEQRF(3, 3, z(9), 2, z(3))},
		{"GEEV", -11, f77.GEEV(false, true, 3, z(9), 3, w3, s3, nil, 1, z(9), 2)},
		{"GEEVC", -8, f77.GEEVC(true, false, 3, c(9), 3, cw, c(9), 2, nil, 1)},
		{"GEES", -10, func() int { _, info := f77.GEES(true, nil, 3, z(9), 3, w3, s3, z(8), 3); return info }()},
		{"GEESC", -6, func() int { _, info := f77.GEESC(false, nil, 3, c(9), 2, cw, nil, 1); return info }()},
		{"GELSS", -5, func() int { _, info := f77.GELSS(3, 2, 1, z(6), 2, z(3), 3, s3, -1); return info }()},
		{"GECON", -4, func() int { _, info := f77.GECON('1', 3, z(9), 2, p, 1); return info }()},
		{"SYGV", -8, f77.SYGV(1, false, f77.Upper, 3, z(9), 3, z(9), 2, w3)},
		{"GEHRD", -5, f77.GEHRD(3, 1, 3, z(9), 2, e2)},
		{"SYTRD", -4, f77.SYTRD(f77.Upper, 3, z(9), 2, w3, e2, e2)},
		{"ORGTR", -4, f77.ORGTR(f77.Upper, 3, z(9), 2, e2)},
		{"STEQR", -6, f77.STEQR(3, w3, e2, z(9), 2)},
		{"GESVX", -16, func() int {
			_, info := f77.GESVX('N', f77.NoTrans, 3, 1, z(9), 3, z(9), 3, p, z(3), 3, z(3), 2, s3, w3)
			return info
		}()},
	} {
		if pr.info != pr.want {
			t.Errorf("%s: INFO = %d, want %d", pr.name, pr.info, pr.want)
		}
	}
	if v := f77.LANGE('1', 3, 3, z(9), 2); !math.IsNaN(v) {
		t.Errorf("LANGE with LDA < M = %v, want NaN", v)
	}
}

package lapack

import (
	"math"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// bounded runs f and fails the test if it does not return within the given
// budget. The iterative solvers cap their sweep counts, so even NaN-soaked
// inputs must terminate; a hang here means an unbounded loop regressed.
func bounded(t *testing.T, budget time.Duration, name string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(budget):
		t.Fatalf("%s did not terminate within %v on non-finite input", name, budget)
	}
}

const chaosN = 48

func nanMatrix(n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%9) - 4
	}
	a[n+1] = core.NaN[float64]()
	return a
}

// TestGetrfNaNBounded: LU on a NaN-poisoned matrix must return (any INFO) in
// bounded time — partial pivoting compares against NaN, which is always
// false, so the loop structure alone must guarantee termination.
func TestGetrfNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "Getrf", func() {
		a := nanMatrix(chaosN)
		ipiv := make([]int, chaosN)
		Getrf(tcfg(), chaosN, chaosN, a, chaosN, ipiv)
	})
}

// TestSyevNaNBounded: the symmetric eigensolver's QL/QR iteration caps its
// sweeps (Steqr nmaxit); NaN input must exhaust the cap and return nonzero
// INFO rather than spin.
func TestSyevNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "Syev", func() {
		a := nanMatrix(chaosN)
		// Symmetrize the finite part; the NaN stays in the active triangle.
		w := make([]float64, chaosN)
		info := Syev(tcfg(), true, Lower, chaosN, a, chaosN, w)
		if info == 0 {
			t.Log("Syev returned INFO=0 on NaN input (accepted: only boundedness is asserted)")
		}
	})
}

// TestGesvdNaNBounded: the SVD drive with vectors (Bdsdc over maxit-capped
// Bdsqr leaves) must terminate on NaN input.
func TestGesvdNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "Gesdd", func() {
		a := nanMatrix(chaosN)
		s := make([]float64, chaosN)
		u := make([]float64, chaosN*chaosN)
		vt := make([]float64, chaosN*chaosN)
		Gesdd(tcfg(), SVDAll, SVDAll, chaosN, chaosN, a, chaosN, s, u, chaosN, vt, chaosN)
	})
}

// TestSteqrNaNBounded drives the tridiagonal QL/QR iteration directly with a
// NaN off-diagonal: it must give up after its iteration cap with INFO > 0.
func TestSteqrNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "Steqr", func() {
		d := make([]float64, chaosN)
		e := make([]float64, chaosN-1)
		for i := range d {
			d[i] = float64(i + 1)
		}
		for i := range e {
			e[i] = 1
		}
		e[chaosN/2] = core.NaN[float64]()
		info := Steqr[float64](tcfg(), chaosN, d, e, nil, 1)
		if info == 0 {
			t.Error("Steqr converged on a NaN off-diagonal; expected INFO > 0")
		}
	})
}

// TestSecularNaNBounded: a NaN in d or z must cost at most the evaluation cap
// per root, not hang the bracket loop.
func TestSecularNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "solveSecularCore", func() {
		const k = 60
		for _, poison := range []string{"d", "z"} {
			d, z := make([]float64, k), make([]float64, k)
			for j := range d {
				d[j] = float64(j)
				z[j] = 1 / math.Sqrt(k)
			}
			if poison == "d" {
				d[k/2] = math.NaN()
			} else {
				z[k/2] = math.NaN()
			}
			lam, u := make([]float64, k), make([]float64, k*k)
			evals := solveSecularCore(k, 0.5, d, z, lam, u, make([]float64, k), make([]float64, k*k))
			if evals > k*secularMaxEvals {
				t.Errorf("NaN in %s: %d evaluations for %d roots, cap is %d each", poison, evals, k, secularMaxEvals)
			}
		}
	})
}

// TestGelsNaNBounded: least squares via QR on NaN input must terminate.
func TestGelsNaNBounded(t *testing.T) {
	bounded(t, 30*time.Second, "Gels", func() {
		a := nanMatrix(chaosN)
		b := make([]float64, chaosN)
		Gels(tcfg(), NoTrans, chaosN, chaosN, 1, a, chaosN, b, chaosN)
	})
}

// TestGetrfInjectedWorkerPanic arms the fault injector and factorizes a
// matrix large enough that the trailing-update GEMMs run in parallel: the
// injected worker panic must unwind through Getrf to this goroutine as a
// *blas.PanicError, and the factorization stack must stay usable afterwards.
func TestGetrfInjectedWorkerPanic(t *testing.T) {
	defer blas.SetThreads(blas.SetThreads(4))
	defer faultinject.Reset()

	// Trailing updates reach the parallel engine only when the update GEMM
	// exceeds gemmParallelMinVol with multiple macro-tiles; n=640 gives
	// (n-nb)·nb·(n-nb) style updates comfortably above it.
	const n = 640
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1.0 / float64(1+((i+j)%17))
			if i == j {
				v += float64(n)
			}
			a[i+j*n] = v
		}
	}
	ipiv := make([]int, n)

	faultinject.ArmWorkerPanics(1)
	recovered := func() (pe *blas.PanicError) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if pe, ok = r.(*blas.PanicError); !ok {
					t.Errorf("recovered %T, want *blas.PanicError", r)
				}
			}
		}()
		Getrf(tcfg(), n, n, a, n, ipiv)
		return nil
	}()
	if recovered == nil {
		t.Fatal("armed worker panic did not surface through Getrf")
	}
	if recovered.Value != faultinject.PanicMessage {
		t.Fatalf("PanicError.Value = %v, want %q", recovered.Value, faultinject.PanicMessage)
	}
	if len(recovered.Stack) == 0 {
		t.Fatal("PanicError.Stack is empty")
	}

	// The pool and scratch caches must be intact: redo the factorization
	// un-armed and solve a system through it.
	faultinject.Reset()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1.0 / float64(1+((i+j)%17))
			if i == j {
				v += float64(n)
			}
			a[i+j*n] = v
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) + 1
	}
	if info := Gesv(tcfg(), n, 1, a, n, ipiv, b, n); info != 0 {
		t.Fatalf("post-fault Gesv INFO = %d", info)
	}
	if !core.AllFinite(b) {
		t.Fatal("post-fault solve produced non-finite solution")
	}
}

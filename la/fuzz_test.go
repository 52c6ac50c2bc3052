package la_test

import (
	"math"
	"testing"

	"repro/f77"
	"repro/la"
)

// fuzzMatrix decodes a bounded shape and fills a matrix (with optional
// stride padding) from the byte stream, cycling when data runs short. The
// decoded values cover negatives, zeros, subnormals, huge magnitudes, NaN
// and Inf, so the drivers see the full pathological input space.
func fuzzMatrix(rows, cols, pad int, data []byte) *la.Matrix[float64] {
	stride := max(1, rows) + pad
	m := &la.Matrix[float64]{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, stride*max(1, cols))}
	if len(data) == 0 {
		data = []byte{1}
	}
	vals := [...]float64{0, 1, -1, 0.5, -2.25, 1e300, -1e-300, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324, -3}
	k := 0
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			b := data[k%len(data)]
			k++
			v := vals[int(b)%len(vals)]
			// Mix in the byte so different inputs produce different matrices,
			// not just different patterns over 14 values.
			if b >= 128 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				v += float64(b-128) / 16
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// checkFuzzOutcome is the shared invariant: a driver must either succeed or
// return a *la.Error — never panic (the boundary guard contains internal
// faults) and never return a foreign error type.
func checkFuzzOutcome(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if _, ok := err.(*la.Error); !ok {
		t.Fatalf("driver returned %T (%v), want nil or *la.Error", err, err)
	}
}

// FuzzGESV throws arbitrary shapes, stride padding, value patterns (finite,
// non-finite, subnormal, huge), and both screening modes at the LU solver.
// The property under test is the robustness contract, not the solution:
// every call returns normally with nil or *la.Error, and with check mode on
// a non-finite input is always diagnosed as an argument error.
func FuzzGESV(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), false, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(4), uint8(2), uint8(3), true, []byte{8, 9, 10, 0, 0, 0, 255, 128})
	f.Add(uint8(1), uint8(1), uint8(0), true, []byte{9})  // 1×1 NaN
	f.Add(uint8(0), uint8(0), uint8(0), false, []byte{0}) // empty system
	f.Add(uint8(6), uint8(3), uint8(1), false, []byte{5, 11, 6, 2, 0, 13, 7, 1, 3})

	f.Fuzz(func(t *testing.T, n, nrhs, pad uint8, check bool, data []byte) {
		nn := int(n % 16)
		rhs := int(nrhs % 4)
		p := int(pad % 4)
		a := fuzzMatrix(nn, nn, p, data)
		b := fuzzMatrix(nn, rhs, p, append([]byte{n ^ nrhs}, data...))
		opts := []la.Opt{}
		if check {
			opts = append(opts, la.WithCheck())
		}
		_, err := la.GESV(a, b, opts...)
		checkFuzzOutcome(t, err)
	})
}

// FuzzGESVX drives the expert pipeline — equilibration, condition
// estimation, refinement, error bounds — over the same pathological input
// space. Beyond the never-panic contract, a return for a *finite* input
// must carry coherent diagnostics: RCOND in [0, 1] and BERR never NaN.
// (Unscreened non-finite input may legitimately produce NaN diagnostics —
// LAPACK's contract says nothing there; only termination is required.)
func FuzzGESVX(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), false, false, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(4), uint8(2), uint8(3), true, true, []byte{8, 9, 10, 0, 0, 0, 255, 128})
	f.Add(uint8(1), uint8(1), uint8(0), false, true, []byte{9})                           // 1×1 NaN
	f.Add(uint8(0), uint8(0), uint8(0), true, false, []byte{0})                           // empty system
	f.Add(uint8(5), uint8(1), uint8(0), true, false, []byte{5, 12, 6, 2, 0, 13, 7, 1, 3}) // huge/subnormal mix
	f.Add(uint8(6), uint8(2), uint8(2), true, true, []byte{0, 0, 1, 0, 0, 0, 2, 0})       // near-singular pattern

	f.Fuzz(func(t *testing.T, n, nrhs, pad uint8, equil, check bool, data []byte) {
		nn := int(n % 16)
		rhs := int(nrhs % 4)
		p := int(pad % 4)
		a := fuzzMatrix(nn, nn, p, data)
		b := fuzzMatrix(nn, rhs, p, append([]byte{n ^ nrhs}, data...))
		opts := []la.Opt{}
		if equil {
			opts = append(opts, la.WithEquilibration())
		}
		if check {
			opts = append(opts, la.WithCheck())
		}
		finite := true
		for _, m := range []*la.Matrix[float64]{a, b} {
			for j := 0; j < m.Cols && finite; j++ {
				for i := 0; i < m.Rows; i++ {
					if v := m.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
						finite = false
						break
					}
				}
			}
		}
		res, err := la.GESVX(a, b, opts...)
		checkFuzzOutcome(t, err)
		if res == nil || !finite {
			return
		}
		if math.IsNaN(res.RCond) || res.RCond < 0 || res.RCond > 1 {
			t.Fatalf("RCond = %v, want [0, 1]", res.RCond)
		}
		for j := range res.Berr {
			if math.IsNaN(res.Berr[j]) && err == nil {
				t.Fatalf("Berr[%d] = NaN on a successful solve", j)
			}
		}
	})
}

// FuzzGELS does the same for the least-squares driver, which exercises the
// QR/LQ path and both the over- and under-determined branches.
func FuzzGELS(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(1), uint8(0), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(5), uint8(1), uint8(2), true, []byte{9, 0, 1, 255})  // underdetermined + NaN
	f.Add(uint8(5), uint8(5), uint8(2), uint8(0), false, []byte{0, 0, 0, 0})   // singular square
	f.Add(uint8(7), uint8(3), uint8(1), uint8(1), true, []byte{10, 4, 4, 200}) // Inf + padding

	f.Fuzz(func(t *testing.T, m, n, nrhs, pad uint8, check bool, data []byte) {
		mm := int(m % 16)
		nn := int(n % 16)
		rhs := int(nrhs % 4)
		p := int(pad % 4)
		a := fuzzMatrix(mm, nn, p, data)
		b := fuzzMatrix(max(mm, nn), rhs, p, append([]byte{m ^ n}, data...))
		opts := []la.Opt{}
		if check {
			opts = append(opts, la.WithCheck())
		}
		err := la.GELS(a, b, opts...)
		checkFuzzOutcome(t, err)
	})
}

// FuzzGELSD drives the divide-and-conquer least squares stack — Gesdd's
// QR-first/wide/square routing, Bdsdc's recursion and deflation, and the
// rank decision — over the pathological input space, through LA_GELSD and,
// alternately, the F77 entry f77.GELSS. Beyond never panicking, a successful
// return must report a rank within [0, min(m, n)], and for finite input of
// moderate magnitude the singular values must be finite and descending.
// (Entries near MaxFloat64 are excluded from the value assertions: σ₀ can
// reach √(mn)·‖A‖_max, so Inf is then the correct IEEE answer.)
func FuzzGELSD(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(1), uint8(0), false, false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(5), uint8(1), uint8(2), true, false, []byte{9, 0, 1, 255})                  // underdetermined + NaN
	f.Add(uint8(5), uint8(5), uint8(2), uint8(0), false, true, []byte{0, 0, 0, 0})                    // singular square
	f.Add(uint8(13), uint8(3), uint8(1), uint8(1), false, false, []byte{5, 11, 6, 2, 0, 13, 7, 1, 3}) // QR-first path
	f.Add(uint8(7), uint8(3), uint8(1), uint8(1), true, true, []byte{10, 4, 4, 200})                  // Inf + padding

	f.Fuzz(func(t *testing.T, m, n, nrhs, pad uint8, check, viaF77 bool, data []byte) {
		mm := int(m % 16)
		nn := int(n % 16)
		rhs := int(nrhs % 4)
		p := int(pad % 4)
		a := fuzzMatrix(mm, nn, p, data)
		b := fuzzMatrix(max(mm, nn), rhs, p, append([]byte{m ^ n}, data...))
		finite := true
		maxAbs := 0.0
		for _, mt := range []*la.Matrix[float64]{a, b} {
			for j := 0; j < mt.Cols && finite; j++ {
				for i := 0; i < mt.Rows; i++ {
					v := mt.At(i, j)
					if math.IsNaN(v) || math.IsInf(v, 0) {
						finite = false
						break
					}
					maxAbs = math.Max(maxAbs, math.Abs(v))
				}
			}
		}
		opts := []la.Opt{}
		if check {
			opts = append(opts, la.WithCheck())
		}
		var rank int
		var s []float64
		if viaF77 {
			var info int
			s = make([]float64, min(mm, nn))
			rank, info = f77.GELSS(mm, nn, rhs, a.Data, a.Stride, b.Data, b.Stride, s, -1)
			if info != 0 {
				return
			}
		} else {
			var err error
			rank, s, err = la.GELSD(a, b, opts...)
			checkFuzzOutcome(t, err)
			if err != nil {
				return
			}
		}
		if !finite {
			return
		}
		if rank < 0 || rank > min(mm, nn) {
			t.Fatalf("rank = %d out of [0, %d]", rank, min(mm, nn))
		}
		if maxAbs > 1e300 {
			return
		}
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("s[%d] = %v on finite input", i, v)
			}
			if i > 0 && v > s[i-1]*(1+1e-12) {
				t.Fatalf("singular values not descending at %d", i)
			}
		}
	})
}

package la_test

import (
	"fmt"
	"math"
	"testing"

	"repro/f77"
	"repro/la"
)

// sameBits reports whether x and y hold bit-identical elements.
func sameBits[T la.Scalar](x, y []T) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		a, b := toC(x[i]), toC(y[i])
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			return false
		}
	}
	return true
}

func bitsAgree[T la.Scalar](t *testing.T, what string, x, y []T) {
	t.Helper()
	if !sameBits(x, y) {
		t.Errorf("%s differs", what)
	}
}

func matBits[T la.Scalar](m *la.Matrix[T]) []T {
	if m == nil {
		return nil
	}
	return m.Data
}

// TestNonsymDriversAgree: the nonsymmetric drivers are one body, so what two
// of them both compute must agree bit for bit — GEEVX's W/VL/VR are GEEV's
// (the same unit-norm, largest-component-real vectors for every type),
// GEESX's W/T/VS/SDim are GEES's under the same selector, and the f77
// GEEV(C)/GEES(C) interfaces return what la does.
func TestNonsymDriversAgree(t *testing.T) {
	testNonsymDriversAgree[float32](t, "f32")
	testNonsymDriversAgree[float64](t, "f64")
	testNonsymDriversAgree[complex64](t, "c64")
	testNonsymDriversAgree[complex128](t, "c128")
}

func testNonsymDriversAgree[T la.Scalar](t *testing.T, name string) {
	sel := func(re, im float64) bool { return re > 0 }
	for _, n := range []int{1, 2, 7, 64, 192} {
		t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
			a := randMat[T](n, n, n)
			ae := a.Clone()
			w, vl, vr, err := la.GEEV(ae, la.WithLeft(), la.WithRight())
			if err != nil {
				t.Fatal(err)
			}
			ax := a.Clone()
			x, err := la.GEEVX(ax, la.WithLeft(), la.WithRight())
			if err != nil {
				t.Fatal(err)
			}
			bitsAgree(t, "GEEVX W", x.W, w)
			bitsAgree(t, "GEEVX VL", matBits(x.VL), matBits(vl))
			bitsAgree(t, "GEEVX VR", matBits(x.VR), matBits(vr))
			bitsAgree(t, "GEEVX A", ax.Data, ae.Data)

			as := a.Clone()
			ws, vs, sdim, err := la.GEES(as, la.WithSchurVectors(), la.WithSelect(sel))
			if err != nil {
				t.Fatal(err)
			}
			asx := a.Clone()
			sx, err := la.GEESX(asx, la.WithSelect(sel))
			if err != nil {
				t.Fatal(err)
			}
			bitsAgree(t, "GEESX W", sx.W, ws)
			bitsAgree(t, "GEESX T", asx.Data, as.Data)
			bitsAgree(t, "GEESX VS", matBits(sx.VS), matBits(vs))
			if sx.SDim != sdim {
				t.Errorf("GEESX SDim %d, GEES %d", sx.SDim, sdim)
			}

			// f77: the same calls through the explicit argument lists.
			a7, s7 := a.Clone(), a.Clone()
			vl7, vr7, vs7 := la.NewMatrix[T](n, n), la.NewMatrix[T](n, n), la.NewMatrix[T](n, n)
			w7, ws7 := make([]complex128, n), make([]complex128, n)
			var info, sdim7 int
			switch d := any(a7.Data).(type) {
			case []float32:
				info, sdim7 = f77eig(d, any(s7.Data).([]float32), any(vl7.Data).([]float32), any(vr7.Data).([]float32), any(vs7.Data).([]float32), n, sel, w7, ws7)
			case []float64:
				info, sdim7 = f77eig(d, any(s7.Data).([]float64), any(vl7.Data).([]float64), any(vr7.Data).([]float64), any(vs7.Data).([]float64), n, sel, w7, ws7)
			case []complex64:
				info, sdim7 = f77eigC(d, any(s7.Data).([]complex64), any(vl7.Data).([]complex64), any(vr7.Data).([]complex64), any(vs7.Data).([]complex64), n, sel, w7, ws7)
			case []complex128:
				info, sdim7 = f77eigC(d, any(s7.Data).([]complex128), any(vl7.Data).([]complex128), any(vr7.Data).([]complex128), any(vs7.Data).([]complex128), n, sel, w7, ws7)
			}
			if info != 0 || sdim7 != sdim {
				t.Fatalf("f77: info %d, sdim %d against %d", info, sdim7, sdim)
			}
			bitsAgree(t, "f77 GEEV W", w7, w)
			bitsAgree(t, "f77 GEEV VL", vl7.Data, matBits(vl))
			bitsAgree(t, "f77 GEEV VR", vr7.Data, matBits(vr))
			bitsAgree(t, "f77 GEES W", ws7, ws)
			bitsAgree(t, "f77 GEES T", s7.Data, as.Data)
			bitsAgree(t, "f77 GEES VS", vs7.Data, matBits(vs))
		})
	}
}

// f77eig runs f77.GEEV and f77.GEES on a and s, the eigenvalues packed into w
// and ws; it returns the summed INFO and GEES's SDIM.
func f77eig[T float32 | float64](a, s, vl, vr, vs []T, n int, sel func(re, im float64) bool, w, ws []complex128) (int, int) {
	wr, wi := make([]float64, n), make([]float64, n)
	info := f77.GEEV(true, true, n, a, n, wr, wi, vl, n, vr, n)
	for i := range w {
		w[i] = complex(wr[i], wi[i])
	}
	sdim, info2 := f77.GEES(true, sel, n, s, n, wr, wi, vs, n)
	for i := range ws {
		ws[i] = complex(wr[i], wi[i])
	}
	return info + info2, sdim
}

// f77eigC is f77eig through GEEVC and GEESC.
func f77eigC[T complex64 | complex128](a, s, vl, vr, vs []T, n int, sel func(re, im float64) bool, w, ws []complex128) (int, int) {
	info := f77.GEEVC(true, true, n, a, n, w, vl, n, vr, n)
	sdim, info2 := f77.GEESC(true, func(z complex128) bool { return sel(real(z), imag(z)) }, n, s, n, ws, vs, n)
	return info + info2, sdim
}

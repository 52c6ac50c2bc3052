package lapack

import (
	"math"
	"math/cmplx"

	"repro/internal/blas"
	"repro/internal/core"
)

// Hseqr computes the eigenvalues and real Schur factorization of a real
// upper Hessenberg matrix by the implicit double-shift QR algorithm
// (xHSEQR, using the xLAHQR kernel). If wantt the full Schur form T is
// computed in h; otherwise only the active block is transformed. If z is
// non-nil the accumulated transformations are applied to it (pass the
// identity, or the Orghr output, as appropriate). Eigenvalues are returned
// in wr/wi; a 2×2 standardized block at (i, i+1) yields a complex
// conjugate pair. Returns 0 on success, or i > 0 if eigenvalues 0..i-1
// failed to converge.
func Hseqr(cfg *core.Config, wantt bool, n, ilo, ihi int, h []float64, ldh int, wr, wi []float64, z []float64, ldz int) int {
	const (
		dat1  = 0.75
		dat2  = -0.4375
		kexsh = 10
	)
	if n == 0 {
		return 0
	}
	wantz := z != nil
	// The eigenvalues outside the active block, which Gebal isolated, and that
	// of a 1×1 active block are on the diagonal already.
	for i := 0; i < n; i++ {
		if i < ilo || i > ihi || ilo == ihi {
			wr[i], wi[i] = h[i+i*ldh], 0
		}
	}
	// Zero everything below the first subdiagonal: the caller typically
	// passes the Gehrd output whose lower triangle still holds reflector
	// data.
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			h[i+j*ldh] = 0
		}
	}
	nh := ihi - ilo + 1
	const ulp = core.EpsDouble
	smlnum := core.SafeMin[float64]() * (float64(nh) / ulp)
	i1, i2 := 0, n-1
	itmax := 30 * max(10, nh)
	kdefl := 0
	var v [3]float64

	i := ihi
	for i >= ilo {
		l := ilo
		converged := false
		for its := 0; its <= itmax; its++ {
			// Cancellation checkpoint: once per double-shift QR sweep.
			cfg.Checkpoint()
			// Look for a single small subdiagonal element.
			var k int
			for k = i; k >= l+1; k-- {
				if math.Abs(h[k+(k-1)*ldh]) <= smlnum {
					break
				}
				tst := math.Abs(h[k-1+(k-1)*ldh]) + math.Abs(h[k+k*ldh])
				if tst == 0 {
					if k-2 >= ilo {
						tst += math.Abs(h[k-1+(k-2)*ldh])
					}
					if k+1 <= ihi {
						tst += math.Abs(h[k+1+k*ldh])
					}
				}
				if math.Abs(h[k+(k-1)*ldh]) <= ulp*tst {
					// Ahues–Tisseur deflation criterion.
					ab := math.Max(math.Abs(h[k+(k-1)*ldh]), math.Abs(h[k-1+k*ldh]))
					ba := math.Min(math.Abs(h[k+(k-1)*ldh]), math.Abs(h[k-1+k*ldh]))
					aa := math.Max(math.Abs(h[k+k*ldh]), math.Abs(h[k-1+(k-1)*ldh]-h[k+k*ldh]))
					bb := math.Min(math.Abs(h[k+k*ldh]), math.Abs(h[k-1+(k-1)*ldh]-h[k+k*ldh]))
					s := aa + ab
					if ba*(ab/s) <= math.Max(smlnum, ulp*(bb*(aa/s))) {
						break
					}
				}
			}
			l = k
			if l > ilo {
				h[l+(l-1)*ldh] = 0
			}
			if l >= i-1 {
				converged = true
				break
			}
			kdefl++
			if !wantt {
				i1, i2 = l, i
			}
			// Shifts.
			var h11, h21, h12, h22 float64
			switch {
			case kdefl%(2*kexsh) == 0:
				s := dat1 * math.Abs(h[i+(i-1)*ldh])
				h11 = s + h[i+i*ldh]
				h12 = dat2 * s
				h21 = s
				h22 = h11
			case kdefl%kexsh == 0:
				s := dat1 * math.Abs(h[l+1+l*ldh])
				h11 = s + h[l+l*ldh]
				h12 = dat2 * s
				h21 = s
				h22 = h11
			default:
				h11 = h[i-1+(i-1)*ldh]
				h21 = h[i+(i-1)*ldh]
				h12 = h[i-1+i*ldh]
				h22 = h[i+i*ldh]
			}
			s := math.Abs(h11) + math.Abs(h12) + math.Abs(h21) + math.Abs(h22)
			var rt1r, rt1i, rt2r, rt2i float64
			if s != 0 {
				h11 /= s
				h21 /= s
				h12 /= s
				h22 /= s
				tr := h11 + h22
				det := (h11-h22)*(h11-h22)*0.25 + h12*h21
				if det >= 0 {
					rtdisc := math.Sqrt(det)
					ad := tr * 0.5
					rt1r = ad + rtdisc
					rt2r = ad - rtdisc
					if math.Abs(rt1r-h22) <= math.Abs(rt2r-h22) {
						rt2r = rt1r
					} else {
						rt1r = rt2r
					}
					rt1r *= s
					rt2r *= s
				} else {
					rt1r = tr * 0.5 * s
					rt2r = rt1r
					rt1i = math.Sqrt(-det) * s
					rt2i = -rt1i
				}
			}
			// Look for two consecutive small subdiagonal elements.
			var m int
			for m = i - 2; m >= l; m-- {
				h21s := h[m+1+m*ldh]
				ss := math.Abs(h[m+m*ldh]-rt2r) + math.Abs(rt2i) + math.Abs(h21s)
				h21s = h[m+1+m*ldh] / ss
				v[0] = h21s*h[m+(m+1)*ldh] + (h[m+m*ldh]-rt1r)*((h[m+m*ldh]-rt2r)/ss) - rt1i*(rt2i/ss)
				v[1] = h21s * (h[m+m*ldh] + h[m+1+(m+1)*ldh] - rt1r - rt2r)
				v[2] = h21s * h[m+2+(m+1)*ldh]
				ss = math.Abs(v[0]) + math.Abs(v[1]) + math.Abs(v[2])
				v[0] /= ss
				v[1] /= ss
				v[2] /= ss
				if m == l {
					break
				}
				if math.Abs(h[m+(m-1)*ldh])*(math.Abs(v[1])+math.Abs(v[2])) <=
					ulp*math.Abs(v[0])*(math.Abs(h[m-1+(m-1)*ldh])+math.Abs(h[m+m*ldh])+math.Abs(h[m+1+(m+1)*ldh])) {
					break
				}
			}
			// Double-shift QR sweep.
			for k := m; k <= i-1; k++ {
				nr := min(3, i-k+1)
				if k > m {
					for jj := 0; jj < nr; jj++ {
						v[jj] = h[k+jj+(k-1)*ldh]
					}
				}
				t1 := larfg3(nr, &v)
				if k > m {
					h[k+(k-1)*ldh] = v[0]
					h[k+1+(k-1)*ldh] = 0
					if k < i-1 {
						h[k+2+(k-1)*ldh] = 0
					}
				} else if m > l {
					h[k+(k-1)*ldh] *= 1 - t1
				}
				v2 := v[1]
				t2 := t1 * v2
				if nr == 3 {
					v3 := v[2]
					t3 := t1 * v3
					blas.Refl3Rows(i2-k+1, h[k+k*ldh:], ldh, v2, v3, t1, t2, t3)
					blas.Refl3(min(k+3, i)-i1+1, h[i1+k*ldh:], h[i1+(k+1)*ldh:], h[i1+(k+2)*ldh:], v2, v3, t1, t2, t3)
					if wantz {
						blas.Refl3(n, z[k*ldz:], z[(k+1)*ldz:], z[(k+2)*ldz:], v2, v3, t1, t2, t3)
					}
				} else if nr == 2 {
					blas.Refl2Rows(i2-k+1, h[k+k*ldh:], ldh, v2, t1, t2)
					blas.Refl2(i-i1+1, h[i1+k*ldh:], h[i1+(k+1)*ldh:], v2, t1, t2)
					if wantz {
						blas.Refl2(n, z[k*ldz:], z[(k+1)*ldz:], v2, t1, t2)
					}
				}
			}
		}
		if !converged {
			return i + 1
		}
		if l == i {
			// One real eigenvalue found.
			wr[i] = h[i+i*ldh]
			wi[i] = 0
		} else {
			// A 2×2 block: standardize and extract its eigenvalues.
			var cs, sn float64
			h[i-1+(i-1)*ldh], h[i-1+i*ldh], h[i+(i-1)*ldh], h[i+i*ldh],
				wr[i-1], wi[i-1], wr[i], wi[i], cs, sn =
				Lanv2(h[i-1+(i-1)*ldh], h[i-1+i*ldh], h[i+(i-1)*ldh], h[i+i*ldh])
			if wantt {
				if i2 > i {
					rotRows(h, ldh, i-1, i, i+1, i2, cs, sn)
				}
				rotCols(h, ldh, i-1, i, i1, i-2, cs, sn)
			}
			if wantz {
				rotCols(z, ldz, i-1, i, 0, n-1, cs, sn)
			}
		}
		kdefl = 0
		i = l - 1
	}
	return 0
}

// larfg3 is Larfg for the sweep's reflector: alpha = v[0] and a tail of
// nr−1 ∈ {1, 2} elements, all real. With the sums of squares inside the
// window where they neither overflow nor lose anything to underflow it is
// Larfg's arithmetic without the norm calls and the rescaling loop (which
// cannot run: |beta| ≥ 1e-140); everything else — a zero tail, extreme or
// non-finite entries — is Larfg's.
func larfg3(nr int, v *[3]float64) float64 {
	tail := v[1] * v[1]
	if nr == 3 {
		tail += v[2] * v[2]
	}
	sum := v[0]*v[0] + tail
	if !(tail > 1e-280 && sum < 1e280) {
		return Larfg(nr, &v[0], v[1:nr], 1)
	}
	alpha := v[0]
	beta := -core.Sign(math.Sqrt(sum), alpha)
	scale := 1 / (alpha - beta)
	v[0] = beta
	v[1] *= scale
	if nr == 3 {
		v[2] *= scale
	}
	return (beta - alpha) / beta
}

// rotRows applies a plane rotation to rows r1, r2 over columns jlo..jhi.
func rotRows(a []float64, lda, r1, r2, jlo, jhi int, cs, sn float64) {
	for j := jlo; j <= jhi; j++ {
		x, y := a[r1+j*lda], a[r2+j*lda]
		a[r1+j*lda] = cs*x + sn*y
		a[r2+j*lda] = cs*y - sn*x
	}
}

// rotCols applies a plane rotation to columns c1, c2 over rows ilo..ihi:
// x, y = cs·x + sn·y, cs·y − sn·x with x column c1 and y column c2.
func rotCols(a []float64, lda, c1, c2, ilo, ihi int, cs, sn float64) {
	blas.RotG(ihi-ilo+1, a[ilo+c1*lda:], 1, a[ilo+c2*lda:], 1, cs, sn)
}

// HseqrC computes the eigenvalues and Schur factorization of a complex
// upper Hessenberg matrix by the implicit single-shift QR algorithm
// (xHSEQR/xLAHQR, complex path). Semantics mirror Hseqr; eigenvalues are
// returned in w.
func HseqrC(cfg *core.Config, wantt bool, n, ilo, ihi int, h []complex128, ldh int, w []complex128, z []complex128, ldz int) int {
	const (
		dat1  = 0.75
		kexsh = 10
	)
	if n == 0 {
		return 0
	}
	wantz := z != nil
	for i := 0; i < n; i++ {
		if i < ilo || i > ihi || ilo == ihi {
			w[i] = h[i+i*ldh]
		}
	}
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			h[i+j*ldh] = 0
		}
	}
	cabs1 := func(c complex128) float64 { return math.Abs(real(c)) + math.Abs(imag(c)) }
	nh := ihi - ilo + 1
	const ulp = core.EpsDouble
	smlnum := core.SafeMin[float64]() * (float64(nh) / ulp)
	i1, i2 := 0, n-1
	itmax := 30 * max(10, nh)
	kdefl := 0
	var v [2]complex128

	i := ihi
	for i >= ilo {
		l := ilo
		converged := false
		for its := 0; its <= itmax; its++ {
			// Cancellation checkpoint: once per double-shift QR sweep.
			cfg.Checkpoint()
			// Look for a single small subdiagonal element.
			var k int
			for k = i; k >= l+1; k-- {
				if cabs1(h[k+(k-1)*ldh]) <= smlnum {
					break
				}
				tst := cabs1(h[k-1+(k-1)*ldh]) + cabs1(h[k+k*ldh])
				if tst == 0 {
					if k-2 >= ilo {
						tst += math.Abs(real(h[k-1+(k-2)*ldh]))
					}
					if k+1 <= ihi {
						tst += math.Abs(real(h[k+1+k*ldh]))
					}
				}
				if math.Abs(real(h[k+(k-1)*ldh])) <= ulp*tst {
					ab := math.Max(cabs1(h[k+(k-1)*ldh]), cabs1(h[k-1+k*ldh]))
					ba := math.Min(cabs1(h[k+(k-1)*ldh]), cabs1(h[k-1+k*ldh]))
					aa := math.Max(cabs1(h[k+k*ldh]), cabs1(h[k-1+(k-1)*ldh]-h[k+k*ldh]))
					bb := math.Min(cabs1(h[k+k*ldh]), cabs1(h[k-1+(k-1)*ldh]-h[k+k*ldh]))
					s := aa + ab
					if ba*(ab/s) <= math.Max(smlnum, ulp*(bb*(aa/s))) {
						break
					}
				}
			}
			l = k
			if l > ilo {
				h[l+(l-1)*ldh] = 0
			}
			if l >= i {
				converged = true
				break
			}
			kdefl++
			if !wantt {
				i1, i2 = l, i
			}
			// Shift.
			var t complex128
			switch {
			case kdefl%(2*kexsh) == 0:
				s := dat1 * math.Abs(real(h[i+(i-1)*ldh]))
				t = complex(s, 0) + h[i+i*ldh]
			case kdefl%kexsh == 0:
				s := dat1 * math.Abs(real(h[l+1+l*ldh]))
				t = complex(s, 0) + h[l+l*ldh]
			default:
				t = h[i+i*ldh]
				u := cmplx.Sqrt(h[i-1+i*ldh]) * cmplx.Sqrt(h[i+(i-1)*ldh])
				s := cabs1(u)
				if s != 0 {
					x := 0.5 * (h[i-1+(i-1)*ldh] - t)
					sx := cabs1(x)
					s = math.Max(s, sx)
					y := complex(s, 0) * cmplx.Sqrt((x/complex(s, 0))*(x/complex(s, 0))+(u/complex(s, 0))*(u/complex(s, 0)))
					if sx > 0 {
						if real(x/complex(sx, 0))*real(y)+imag(x/complex(sx, 0))*imag(y) < 0 {
							y = -y
						}
					}
					t -= u * (u / (x + y))
				}
			}
			// Look for two consecutive small subdiagonal elements.
			var m int
			found := false
			for m = i - 1; m >= l+1; m-- {
				h11 := h[m+m*ldh]
				h22 := h[m+1+(m+1)*ldh]
				h11s := h11 - t
				h21 := real(h[m+1+m*ldh])
				s := cabs1(h11s) + math.Abs(h21)
				h11s /= complex(s, 0)
				h21 /= s
				v[0] = h11s
				v[1] = complex(h21, 0)
				h10 := real(h[m+(m-1)*ldh])
				if math.Abs(h10)*math.Abs(h21) <= ulp*(cabs1(h11s)*(cabs1(h11)+cabs1(h22))) {
					found = true
					break
				}
			}
			if !found {
				m = l
				h11 := h[l+l*ldh]
				h11s := h11 - t
				h21 := real(h[l+1+l*ldh])
				s := cabs1(h11s) + math.Abs(h21)
				h11s /= complex(s, 0)
				h21 /= s
				v[0] = h11s
				v[1] = complex(h21, 0)
			}
			// Single-shift QR sweep.
			for k := m; k <= i-1; k++ {
				if k > m {
					v[0] = h[k+(k-1)*ldh]
					v[1] = h[k+1+(k-1)*ldh]
				}
				t1 := Larfg(2, &v[0], v[1:], 1)
				if k > m {
					h[k+(k-1)*ldh] = v[0]
					h[k+1+(k-1)*ldh] = 0
				}
				v2 := v[1]
				t2 := real(t1 * v2)
				// Apply from the left.
				for j := k; j <= i2; j++ {
					sum := cmplx.Conj(t1)*h[k+j*ldh] + complex(t2, 0)*h[k+1+j*ldh]
					h[k+j*ldh] -= sum
					h[k+1+j*ldh] -= sum * v2
				}
				// Apply from the right.
				for j := i1; j <= min(k+2, i); j++ {
					sum := t1*h[j+k*ldh] + complex(t2, 0)*h[j+(k+1)*ldh]
					h[j+k*ldh] -= sum
					h[j+(k+1)*ldh] -= sum * cmplx.Conj(v2)
				}
				if wantz {
					for j := 0; j < n; j++ {
						sum := t1*z[j+k*ldz] + complex(t2, 0)*z[j+(k+1)*ldz]
						z[j+k*ldz] -= sum
						z[j+(k+1)*ldz] -= sum * cmplx.Conj(v2)
					}
				}
				if k == m && m > l {
					// Keep H(m, m-1) real after a mid-block start.
					temp := 1 - t1
					temp /= complex(cmplx.Abs(temp), 0)
					h[m+1+m*ldh] *= cmplx.Conj(temp)
					if m+2 <= i {
						h[m+2+(m+1)*ldh] *= temp
					}
					for j := m; j <= i; j++ {
						if j != m+1 {
							if i2 > j {
								blas.Scal(i2-j, temp, h[j+(j+1)*ldh:], ldh)
							}
							scaleCol(cmplx.Conj(temp), h[i1+j*ldh:j+j*ldh])
							if wantz {
								scaleCol(cmplx.Conj(temp), z[j*ldz:j*ldz+n])
							}
						}
					}
				}
			}
			// Ensure H(i, i-1) is real.
			temp := h[i+(i-1)*ldh]
			if imag(temp) != 0 {
				rtemp := cmplx.Abs(temp)
				h[i+(i-1)*ldh] = complex(rtemp, 0)
				temp /= complex(rtemp, 0)
				if i2 > i {
					blas.Scal(i2-i, cmplx.Conj(temp), h[i+(i+1)*ldh:], ldh)
				}
				scaleCol(temp, h[i1+i*ldh:i+i*ldh])
				if wantz {
					scaleCol(temp, z[i*ldz:i*ldz+n])
				}
			}
		}
		if !converged {
			return i + 1
		}
		w[i] = h[i+i*ldh]
		kdefl = 0
		i--
	}
	return 0
}

// scaleCol multiplies x by alpha element by element: blas.Scal's unit-stride
// kernel would round the complex products differently.
func scaleCol(alpha complex128, x []complex128) {
	for k := range x {
		x[k] *= alpha
	}
}

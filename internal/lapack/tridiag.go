package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Lartg generates a plane rotation with real cosine and sine such that
// [c s; -s c]·[f; g] = [r; 0] (xLARTG semantics for real arguments).
func Lartg(f, g float64) (c, s, r float64) {
	switch {
	case g == 0:
		return 1, 0, f
	case f == 0:
		return 0, 1, g
	}
	// Inside [√safmin, √(safmax/2)] neither square can underflow or the sum
	// overflow, so the norm needs no scaling (the LAPACK 3.10 la_xlartg
	// rule); outside it, and for NaN, math.Hypot does the scaling.
	const rtmin, rtmax = 0x1p-511, 0x1.6a09e667f3bcdp510
	if af, ag := math.Abs(f), math.Abs(g); af > rtmin && af < rtmax && ag > rtmin && ag < rtmax {
		r = math.Sqrt(f*f + g*g)
	} else {
		r = math.Hypot(f, g)
	}
	c = f / r
	s = g / r
	// Sign convention of the reference xLARTG: when |f| > |g| force c >= 0.
	if math.Abs(f) > math.Abs(g) && c < 0 {
		c, s, r = -c, -s, -r
	}
	return c, s, r
}

// Laev2 computes the eigendecomposition of the symmetric 2×2 matrix
// [a b; b c]: eigenvalues rt1 (larger magnitude first as in xLAEV2) and
// rt2, and the unit right eigenvector (cs1, sn1) for rt1.
func Laev2(a, b, c float64) (rt1, rt2, cs1, sn1 float64) {
	sm := a + c
	df := a - c
	adf := math.Abs(df)
	tb := b + b
	ab := math.Abs(tb)
	acmx, acmn := c, a
	if math.Abs(a) > math.Abs(c) {
		acmx, acmn = a, c
	}
	var rt float64
	switch {
	case adf > ab:
		rt = adf * math.Sqrt(1+(ab/adf)*(ab/adf))
	case adf < ab:
		rt = ab * math.Sqrt(1+(adf/ab)*(adf/ab))
	default:
		rt = ab * math.Sqrt2
	}
	var sgn1 float64
	switch {
	case sm < 0:
		rt1 = 0.5 * (sm - rt)
		sgn1 = -1
		rt2 = (acmx/rt1)*acmn - (b/rt1)*b
	case sm > 0:
		rt1 = 0.5 * (sm + rt)
		sgn1 = 1
		rt2 = (acmx/rt1)*acmn - (b/rt1)*b
	default:
		rt1 = 0.5 * rt
		rt2 = -0.5 * rt
		sgn1 = 1
	}
	// Eigenvector.
	var cs, sgn2 float64
	if df >= 0 {
		cs = df + rt
		sgn2 = 1
	} else {
		cs = df - rt
		sgn2 = -1
	}
	acs := math.Abs(cs)
	if acs > ab {
		ct := -tb / cs
		sn1 = 1 / math.Sqrt(1+ct*ct)
		cs1 = ct * sn1
	} else {
		if ab == 0 {
			cs1, sn1 = 1, 0
		} else {
			tn := -cs / tb
			cs1 = 1 / math.Sqrt(1+tn*tn)
			sn1 = tn * cs1
		}
	}
	if sgn1 == sgn2 {
		cs1, sn1 = -sn1, cs1
	}
	return rt1, rt2, cs1, sn1
}

// Lae2 computes the eigenvalues of the symmetric 2×2 matrix [a b; b c]
// (xLAE2): rt1 >= rt2 in the xLAE2 sense.
func Lae2(a, b, c float64) (rt1, rt2 float64) {
	rt1, rt2, _, _ = Laev2(a, b, c)
	return rt1, rt2
}

// The safe range of a symmetric tridiagonal matrix (xSTEQR's ssfmin and
// ssfmax): Steqr's splitting test adds safmin to products of entries, and
// squares of entries above √safmax overflow, so Steqr scales a block whose
// largest entry lies outside [ssfmin, ssfmax] into it, as Stevd does T.
var (
	ssfmin = math.Sqrt(0x1p-1022) / (core.EpsDouble * core.EpsDouble)
	ssfmax = math.Sqrt(0x1p1022) / 3
)

// Steqr computes all eigenvalues and, optionally, eigenvectors of a
// symmetric tridiagonal matrix by the implicit QL/QR method (xSTEQR).
// d (length n) and e (length n-1) are the diagonal and sub-diagonal and
// are overwritten; on success d holds the eigenvalues in ascending order.
// If z is non-nil it must be an n×n (ldz) matrix that is multiplied by the
// accumulated rotations: pass the identity to get tridiagonal eigenvectors,
// or the orthogonal reduction matrix from Orgtr to get those of the
// original dense matrix. Returns the number of unconverged off-diagonal
// elements (0 on success).
func Steqr[T core.Scalar](cfg *core.Config, n int, d, e []float64, z []T, ldz int) int {
	if n <= 1 {
		return 0
	}
	eps := core.EpsDouble
	eps2 := eps * eps
	safmin := math.SmallestNonzeroFloat64 * 0x1p52
	wantz := z != nil
	var cwork, swork []float64
	if wantz {
		// Every sweep writes the rotations it hands to RotSeq first.
		work := blas.GetScratch[float64](2 * (n - 1))
		defer blas.PutScratch(work)
		cwork, swork = work[:n-1], work[n-1:]
	}

	nmaxit := n * 30
	jtot := 0
	l1 := 0
	for {
		// Cancellation checkpoint: once per unreduced-block iteration.
		cfg.Checkpoint()
		if l1 > n-1 {
			break
		}
		if l1 > 0 {
			e[l1-1] = 0
		}
		// Find the end of the current unreduced block.
		m := n - 1
		for mm := l1; mm < n-1; mm++ {
			tst := math.Abs(e[mm])
			if tst == 0 {
				m = mm
				break
			}
			if tst <= (math.Sqrt(math.Abs(d[mm]))*math.Sqrt(math.Abs(d[mm+1])))*eps {
				e[mm] = 0
				m = mm
				break
			}
		}
		l := l1
		lend := m
		l1 = m + 1
		if lend == l {
			continue
		}
		// Scale the block into the safe range; a NaN block, which Lascl
		// refuses, stays as it is.
		lsv, nb := l, lend-l+1
		anorm := math.Abs(d[lend])
		for i := l; i < lend; i++ {
			anorm = max(anorm, math.Abs(d[i]), math.Abs(e[i]))
		}
		scale := min(max(anorm, ssfmin), ssfmax)
		if scale != anorm {
			Lascl(MatGeneral, anorm, scale, nb, 1, d[lsv:], nb)
			Lascl(MatGeneral, anorm, scale, nb-1, 1, e[lsv:], nb)
		}
		// Choose between QL (lend > l) and QR based on the larger end.
		if math.Abs(d[lend]) < math.Abs(d[l]) {
			l, lend = lend, l
		}
		if lend > l {
			// QL iteration.
			for {
				// Look for a small subdiagonal element.
				m = lend
				for mm := l; mm < lend; mm++ {
					tst := e[mm] * e[mm]
					if tst <= eps2*math.Abs(d[mm])*math.Abs(d[mm+1])+safmin {
						m = mm
						break
					}
				}
				if m < lend {
					e[m] = 0
				}
				p := d[l]
				if m == l {
					d[l] = p
					l++
					if l > lend {
						break
					}
					continue
				}
				if m == l+1 {
					var rt1, rt2 float64
					if wantz {
						var cs, sn float64
						rt1, rt2, cs, sn = Laev2(d[l], e[l], d[l+1])
						cwork[l] = cs
						swork[l] = sn
						blas.RotSeq(false, n, 2, cwork[l:], swork[l:], z[l*ldz:], ldz)
					} else {
						rt1, rt2 = Lae2(d[l], e[l], d[l+1])
					}
					d[l] = rt1
					d[l+1] = rt2
					e[l] = 0
					l += 2
					if l > lend {
						break
					}
					continue
				}
				if jtot == nmaxit {
					break
				}
				jtot++
				// Form shift.
				g := (d[l+1] - p) / (2 * e[l])
				r := math.Hypot(g, 1)
				g = d[m] - p + e[l]/(g+core.Sign(r, g))
				s, c := 1.0, 1.0
				p = 0.0
				for i := m - 1; i >= l; i-- {
					f := s * e[i]
					b := c * e[i]
					c, s, r = Lartg(g, f)
					if i != m-1 {
						e[i+1] = r
					}
					g = d[i+1] - p
					r = (d[i]-g)*s + 2*c*b
					p = s * r
					d[i+1] = g + p
					g = c*r - b
					if wantz {
						cwork[i] = c
						swork[i] = -s
					}
				}
				if wantz {
					blas.RotSeq(false, n, m-l+1, cwork[l:], swork[l:], z[l*ldz:], ldz)
				}
				d[l] -= p
				e[l] = g
				if m < lend {
					e[m] = 0
				}
			}
		} else {
			// QR iteration.
			for {
				m = lend
				for mm := l; mm > lend; mm-- {
					tst := e[mm-1] * e[mm-1]
					if tst <= eps2*math.Abs(d[mm])*math.Abs(d[mm-1])+safmin {
						m = mm
						break
					}
				}
				if m > lend {
					e[m-1] = 0
				}
				p := d[l]
				if m == l {
					d[l] = p
					l--
					if l < lend {
						break
					}
					continue
				}
				if m == l-1 {
					var rt1, rt2 float64
					if wantz {
						var cs, sn float64
						rt1, rt2, cs, sn = Laev2(d[l-1], e[l-1], d[l])
						cwork[m] = cs
						swork[m] = sn
						blas.RotSeq(true, n, 2, cwork[m:], swork[m:], z[(l-1)*ldz:], ldz)
					} else {
						rt1, rt2 = Lae2(d[l-1], e[l-1], d[l])
					}
					d[l-1] = rt1
					d[l] = rt2
					e[l-1] = 0
					l -= 2
					if l < lend {
						break
					}
					continue
				}
				if jtot == nmaxit {
					break
				}
				jtot++
				// Form shift.
				g := (d[l-1] - p) / (2 * e[l-1])
				r := math.Hypot(g, 1)
				g = d[m] - p + e[l-1]/(g+core.Sign(r, g))
				s, c := 1.0, 1.0
				p = 0.0
				for i := m; i < l; i++ {
					f := s * e[i]
					b := c * e[i]
					c, s, r = Lartg(g, f)
					if i != m {
						e[i-1] = r
					}
					g = d[i] - p
					r = (d[i+1]-g)*s + 2*c*b
					p = s * r
					d[i] = g + p
					g = c*r - b
					if wantz {
						cwork[i] = c
						swork[i] = s
					}
				}
				if wantz {
					blas.RotSeq(true, n, l-m+1, cwork[m:], swork[m:], z[m*ldz:], ldz)
				}
				d[l] -= p
				e[l-1] = g
				if m > lend {
					e[m-1] = 0
				}
			}
		}
		if scale != anorm {
			Lascl(MatGeneral, scale, anorm, nb, 1, d[lsv:], nb)
			Lascl(MatGeneral, scale, anorm, nb-1, 1, e[lsv:], nb)
		}
		if jtot >= nmaxit {
			break
		}
	}
	// Count any remaining nonzero off-diagonals (failure indicator).
	info := 0
	for i := 0; i < n-1; i++ {
		if e[i] != 0 {
			info++
		}
	}
	if info != 0 {
		return info
	}
	// Sort eigenvalues (and eigenvectors) into ascending order.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			if wantz {
				for r := 0; r < n; r++ {
					z[r+i*ldz], z[r+k*ldz] = z[r+k*ldz], z[r+i*ldz]
				}
			}
		}
	}
	return 0
}

// Sterf computes all eigenvalues of a symmetric tridiagonal matrix
// (xSTERF semantics; implemented via the no-vectors path of Steqr).
func Sterf(cfg *core.Config, n int, d, e []float64) int {
	return Steqr[float64](cfg, n, d, e, nil, 0)
}

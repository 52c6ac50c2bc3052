package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// Small-matrix LU, the factorization-side half of the pack-free regime: for
// problems that fit entirely under the Config.GemmSmallDim crossover, the
// general-purpose machinery (Ilaenv lookup, recursion, lookahead plumbing)
// costs more than the factorization itself. getrfSmall is a right-looking
// blocked LU with a fixed narrow panel tuned so that ~80% of the flops land
// in the pack-free trailing GEMM and the panel work is column-contiguous:
// contiguous rank-1 axpys in the generic path (which ride the axpy leaf of
// blas.Axpy, unlike Getf2's Ger whose row operand is strided), a single
// fused scale+update+pivot-scan kernel per column in the float64
// specialization. The path is gated by the same LA90_GEMM_SMALL
// knob as the kernel regime, so disabling one disables both and every result
// a batch driver produces stays bit-identical to the looped drivers at any
// thread count — the dispatch depends only on problem shape.

// smallLUNB is the panel width of the small-matrix LU. Eight columns keeps
// the trailing update k deep enough that the strip kernel's per-call
// overhead is amortized, while the in-panel rank-1 sweeps stay a handful of
// contiguous column operations per step; it is also the geometry of the
// register-resident triangular solves in the float64 path.
const smallLUNB = 8

// smallAxpyMin is the column length at which the float64 substitution loops
// hand off to blas.Axpy's FMA kernel; below it the call overhead exceeds the
// vector win and a plain scalar loop is faster.
const smallAxpyMin = 16

// smallLUOK reports whether the m×n factorization (or, with b, the solve
// from it) should take the small-matrix path: the pack-free kernel regime is
// enabled and the whole problem sits under its crossover. It is also the
// path's one type decision: float64 carries the batched-solver acceptance
// target and runs hand-specialized bodies (getrfSmallF64, getrsSmallF64) that
// keep every inner loop free of generic dispatch, so for float64 operands af
// and bf are a and b as such; for the other types they are nil and the
// generic bodies run (13–15 % faster than Getrf2 on complex128 at n = 64,
// though slower on float32; EXPERIMENTS.md, "Small LU by element type").
func smallLUOK[T core.Scalar](cfg *core.Config, m, n int, a, b []T) (ok bool, af, bf []float64) {
	if d := core.Cfg(cfg).GemmSmallDim; d <= 0 || m > d || n > d {
		return false, nil, nil
	}
	af, _ = any(a).([]float64)
	bf, _ = any(b).([]float64)
	return true, af, bf
}

// getrfSmall computes the LU factorization with partial pivoting of an m×n
// matrix (m, n under the small crossover), with ipiv and info semantics
// identical to Getf2: panels of smallLUNB columns are factored with
// contiguous rank-1 sweeps, pivot interchanges outside the panel are applied
// in one deferred Laswp pass per panel, and the trailing matrix absorbs one
// pack-free Gemm per panel.
func getrfSmall[T core.Scalar](cfg *core.Config, m, n int, a []T, lda int, ipiv []int) int {
	info := 0
	one := core.FromFloat[T](1)
	mn := min(m, n)
	for j0 := 0; j0 < mn; j0 += smallLUNB {
		jb := min(smallLUNB, mn-j0)
		jend := j0 + jb
		// Unblocked factorization of the panel A[j0:m, j0:jend).
		for j := j0; j < jend; j++ {
			p := j + blas.Iamax(m-j, a[j+j*lda:], 1)
			ipiv[j] = p
			if a[p+j*lda] != 0 {
				if p != j {
					// Interchange within the panel columns only; the columns
					// outside are fixed up by the Laswp passes below.
					blas.Swap(jb, a[j+j0*lda:], lda, a[p+j0*lda:], lda)
				}
				if j < m-1 {
					// SafeMin guard as in Getf2: 1/subnormal overflows.
					if piv := a[j+j*lda]; core.Abs1(piv) >= core.SafeMin[T]() {
						inv := core.Div(one, piv)
						blas.Scal(m-j-1, inv, a[j+1+j*lda:], 1)
					} else {
						for i := j + 1; i < m; i++ {
							a[i+j*lda] = core.Div(a[i+j*lda], piv)
						}
					}
				}
			} else if info == 0 {
				info = j + 1
			}
			if j < m-1 {
				// Rank-1 update restricted to the panel: one contiguous axpy
				// per remaining panel column.
				for c := j + 1; c < jend; c++ {
					if t := a[j+c*lda]; t != 0 {
						blas.Axpy(m-j-1, -t, a[j+1+j*lda:], 1, a[j+1+c*lda:], 1)
					}
				}
			}
		}
		// Pull the panel's interchanges across the columns on either side.
		Laswp(j0, a, lda, j0, jend, ipiv)
		if jend < n {
			Laswp(n-jend, a[jend*lda:], lda, j0, jend, ipiv)
			// U block row, then the pack-free trailing update.
			blas.Trsm(cfg, Left, Lower, NoTrans, Unit, jb, n-jend, one,
				a[j0+j0*lda:], lda, a[j0+jend*lda:], lda)
			if jend < m {
				blas.Gemm(cfg, NoTrans, NoTrans, m-jend, n-jend, jb, -one,
					a[jend+j0*lda:], lda, a[j0+jend*lda:], lda, one,
					a[jend+jend*lda:], lda)
			}
		}
	}
	return info
}

// getrsSmall solves op(A)·X = B from getrfSmall's factors for a handful of
// right-hand sides by direct substitution, one contiguous axpy per factor
// column — the Trsm machinery's per-call dispatch and edge handling cost
// more than these solves. Callers route wider B through the regular Getrs.
func getrsSmall[T core.Scalar](n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	for r := 0; r < nrhs; r++ {
		x := b[r*ldb : r*ldb+n]
		for i := 0; i < n; i++ {
			if p := ipiv[i]; p != i {
				x[i], x[p] = x[p], x[i]
			}
		}
		// Forward substitution with the unit lower factor.
		for j := 0; j < n-1; j++ {
			if t := x[j]; t != 0 {
				blas.Axpy(n-j-1, -t, a[j+1+j*lda:], 1, x[j+1:], 1)
			}
		}
		// Back substitution with the upper factor.
		for j := n - 1; j >= 0; j-- {
			t := core.Div(x[j], a[j+j*lda])
			x[j] = t
			if j > 0 && t != 0 {
				blas.Axpy(j, -t, a[j*lda:], 1, x, 1)
			}
		}
	}
}

// getrfSmallF64 is the float64 specialization of getrfSmall: identical
// panel/update structure, but each panel step is one fused assembly kernel
// (pivot-column scale, rank-1 sweep over the remaining panel columns, and
// the |max| scan for the next pivot in the same pass), and the U12
// block-row solve stages the panel's unit-lower triangle zero-padded
// column-major so the eight-wide TRSM kernel runs full-register FMA
// eliminations; columns past the kernel's groups of four solve in scalar
// registers.
func getrfSmallF64(cfg *core.Config, m, n int, a []float64, lda int, ipiv []int) int {
	info := 0
	mn := min(m, n)
	for j0 := 0; j0 < mn; j0 += smallLUNB {
		jb := min(smallLUNB, mn-j0)
		jend := j0 + jb
		// Unblocked factorization of the panel A[j0:m, j0:jend): pivot
		// search, then one fused kernel call that scales the pivot column,
		// folds it into the remaining panel columns and hands back the next
		// pivot index — the first updated column is the next step's search
		// range, so only the first column of each panel pays a full Iamax.
		pNext := -1
		for j := j0; j < jend; j++ {
			var p int
			if pNext >= 0 {
				p = j + pNext
			} else {
				p = j + blas.IamaxUnitF64(m-j, a[j+j*lda:j*lda+m])
			}
			pNext = -1
			ipiv[j] = p
			if a[p+j*lda] != 0 {
				if p != j {
					for c := j0; c < jend; c++ {
						a[j+c*lda], a[p+c*lda] = a[p+c*lda], a[j+c*lda]
					}
				}
				if j < m-1 {
					var rest []float64
					if w := jend - j - 1; w > 0 {
						rest = a[j+(j+1)*lda:]
					}
					// SafeMin guard as in Getf2: 1/subnormal overflows.
					// Pre-divide the column and let the fused kernel run
					// with a unit multiplier (exact no-op scale).
					piv := a[j+j*lda]
					inv := 1 / piv
					if math.Abs(piv) < core.SafeMin[float64]() {
						inv = 1
						for i := j + 1; i < m; i++ {
							a[i+j*lda] /= piv
						}
					}
					pNext = blas.LUPanelF64(m-j-1, jend-j-1, inv,
						a[j+1+j*lda:j*lda+m], rest, lda)
				}
				continue
			}
			if info == 0 {
				info = j + 1
			}
			// Singular pivot: no scale, but the rank-1 sweep with the raw
			// column still runs, exactly as in Getf2.
			if j < m-1 {
				rows := m - j - 1
				src := a[j+1+j*lda : j*lda+m]
				for c := j + 1; c < jend; c++ {
					t := a[j+c*lda]
					if t == 0 {
						continue
					}
					if rows >= smallAxpyMin {
						blas.DaxpyUnit(rows, -t, src, a[j+1+c*lda:])
						continue
					}
					dst := a[j+1+c*lda : c*lda+m]
					for i, v := range src {
						dst[i] -= t * v
					}
				}
			}
		}
		// Deferred interchanges: pull the panel's row swaps across the
		// columns on either side of it.
		for j := j0; j < jend; j++ {
			if p := ipiv[j]; p != j {
				for c := 0; c < j0; c++ {
					a[j+c*lda], a[p+c*lda] = a[p+c*lda], a[j+c*lda]
				}
				for c := jend; c < n; c++ {
					a[j+c*lda], a[p+c*lda] = a[p+c*lda], a[j+c*lda]
				}
			}
		}
		if jend >= n {
			continue
		}
		// U12 block row: solve L11·U12 = A12 in place. Full-width panels
		// stage the unit-lower triangle zero-padded column-major and hand
		// four-column groups to the vector TRSM kernel; leftover columns
		// (and builds without the kernel) solve entirely in registers.
		if jb == smallLUNB {
			var lbuf [smallLUNB * (smallLUNB - 1)]float64
			for q := 0; q < smallLUNB-1; q++ {
				lcol := lbuf[q*smallLUNB : q*smallLUNB+smallLUNB : q*smallLUNB+smallLUNB]
				acol := a[j0+(j0+q)*lda:]
				for i := q + 1; i < smallLUNB; i++ {
					lcol[i] = acol[i]
				}
			}
			cstart := jend + blas.TrsmLLU8F64(n-jend, &lbuf, a[j0+jend*lda:], lda)
			if cstart < n {
				o := j0 + j0*lda
				l10, l20, l30 := a[o+1], a[o+2], a[o+3]
				l40, l50, l60, l70 := a[o+4], a[o+5], a[o+6], a[o+7]
				o += lda
				l21, l31, l41 := a[o+2], a[o+3], a[o+4]
				l51, l61, l71 := a[o+5], a[o+6], a[o+7]
				o += lda
				l32, l42, l52, l62, l72 := a[o+3], a[o+4], a[o+5], a[o+6], a[o+7]
				o += lda
				l43, l53, l63, l73 := a[o+4], a[o+5], a[o+6], a[o+7]
				o += lda
				l54, l64, l74 := a[o+5], a[o+6], a[o+7]
				o += lda
				l65, l75 := a[o+6], a[o+7]
				o += lda
				l76 := a[o+7]
				for c := cstart; c < n; c++ {
					col := a[j0+c*lda : j0+c*lda+8 : j0+c*lda+8]
					v0, v1, v2, v3 := col[0], col[1], col[2], col[3]
					v4, v5, v6, v7 := col[4], col[5], col[6], col[7]
					v1 -= l10 * v0
					v2 -= l20 * v0
					v3 -= l30 * v0
					v4 -= l40 * v0
					v5 -= l50 * v0
					v6 -= l60 * v0
					v7 -= l70 * v0
					v2 -= l21 * v1
					v3 -= l31 * v1
					v4 -= l41 * v1
					v5 -= l51 * v1
					v6 -= l61 * v1
					v7 -= l71 * v1
					v3 -= l32 * v2
					v4 -= l42 * v2
					v5 -= l52 * v2
					v6 -= l62 * v2
					v7 -= l72 * v2
					v4 -= l43 * v3
					v5 -= l53 * v3
					v6 -= l63 * v3
					v7 -= l73 * v3
					v5 -= l54 * v4
					v6 -= l64 * v4
					v7 -= l74 * v4
					v6 -= l65 * v5
					v7 -= l75 * v5
					v7 -= l76 * v6
					col[1], col[2], col[3] = v1, v2, v3
					col[4], col[5], col[6], col[7] = v4, v5, v6, v7
				}
			}
			if jend < m {
				blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, m-jend, n-jend, jb, -1,
					a[jend+j0*lda:], lda, a[j0+jend*lda:], lda, 1,
					a[jend+jend*lda:], lda)
			}
			continue
		}
		// Ragged last panel: stage the unit-lower triangle column-major in a
		// local tile and run four right-hand sides per sweep so each staged
		// column is loaded once per four columns of U12.
		var l [smallLUNB * smallLUNB]float64
		for q := 0; q < jb-1; q++ {
			lcol := l[q*smallLUNB:]
			for i := q + 1; i < jb; i++ {
				lcol[i] = a[j0+i+(j0+q)*lda]
			}
		}
		c := jend
		for ; c+4 <= n; c += 4 {
			col0 := a[j0+c*lda : j0+c*lda+jb]
			col1 := a[j0+(c+1)*lda : j0+(c+1)*lda+jb]
			col2 := a[j0+(c+2)*lda : j0+(c+2)*lda+jb]
			col3 := a[j0+(c+3)*lda : j0+(c+3)*lda+jb]
			for q := 0; q < jb-1; q++ {
				x0, x1, x2, x3 := col0[q], col1[q], col2[q], col3[q]
				lcol := l[q*smallLUNB+q+1 : q*smallLUNB+jb]
				for i, lv := range lcol {
					col0[q+1+i] -= lv * x0
					col1[q+1+i] -= lv * x1
					col2[q+1+i] -= lv * x2
					col3[q+1+i] -= lv * x3
				}
			}
		}
		for ; c < n; c++ {
			col := a[j0+c*lda : j0+c*lda+jb]
			for q := 0; q < jb-1; q++ {
				x := col[q]
				if x == 0 {
					continue
				}
				lcol := l[q*smallLUNB+q+1 : q*smallLUNB+jb]
				for i, lv := range lcol {
					col[q+1+i] -= lv * x
				}
			}
		}
		// Pack-free trailing update A22 -= L21·U12.
		if jend < m {
			blas.Gemm(cfg, blas.NoTrans, blas.NoTrans, m-jend, n-jend, jb, -1,
				a[jend+j0*lda:], lda, a[j0+jend*lda:], lda, 1,
				a[jend+jend*lda:], lda)
		}
	}
	return info
}

// getrsSmallF64 is the float64 specialization of getrsSmall: both
// substitutions run in blocks of eight rows — the triangular diagonal block
// solves entirely in registers, then one eight-column gemv kernel call folds
// the solved entries into the rest of the vector. Ragged remainders fall
// back to the per-column loops.
func getrsSmallF64(n, nrhs int, a []float64, lda int, ipiv []int, b []float64, ldb int) {
	for r := 0; r < nrhs; r++ {
		x := b[r*ldb : r*ldb+n]
		for i := 0; i < n; i++ {
			if p := ipiv[i]; p != i {
				x[i], x[p] = x[p], x[i]
			}
		}
		// Forward substitution with the unit lower factor, top down.
		j0 := 0
		for ; j0+smallLUNB <= n; j0 += smallLUNB {
			xs := x[j0 : j0+8 : j0+8]
			v0, v1, v2, v3 := xs[0], xs[1], xs[2], xs[3]
			v4, v5, v6, v7 := xs[4], xs[5], xs[6], xs[7]
			o := j0 + j0*lda
			v1 -= a[o+1] * v0
			v2 -= a[o+2] * v0
			v3 -= a[o+3] * v0
			v4 -= a[o+4] * v0
			v5 -= a[o+5] * v0
			v6 -= a[o+6] * v0
			v7 -= a[o+7] * v0
			o += lda
			v2 -= a[o+2] * v1
			v3 -= a[o+3] * v1
			v4 -= a[o+4] * v1
			v5 -= a[o+5] * v1
			v6 -= a[o+6] * v1
			v7 -= a[o+7] * v1
			o += lda
			v3 -= a[o+3] * v2
			v4 -= a[o+4] * v2
			v5 -= a[o+5] * v2
			v6 -= a[o+6] * v2
			v7 -= a[o+7] * v2
			o += lda
			v4 -= a[o+4] * v3
			v5 -= a[o+5] * v3
			v6 -= a[o+6] * v3
			v7 -= a[o+7] * v3
			o += lda
			v5 -= a[o+5] * v4
			v6 -= a[o+6] * v4
			v7 -= a[o+7] * v4
			o += lda
			v6 -= a[o+6] * v5
			v7 -= a[o+7] * v5
			o += lda
			v7 -= a[o+7] * v6
			xs[1], xs[2], xs[3] = v1, v2, v3
			xs[4], xs[5], xs[6], xs[7] = v4, v5, v6, v7
			if rem := n - j0 - smallLUNB; rem > 0 {
				blas.GemvSub8F64(rem, xs, a[j0+smallLUNB+j0*lda:], lda, x[j0+smallLUNB:])
			}
		}
		for j := j0; j < n-1; j++ {
			t := x[j]
			if t == 0 {
				continue
			}
			col := a[j+1+j*lda : j*lda+n]
			dst := x[j+1:]
			for i, v := range col {
				dst[i] -= t * v
			}
		}
		// Back substitution with the upper factor, bottom up: the ragged
		// tail first (its per-column updates reach all the rows above), then
		// full blocks of eight.
		j1 := n - n%smallLUNB
		for j := n - 1; j >= j1; j-- {
			t := x[j] / a[j+j*lda]
			x[j] = t
			if j == 0 || t == 0 {
				continue
			}
			if j >= smallAxpyMin {
				blas.DaxpyUnit(j, -t, a[j*lda:], x)
				continue
			}
			col := a[j*lda : j*lda+j]
			for i, v := range col {
				x[i] -= t * v
			}
		}
		for ; j1 >= smallLUNB; j1 -= smallLUNB {
			b0 := j1 - smallLUNB
			xs := x[b0 : b0+8 : b0+8]
			v0, v1, v2, v3 := xs[0], xs[1], xs[2], xs[3]
			v4, v5, v6, v7 := xs[4], xs[5], xs[6], xs[7]
			o := b0 + (b0+7)*lda
			v7 /= a[o+7]
			v0 -= a[o] * v7
			v1 -= a[o+1] * v7
			v2 -= a[o+2] * v7
			v3 -= a[o+3] * v7
			v4 -= a[o+4] * v7
			v5 -= a[o+5] * v7
			v6 -= a[o+6] * v7
			o -= lda
			v6 /= a[o+6]
			v0 -= a[o] * v6
			v1 -= a[o+1] * v6
			v2 -= a[o+2] * v6
			v3 -= a[o+3] * v6
			v4 -= a[o+4] * v6
			v5 -= a[o+5] * v6
			o -= lda
			v5 /= a[o+5]
			v0 -= a[o] * v5
			v1 -= a[o+1] * v5
			v2 -= a[o+2] * v5
			v3 -= a[o+3] * v5
			v4 -= a[o+4] * v5
			o -= lda
			v4 /= a[o+4]
			v0 -= a[o] * v4
			v1 -= a[o+1] * v4
			v2 -= a[o+2] * v4
			v3 -= a[o+3] * v4
			o -= lda
			v3 /= a[o+3]
			v0 -= a[o] * v3
			v1 -= a[o+1] * v3
			v2 -= a[o+2] * v3
			o -= lda
			v2 /= a[o+2]
			v0 -= a[o] * v2
			v1 -= a[o+1] * v2
			o -= lda
			v1 /= a[o+1]
			v0 -= a[o] * v1
			o -= lda
			v0 /= a[o]
			xs[0], xs[1], xs[2], xs[3] = v0, v1, v2, v3
			xs[4], xs[5], xs[6], xs[7] = v4, v5, v6, v7
			if b0 > 0 {
				blas.GemvSub8F64(b0, xs, a[b0*lda:], lda, x)
			}
		}
	}
}

package lapack

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
)

// secularBisect is the root finder solveSecularCore used before the rational
// iteration — the two-sided anchoring followed by 140 plain halvings of the
// bracket — kept as the oracle the rational solver is checked against.
func secularBisect(k, i int, rho float64, d, z []float64) (base int, tau float64) {
	f := func(base int, t float64) float64 {
		s := 1.0
		for j := 0; j < k; j++ {
			s += rho * z[j] * z[j] / ((d[j] - d[base]) - t)
		}
		return s
	}
	base = i
	var a, b float64
	if i == k-1 {
		zz := 0.0
		for j := 0; j < k; j++ {
			zz += z[j] * z[j]
		}
		a, b = 0, rho*zz
	} else {
		gap := d[i+1] - d[i]
		if f(i, 0.5*gap) > 0 {
			a, b = 0, 0.5*gap
		} else {
			base = i + 1
			a, b = -0.5*gap, 0
		}
	}
	for it := 0; it < 140; it++ {
		mid := 0.5 * (a + b)
		if mid <= a || mid >= b {
			break
		}
		if f(base, mid) < 0 {
			a = mid
		} else {
			b = mid
		}
	}
	return base, 0.5 * (a + b)
}

// secularCase is one rank-one update D + ρ·z·zᵀ as dcMerge hands it to the
// solver: d ascending, ‖z‖ = 1, no component deflatable.
type secularCase struct {
	name string
	rho  float64
	d, z []float64
}

func secularCases() []secularCase {
	var cases []secularCase
	for _, k := range []int{1, 2, 3, 25, 200} {
		for _, rho := range []float64{1e-10, 1e-3, 1, 1e4, 1e10} {
			for _, kind := range []string{"random", "clustered", "graded", "tinyz"} {
				rng := NewRng([4]int{k, len(kind), int(math.Log10(rho)) + 20, 7})
				d, z := make([]float64, k), make([]float64, k)
				for j := range d {
					switch kind {
					case "clustered": // runs of five poles 1e-14 apart
						d[j] = float64(j/5) + float64(j%5)*1e-14
					case "graded":
						d[j] = math.Ldexp(1+0.5*rng.Uniform(), -300+600*j/max(k-1, 1))
					default:
						d[j] = 3 * rng.Uniform11()
					}
					z[j] = rng.Uniform11()
				}
				sort.Float64s(d)
				for j := 1; j < k; j++ {
					if d[j]-d[j-1] < 1e-10 && kind != "clustered" {
						d[j] = d[j-1] + 1e-10
					}
				}
				nrm := 0.0
				for _, v := range z {
					nrm += v * v
				}
				nrm = math.Sqrt(nrm)
				dmax := math.Max(math.Abs(d[0]), math.Abs(d[k-1]))
				for j := range z {
					z[j] /= nrm
					if kind == "tinyz" && j%2 == 1 {
						// Just above dcMerge's rule-1 deflation tolerance
						// ρ·|z| ≤ 8ε·max(max|d|, max|z|).
						z[j] = math.Copysign(2*8*core.EpsDouble*math.Max(dmax, 1)/rho, z[j])
					}
				}
				cases = append(cases, secularCase{fmt.Sprintf("%s/k=%d/rho=%g", kind, k, rho), rho, d, z})
			}
		}
	}
	return cases
}

// TestSecularRootAgainstBisection checks every root of the rational solver:
// strictly inside its pole interval, satisfying the stopping rule when w is
// re-evaluated at the returned shift, and equal to the bisection oracle's to
// 8ε·max(max|d|, ρ‖z‖²); and it bounds the work, a mean of at most 8 and a
// maximum of 60 secular-function evaluations per root.
func TestSecularRootAgainstBisection(t *testing.T) {
	eps := core.EpsDouble
	roots, evalsTotal, evalsMax := 0, 0, 0
	for _, c := range secularCases() {
		k, rho, d, z := len(c.d), c.rho, c.d, c.z
		if k == 1 {
			lam, u := make([]float64, 1), make([]float64, 1)
			solveSecularCore(1, rho, d, z, lam, u, make([]float64, 1), make([]float64, 1))
			if want := d[0] + rho*z[0]*z[0]; lam[0] != want || u[0] != 1 {
				t.Errorf("%s: λ=%v u=%v, want %v and 1", c.name, lam[0], u[0], want)
			}
			continue
		}
		zz := 0.0
		for _, v := range z {
			zz += v * v
		}
		scale := 8 * eps * math.Max(math.Max(math.Abs(d[0]), math.Abs(d[k-1])), rho*zz)
		for i := 0; i < k; i++ {
			base, tau, evals := secularRoot(k, i, rho, d, z, zz)
			roots++
			evalsTotal += evals
			evalsMax = max(evalsMax, evals)
			below := (d[i] - d[base]) - tau
			inside := below < 0
			if i < k-1 {
				inside = inside && (d[i+1]-d[base])-tau > 0
			}
			if !inside {
				t.Errorf("%s root %d: τ=%v from pole %d is outside the pole interval", c.name, i, tau, base)
				continue
			}
			split := min(i, k-2)
			rest, pole, dpsi, dphi, dpole, sumAbs := secularEval(k, split, base, rho, d, z, tau)
			w := rest + pole
			if bound := eps * (8*sumAbs + 1 + math.Abs(tau)*(dpsi+dphi+dpole)); math.Abs(w) > bound {
				t.Errorf("%s root %d: |w(τ)| = %v exceeds the stopping bound %v (%d evaluations)", c.name, i, math.Abs(w), bound, evals)
			}
			rbase, rtau := secularBisect(k, i, rho, d, z)
			if got, want := d[base]+tau, d[rbase]+rtau; math.Abs(got-want) > scale {
				t.Errorf("%s root %d: λ=%v, bisection gives %v (|Δ| = %v > %v)", c.name, i, got, want, math.Abs(got-want), scale)
			}
		}
	}
	mean := float64(evalsTotal) / float64(roots)
	t.Logf("%d roots, %.2f evaluations per root, at most %d", roots, mean, evalsMax)
	if mean > 8 || evalsMax > 60 {
		t.Errorf("secular solver used %.2f evaluations per root (max %d); want a mean ≤ 8 and a maximum ≤ 60", mean, evalsMax)
	}
}

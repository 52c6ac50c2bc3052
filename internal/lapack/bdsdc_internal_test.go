package lapack

import (
	"math"
	"testing"
)

// TestBdsdcDeepRecursion forces tiny leaf cutoffs so every merge path —
// sqre=1 folds, z-column deflation, rule-2 rotations, multi-level
// recursion — is exercised on matrices small enough to diagnose.
func TestBdsdcDeepRecursion(t *testing.T) {
	defer func(old int) { bdsdcCutoff = old }(bdsdcCutoff)
	for _, cutoff := range []int{1, 2, 3, 5, 10} {
		bdsdcCutoff = cutoff
		// Orders 1..45 random; 46 a glued Wilkinson-type bidiagonal (clusters
		// across the tears), 47 one whose merges deflate every column.
		for n := 1; n <= 47; n++ {
			rng := NewRng([4]int{n, 11, 12, 13})
			d := make([]float64, n)
			e := make([]float64, max(0, n-1))
			Larnv(2, rng, n, d)
			Larnv(2, rng, max(0, n-1), e)
			for i := range e {
				switch n {
				case 46:
					d[i], e[i] = 1+math.Abs(float64(4-i%9)), 1
					if i%9 == 8 {
						e[i] = 1e-9
					}
				case 47:
					d[i], e[i] = 1+math.Abs(d[i]), 1e-18*e[i]
				}
			}
			dense, edense := append([]float64(nil), d...), append([]float64(nil), e...)
			if info := BdsdcDenseRef(tcfg(), n, dense, edense, make([]float64, n*n), n, make([]float64, n*n), n); info != 0 {
				t.Fatalf("cutoff=%d n=%d: dense-merge reference info=%d", cutoff, n, info)
			}
			dref := append([]float64(nil), d...)
			eref := append([]float64(nil), e...)
			if info := Bdsqr[float64](tcfg(), n, dref, eref, nil, 0, 0, nil, 0, 0); info != 0 {
				t.Fatalf("bdsqr info=%d", info)
			}
			u := make([]float64, n*n)
			vt := make([]float64, n*n)
			if info := Bdsdc(tcfg(), n, d, e, u, n, vt, n); info != 0 {
				t.Fatalf("cutoff=%d n=%d: bdsdc info=%d", cutoff, n, info)
			}
			for i := 0; i < n; i++ {
				if diff := math.Abs(d[i] - dref[i]); diff > 1e-12*math.Max(1, dref[0]) {
					t.Fatalf("cutoff=%d n=%d s[%d]: dc=%v qr=%v", cutoff, n, i, d[i], dref[i])
				}
				if diff := math.Abs(d[i] - dense[i]); diff > float64(n)*0x1p-52*math.Max(1, dref[0]) {
					t.Fatalf("cutoff=%d n=%d s[%d]: structured merges %v, dense merges %v", cutoff, n, i, d[i], dense[i])
				}
			}
			for _, q := range [][]float64{u, vt} {
				for i := 0; i < n; i++ {
					for j := i; j < n; j++ {
						s := 0.0
						for r := 0; r < n; r++ {
							s += q[r+i*n] * q[r+j*n]
						}
						if i == j {
							s -= 1
						}
						if math.Abs(s) > 1e-12 {
							t.Fatalf("cutoff=%d n=%d: gram[%d,%d]=%v", cutoff, n, i, j, s)
						}
					}
				}
			}
		}
	}
}

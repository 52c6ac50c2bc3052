package blas

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrsmLLU8Direct checks the staged 8×8 unit-lower solve against a
// scalar forward substitution, column by column. The staging layout (L
// column-major 8-wide, zeros at and above the diagonal) is exactly what
// the small-LU U12 path builds, so a wrong lane or offset in the kernel
// shows up here before it corrupts a factorization.
func TestTrsmLLU8Direct(t *testing.T) {
	if !asmF64() {
		t.Skip("no float64 vector kernels on this build")
	}
	rng := rand.New(rand.NewSource(7))
	const nb = 8
	for _, cols := range []int{4, 8, 12} {
		var lbuf [56]float64
		lfull := make([]float64, nb*nb)
		for q := 0; q < nb-1; q++ {
			for i := q + 1; i < nb; i++ {
				v := rng.NormFloat64()
				lbuf[q*nb+i] = v
				lfull[i+q*nb] = v
			}
		}
		ldb := nb + 3
		b := make([]float64, ldb*cols)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := append([]float64(nil), b...)
		for c := 0; c < cols; c++ {
			x := ref[c*ldb : c*ldb+nb]
			for q := 0; q < nb-1; q++ {
				for i := q + 1; i < nb; i++ {
					x[i] -= lfull[i+q*nb] * x[q]
				}
			}
		}
		got := TrsmLLU8F64(cols, &lbuf, b, ldb)
		if got != cols/4*4 {
			t.Fatalf("cols=%d handled=%d", cols, got)
		}
		for c := 0; c < got; c++ {
			for i := 0; i < nb; i++ {
				g, w := b[c*ldb+i], ref[c*ldb+i]
				if math.Abs(g-w) > 1e-12*(1+math.Abs(w)) {
					t.Errorf("cols=%d col=%d row=%d got %v want %v", cols, c, i, g, w)
				}
			}
		}
		if t.Failed() {
			break
		}
	}
}

// TestLUPanelF64Direct checks the fused panel kernel (scale + rank-1
// sweep + next-pivot scan) against its own portable body on panels of
// every width the small-LU path produces, including the zero-width last
// column and ragged row counts that exercise the vector tails.
func TestLUPanelF64Direct(t *testing.T) {
	if !asmF64() {
		t.Skip("no float64 vector kernels on this build")
	}
	rng := rand.New(rand.NewSource(11))
	lda := 19
	for _, rows := range []int{1, 3, 4, 7, 8, 13, 16} {
		for w := 0; w <= 7; w++ {
			n := (w + 1) * lda
			a := make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			inv := 1 / (2 + rng.Float64())
			// Portable reference on a copy.
			ref := append([]float64(nil), a...)
			col := ref[:rows]
			for i := range col {
				col[i] *= inv
			}
			want := -1
			for c := 0; c < w; c++ {
				s := ref[(c+1)*lda : (c+1)*lda+1+rows]
				for i, v := range col {
					s[1+i] -= s[0] * v
				}
			}
			if w > 0 {
				want = iamaxFloat(ref[lda+1 : lda+1+rows])
			}
			var rest []float64
			if w > 0 {
				rest = a[lda:]
			}
			got := LUPanelF64(rows, w, inv, a[:rows], rest, lda)
			if got != want {
				t.Errorf("rows=%d w=%d pivot got %d want %d", rows, w, got, want)
			}
			for i, v := range a {
				// FMA vs separate multiply-subtract: allow rounding slack.
				if math.Abs(v-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
					t.Errorf("rows=%d w=%d elem %d got %v want %v", rows, w, i, v, ref[i])
				}
			}
		}
	}
}

package la_test

// Golden fingerprints of the expert drivers (the eleven LA_*SVX and the two
// batched ones), recorded at the commit before their nine pipelines were
// folded into one (PR 20) and to be passed unedited by any refactor of that
// pipeline. Per driver and scalar type one entry folds every case of the
// corpus below — UPLO or TRANS × {plain, WithEquilibration} × n ∈ {1, 2, 7,
// 33} × nrhs ∈ {1, 3} × six kinds of matrix — into
//
//   - an FNV-64a over Info, Diag, Equed, IPiv, the bits of X, of R/C/S
//     whenever a scaling was applied, of the matrix storage and B as the call
//     left them, and the class (zero, positive, +Inf, NaN, negative) of every
//     RCond/Ferr/Berr/RPvGrw value: these may not move by a bit;
//   - Σ log v over the positive finite RCond, Ferr, Berr and RPvGrw values,
//     compared at 1e-12 (f64/c128) or 1e-4 (f32/c64) per term, since a
//     differently ordered |A|·x or column sum may round differently.
//
// One hash per entry, which every kernel row — the portable one (its Go twins
// of the assembly kernels) included — must produce; the portable route's own
// column was dropped when it took the asm rows' bits (the change that added
// internal/blas/twins.go), every asm value kept.
// The graded kinds are built from entries ±2^e (times 1 or i) scaled by
// powers of two, so every equilibration factor is a power of two and the
// scaled matrix does not depend on the order the factors are applied in; the
// inputs of PR 20's deliberate fixes (entries beyond the xLAQGE/xLAQSY amax
// thresholds, scale products that overflow) are kept out and have tests of
// their own in expert_robust_test.go, and so is RCond of complex PTSVX, whose
// 1-norm was taken with |re|+|im| before PR 20 (TestPtsvxComplexNorm).
// Regenerated once each, on purpose: the eight PO rows when the small
// Cholesky became a step leaf (PR 22), the eight GE rows when the small LU did
// (PR 23; EXPERIMENTS.md has the table).
// Regenerate with `go test ./la -run ExpertGolden -args -golden`; with
// `-v -args -golden`, one line per case too (to diff two commits).

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/testutil/diff"
	"repro/la"
)

// The sums are Σ log of RCond, Ferr, Berr and RPvGrw.
var expertGolden = diff.Table{
	"BatchGesvx/complex128": {Hash: 0xe449fb2c0f407a34, Sums: []float64{-4917.0708067777614, -13048.156930573628, -13730.984079556163, -45.571304490896274}},
	"BatchGesvx/complex64":  {Hash: 0x81dc309c8aff588a, Sums: []float64{-4193.4251716339004, -4848.1651307948441, -6296.3873104377126, -44.799767303524717}},
	"BatchGesvx/float32":    {Hash: 0xdab40766ed451efb, Sums: []float64{-2781.1620316450581, -3278.4426149058199, -4071.1415955453826, -23.214489002860486}},
	"BatchGesvx/float64":    {Hash: 0x628a23d082ea4871, Sums: []float64{-3263.5924476132336, -8745.2172657837054, -8719.5418130349499, -23.214488447767604}},
	"BatchPosvx/complex128": {Hash: 0x12ec38e76cb3d1f3, Sums: []float64{-2422.873513169623, -8896.0080002114937, -9189.5658169864728, 0}},
	"BatchPosvx/complex64":  {Hash: 0x53b1536786811da6, Sums: []float64{-1940.4430828239042, -3427.5951848676268, -4296.0144987761259, 0}},
	"BatchPosvx/float32":    {Hash: 0xb05ae7a1c6cd87a8, Sums: []float64{-1923.5356924013945, -3453.6765649952649, -4310.7804528220659, 0}},
	"BatchPosvx/float64":    {Hash: 0x3c898ab9fd5e1287, Sums: []float64{-2405.9661283967198, -8923.3016947976321, -9051.6048944416561, 0}},
	"GBSVX/complex128":      {Hash: 0xfdb7577f7bff3b6b, Sums: []float64{-5025.7745782150196, -13275.109061308996, -13366.112305719493, 0}},
	"GBSVX/complex64":       {Hash: 0xe9fd816052e041fb, Sums: []float64{-4302.1291356284701, -5075.7535011614782, -6199.77947709618, 0}},
	"GBSVX/float32":         {Hash: 0xb6493eddb6ec6de4, Sums: []float64{-2857.7394932930724, -3415.2270674737829, -3843.4571245631132, 0}},
	"GBSVX/float64":         {Hash: 0x5789645bf183c76f, Sums: []float64{-3340.1698701989621, -8881.407787019416, -8204.5723473862399, 0}},
	"GESVX/complex128":      {Hash: 0xe449fb2c0f407a34, Sums: []float64{-4917.0708067777614, -13048.156930573628, -13730.984079556163, -45.571304490896274}},
	"GESVX/complex64":       {Hash: 0x81dc309c8aff588a, Sums: []float64{-4193.4251716339004, -4848.1651307948441, -6296.3873104377126, -44.799767303524717}},
	"GESVX/float32":         {Hash: 0xdab40766ed451efb, Sums: []float64{-2781.1620316450581, -3278.4426149058199, -4071.1415955453826, -23.214489002860486}},
	"GESVX/float64":         {Hash: 0x628a23d082ea4871, Sums: []float64{-3263.5924476132336, -8745.2172657837054, -8719.5418130349499, -23.214488447767604}},
	"GTSVX/complex128":      {Hash: 0x9e81e21cb4465a7e, Sums: []float64{-3963.7463342274032, -6655.6513899749152, -6559.290200675272, 0}},
	"GTSVX/complex64":       {Hash: 0x4d3d792598ca6bc5, Sums: []float64{-3601.9235769552097, -2556.0954979979988, -3204.6211252954017, 0}},
	"GTSVX/float32":         {Hash: 0x7ceb68b63ce7218b, Sums: []float64{-2398.3549765970743, -1712.9793698474823, -2006.9874326157635, 0}},
	"GTSVX/float64":         {Hash: 0x451a867cf48ac1b0, Sums: []float64{-2639.5701768298832, -4446.5669382286451, -4048.7080284883477, 0}},
	"HESVX/complex128":      {Hash: 0xdd4fe5f975559722, Sums: []float64{-1932.5970170961114, -4403.6332208669201, -4676.0098034511157, 0}},
	"HESVX/complex64":       {Hash: 0x959ac89e64237873, Sums: []float64{-1691.3818060906872, -1669.9081568042948, -2165.8521072972135, 0}},
	"HESVX/float32":         {Hash: 0x7263cb650a88ef10, Sums: []float64{-1682.4785224861453, -1691.6459158261787, -2158.3391896763151, 0}},
	"HESVX/float64":         {Hash: 0xa266e6a422512c9d, Sums: []float64{-1923.693735177641, -4425.2798797001633, -4647.2696523978148, 0}},
	"HPSVX/complex128":      {Hash: 0x0e80b93ecdca73ba, Sums: []float64{-1932.5970170961114, -4403.6332208669201, -4676.0098034511157, 0}},
	"HPSVX/complex64":       {Hash: 0x4399887d095bb946, Sums: []float64{-1691.3818060906872, -1669.9081568042948, -2165.8521072972135, 0}},
	"HPSVX/float32":         {Hash: 0x4a4f2a2e4c62868e, Sums: []float64{-1682.4785224861453, -1691.6459158261787, -2158.3391896763151, 0}},
	"HPSVX/float64":         {Hash: 0xcc82ddff7510680e, Sums: []float64{-1923.693735177641, -4425.2392633970112, -4647.517152027458, 0}},
	"PBSVX/complex128":      {Hash: 0xefd991e8056b64f7, Sums: []float64{-2397.6917923461283, -8924.9035554466736, -9139.1603769250905, 0}},
	"PBSVX/complex64":       {Hash: 0xe7f2ad67293d6a93, Sums: []float64{-1915.2613592010405, -3456.5327836803895, -4255.2153488619424, 0}},
	"PBSVX/float32":         {Hash: 0x11caff15efcdeb9f, Sums: []float64{-1905.0768216018266, -3471.6949658506624, -4283.6315394864041, 0}},
	"PBSVX/float64":         {Hash: 0x735eec350ce7b322, Sums: []float64{-2387.5072580731712, -8940.7156235865732, -9007.4938099810315, 0}},
	"POSVX/complex128":      {Hash: 0x12ec38e76cb3d1f3, Sums: []float64{-2422.873513169623, -8896.0080002114937, -9189.5658169864728, 0}},
	"POSVX/complex64":       {Hash: 0x53b1536786811da6, Sums: []float64{-1940.4430828239042, -3427.5951848676268, -4296.0144987761259, 0}},
	"POSVX/float32":         {Hash: 0xb05ae7a1c6cd87a8, Sums: []float64{-1923.5356924013945, -3453.6765649952649, -4310.7804528220659, 0}},
	"POSVX/float64":         {Hash: 0x3c898ab9fd5e1287, Sums: []float64{-2405.9661283967198, -8923.3016947976321, -9051.6048944416561, 0}},
	"PPSVX/complex128":      {Hash: 0x0ed1b8b6ed950808, Sums: []float64{-2422.873513169623, -8895.397483659146, -9170.2000324051514, 0}},
	"PPSVX/complex64":       {Hash: 0x246a227f462bdc90, Sums: []float64{-1940.4430834237453, -3427.0308066288389, -4265.3443081618261, 0}},
	"PPSVX/float32":         {Hash: 0x64e6aa23ac0f171e, Sums: []float64{-1923.5356935069885, -3453.5668712516594, -4299.0966869458334, 0}},
	"PPSVX/float64":         {Hash: 0x5c070336b7b95203, Sums: []float64{-2405.9661283967198, -8923.045886550557, -9032.5383860855181, 0}},
	"PTSVX/complex128":      {Hash: 0x465cb5cc343eaf99, Sums: []float64{0, -2233.6746925468456, -2325.6522623675869, 0}},
	"PTSVX/complex64":       {Hash: 0xf5e6ef7fcba7d986, Sums: []float64{0, -866.89209363113082, -1066.944068625889, 0}},
	"PTSVX/float32":         {Hash: 0x1021bb66645e8786, Sums: []float64{-834.90720986757401, -870.65447753448916, -1077.7571758529639, 0}},
	"PTSVX/float64":         {Hash: 0x1b6d1eb0d9d78a1d, Sums: []float64{-955.51481821147695, -2237.5346738169933, -2197.2903857131428, 0}},
	"SPSVX/complex128":      {Hash: 0x836f0ca8d9a40712, Sums: []float64{-1925.1991491742995, -4419.7870543146901, -4672.8019773097367, 0}},
	"SPSVX/complex64":       {Hash: 0x1653c595e4c2bce8, Sums: []float64{-1683.9839373448442, -1686.0286741127418, -2156.8106201392334, 0}},
	"SPSVX/float32":         {Hash: 0xf35ee519646909fb, Sums: []float64{-1682.4785226113484, -1691.6361114387432, -2160.2879311919778, 0}},
	"SPSVX/float64":         {Hash: 0xcc82ddff7510680e, Sums: []float64{-1923.693735177641, -4425.2392633970112, -4647.517152027458, 0}},
	"SYSVX/complex128":      {Hash: 0xf2ed434f5cb3d202, Sums: []float64{-1925.1991491742995, -4419.7870543146901, -4672.8019773097367, 0}},
	"SYSVX/complex64":       {Hash: 0x454afdac2c73c0fb, Sums: []float64{-1683.9839373448442, -1686.0286741127418, -2156.8106201392334, 0}},
	"SYSVX/float32":         {Hash: 0x0bfa61b242d6c846, Sums: []float64{-1682.4785226113484, -1691.6361114387432, -2160.2879311919778, 0}},
	"SYSVX/float64":         {Hash: 0xa266e6a422512c9d, Sums: []float64{-1923.693735177641, -4425.2798797001633, -4647.2696523978148, 0}},
}

var expertKinds = []string{"rand", "rowgraded", "colgraded", "bothgraded", "singular", "illcond"}

// expertFold folds one driver call into its table entry. storage is whatever
// the call may have overwritten besides B; rcondIdx is -1 where RCond is
// classed but not summed. The case has a hash of its own, so that -golden -v
// lines diff case by case.
func expertFold[T la.Scalar](entry *diff.Hash, tag string, res *la.ExpertResult[T], err error, rcondIdx int, b *la.Matrix[T], storage ...[]T) {
	acc := diff.NewHash()
	// value folds one tolerance-compared output: its class goes into the
	// hash, its logarithm into sum k when it is positive and finite.
	value := func(k int, v float64) {
		switch {
		case v == 0:
			acc.Int(0)
		case math.IsInf(v, 1):
			acc.Int(2)
		case math.IsNaN(v):
			acc.Int(3)
		case v < 0:
			acc.Int(4)
		default:
			acc.Int(1)
			if k >= 0 {
				acc.Approx(k, math.Log(v), 1)
			}
		}
	}
	info, diag := 0, 0
	var le *la.Error
	if errors.As(err, &le) {
		info, diag = le.Info, int(le.Diag)
	} else if err != nil {
		info = -999
	}
	acc.Int(info, diag, int(res.Equed))
	acc.Int(res.IPiv...)
	diff.Add(acc, res.X.Data)
	if res.Equed != 0 && res.Equed != 'N' {
		acc.Float(slices.Concat(res.R, res.C, res.S)...)
	}
	diff.Add(acc, b.Data)
	diff.Add(acc, storage...)
	value(rcondIdx, res.RCond)
	for _, v := range res.Ferr {
		value(1, v)
	}
	for _, v := range res.Berr {
		value(2, v)
	}
	value(3, res.RPvGrw)
	entry.Int(int(acc.Sum64()))
	acc.Approx(3, 0, 0) // all four sums, RPvGrw's too where it is never summed
	for k := range acc.Sums {
		entry.Approx(k, acc.Sums[k], acc.Terms[k])
	}
	if diff.Cases() {
		fmt.Printf("case %s info=%d equed=%q h=%#016x rcond=%.17g ferr=%.17g berr=%.17g rpvgrw=%.17g\n",
			tag, info, res.Equed, acc.Sum64(), res.RCond, res.Ferr, res.Berr, res.RPvGrw)
	}
}

// expertPow2 draws ±2^e, e ∈ {0, −1, −2, −3}, times 1 or i for complex T.
func expertPow2[T la.Scalar](rng *lapack.Rng) T {
	v := math.Ldexp(1, -int(4*rng.Uniform()))
	if rng.Uniform() < 0.5 {
		v = -v
	}
	if core.IsComplex[T]() && rng.Uniform() < 0.5 {
		return fromC[T](complex(0, v))
	}
	return fromC[T](complex(v, 0))
}

func expertRand[T la.Scalar](rng *lapack.Rng) T {
	re, im := rng.Uniform11(), 0.0
	if core.IsComplex[T]() {
		im = rng.Uniform11()
	}
	return fromC[T](complex(re, im))
}

func expertGrade(kind string, i int) (row, col int) {
	r, c := 40*(i%3-1), 40*((i+1)%3-1)
	switch kind {
	case "rowgraded":
		return r, 0
	case "colgraded":
		return 0, c
	case "bothgraded":
		return r, c
	}
	return 0, 0
}

// expertSymGrade is the exponent g(i) of the symmetric grading D·P·D,
// D = diag(2^g(i)).
func expertSymGrade(kind string, i int) int {
	switch kind {
	case "rowgraded":
		return 20 * (i%3 - 1)
	case "colgraded":
		return 20 * ((i+1)%3 - 1)
	case "bothgraded":
		return 20 * (i % 2)
	}
	return 0
}

// expertGeneral builds the n×n general matrix of one kind, zero outside the
// (kl, ku) band.
func expertGeneral[T la.Scalar](kind string, n, kl, ku int) *la.Matrix[T] {
	rng := lapack.NewRng([4]int{len(kind), n, kl, ku})
	a := la.NewMatrix[T](n, n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			var v complex128
			switch kind {
			case "rand", "singular":
				v = toC(expertRand[T](rng))
				if i == j {
					v += 4
				}
			case "illcond": // [[1,1],[1,1+ulp]]: rcond ulp/4, below eps, and exact factors
				switch {
				case i < 2 && j < 2:
					v = 1
					if i == 1 && j == 1 {
						v += complex(core.Eps[T](), 0)
					}
				case i >= 2 && j >= 2:
					v = toC(expertRand[T](rng))
					if i == j {
						v += 4
					}
				}
			case "colgraded": // rows stay balanced: |entries| 1, diagonal 2
				v = toC(expertPow2[T](rng))
				v /= complex(math.Abs(real(v))+math.Abs(imag(v)), 0)
				if i == j {
					v = 2
				}
			default:
				v = toC(expertPow2[T](rng))
				if i == j {
					v = 32
				}
			}
			ri, _ := expertGrade(kind, i)
			_, cj := expertGrade(kind, j)
			a.Set(i, j, fromC[T](v*complex(math.Ldexp(1, ri+cj), 0)))
		}
	}
	if kind == "singular" {
		for i := 0; i < n; i++ {
			a.Set(i, n/2, 0)
		}
	}
	return a
}

// expertSym builds the n×n symmetric (herm false) or Hermitian matrix of one
// kind with kd off-diagonals, both triangles filled: positive definite when
// pd, except for kind "singular" (a negative diagonal entry, or for !pd a
// zero row and column).
func expertSym[T la.Scalar](kind string, n, kd int, herm, pd bool) *la.Matrix[T] {
	rng := lapack.NewRng([4]int{len(kind), n, kd, 3})
	a := la.NewMatrix[T](n, n)
	for j := 0; j < n; j++ {
		for i := max(0, j-kd); i <= j; i++ {
			var v complex128
			shifted := func() complex128 {
				v := toC(expertRand[T](rng))
				if i == j {
					v = complex(real(v), 0)
					if pd {
						v += complex(float64(n), 0)
					}
				}
				return v
			}
			switch kind {
			case "rand", "singular":
				v = shifted()
			case "illcond":
				switch {
				case j < 2:
					v = 1
					if i == 1 {
						v += complex(core.Eps[T](), 0)
					}
				case i >= 2:
					v = shifted()
				}
			default:
				v = toC(expertPow2[T](rng))
				if i == j {
					v = 64
				}
			}
			v *= complex(math.Ldexp(1, expertSymGrade(kind, i)+expertSymGrade(kind, j)), 0)
			a.Set(i, j, fromC[T](v))
			if herm {
				v = complex(real(v), -imag(v))
			}
			if i != j {
				a.Set(j, i, fromC[T](v))
			}
		}
	}
	if kind == "singular" {
		k := n / 2
		if pd {
			a.Set(k, k, fromC[T](-1))
		} else {
			for i := 0; i < n; i++ {
				a.Set(i, k, 0)
				a.Set(k, i, 0)
			}
		}
	}
	return a
}

func expertRHS[T la.Scalar](n, nrhs int) *la.Matrix[T] {
	rng := lapack.NewRng([4]int{n, nrhs, 5, 11})
	b := la.NewMatrix[T](n, nrhs)
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			b.Set(i, j, expertRand[T](rng))
		}
	}
	return b
}

// expertBand stores the (kl, ku) band of a in plain band storage (row offset
// ku); with kl = 0 or ku = 0 it is the triangular band storage of xPBSVX.
func expertBand[T la.Scalar](a *la.Matrix[T], kl, ku int) *la.Matrix[T] {
	n := a.Rows
	ab := la.NewMatrix[T](kl+ku+1, n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(n-1, j+kl); i++ {
			ab.Set(ku+i-j, j, a.At(i, j))
		}
	}
	return ab
}

func expertPacked[T la.Scalar](a *la.Matrix[T], uplo la.UpLo) []T {
	n := a.Rows
	ap := make([]T, 0, n*(n+1)/2)
	for j := 0; j < n; j++ {
		lo, hi := 0, j
		if uplo == la.Lower {
			lo, hi = j, n-1
		}
		for i := lo; i <= hi; i++ {
			ap = append(ap, a.At(i, j))
		}
	}
	return ap
}

// expertDriver is one row of the driver table: how to build the operands of
// a case and call the driver, folding the outcome into acc.
type expertDriver[T la.Scalar] struct {
	name    string
	general bool // WithTrans (else WithUpLo, or neither for PTSVX)
	equil   bool // WithEquilibration is a case of its own
	run     func(acc *diff.Hash, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt)
}

func expertDrivers[T la.Scalar]() []expertDriver[T] {
	sub := func(n, k int) int { return min(k, max(0, n-1)) }
	symDense := func(name string, herm, pd, equil bool, call func(a, b *la.Matrix[T], opts ...la.Opt) (*la.ExpertResult[T], error)) expertDriver[T] {
		return expertDriver[T]{name, false, equil, func(acc *diff.Hash, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			a, b := expertSym[T](kind, n, n-1, herm, pd), expertRHS[T](n, nrhs)
			res, err := call(a, b, opts...)
			expertFold(acc, tag, res, err, 0, b, a.Data)
		}}
	}
	symPacked := func(name string, herm, pd, equil bool, call func(ap []T, b *la.Matrix[T], opts ...la.Opt) (*la.ExpertResult[T], error)) expertDriver[T] {
		return expertDriver[T]{name, false, equil, func(acc *diff.Hash, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
			ap, b := expertPacked(expertSym[T](kind, n, n-1, herm, pd), uplo), expertRHS[T](n, nrhs)
			res, err := call(ap, b, opts...)
			expertFold(acc, tag, res, err, 0, b, ap)
		}}
	}
	// The batched drivers take every (n, nrhs) of a kind as one batch, on the
	// first (n, nrhs) the case loop offers.
	batch := func(name string, general bool, call func(as, bs []*la.Matrix[T], opts ...la.Opt) ([]*la.ExpertResult[T], []error, error)) expertDriver[T] {
		return expertDriver[T]{name, general, true, func(acc *diff.Hash, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			if n != expertN[0] || nrhs != expertNrhs[0] {
				return
			}
			var as, bs []*la.Matrix[T]
			for _, n := range expertN {
				for _, nrhs := range expertNrhs {
					if general {
						as = append(as, expertGeneral[T](kind, n, n-1, n-1))
					} else {
						as = append(as, expertSym[T](kind, n, n-1, true, true))
					}
					bs = append(bs, expertRHS[T](n, nrhs))
				}
			}
			results, errs, err := call(as, bs, opts...)
			if err != nil {
				panic(err)
			}
			for i := range results {
				expertFold(acc, fmt.Sprintf("%s#%d", tag, i), results[i], errs[i], 0, bs[i], as[i].Data)
			}
		}}
	}
	rcondPT := 0
	if core.IsComplex[T]() {
		rcondPT = -1
	}
	return []expertDriver[T]{
		{"GESVX", true, true, func(acc *diff.Hash, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			a, b := expertGeneral[T](kind, n, n-1, n-1), expertRHS[T](n, nrhs)
			res, err := la.GESVX(a, b, opts...)
			expertFold(acc, tag, res, err, 0, b, a.Data)
		}},
		{"GBSVX", true, true, func(acc *diff.Hash, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			kl, ku := sub(n, 1), sub(n, 2)
			ab, b := expertBand(expertGeneral[T](kind, n, kl, ku), kl, ku), expertRHS[T](n, nrhs)
			res, err := la.GBSVX(ab, b, append(opts, la.WithKL(kl))...)
			expertFold(acc, tag, res, err, 0, b, ab.Data)
		}},
		{"GTSVX", true, false, func(acc *diff.Hash, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			a, b := expertGeneral[T](kind, n, sub(n, 1), sub(n, 1)), expertRHS[T](n, nrhs)
			dl, d, du := make([]T, n-1), make([]T, n), make([]T, n-1)
			for i := 0; i < n; i++ {
				d[i] = a.At(i, i)
				if i < n-1 {
					dl[i], du[i] = a.At(i+1, i), a.At(i, i+1)
				}
			}
			res, err := la.GTSVX(dl, d, du, b, opts...)
			expertFold(acc, tag, res, err, 0, b, dl, d, du)
		}},
		symDense("POSVX", true, true, true, la.POSVX[T]),
		symPacked("PPSVX", true, true, true, la.PPSVX[T]),
		{"PBSVX", false, true, func(acc *diff.Hash, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
			kd := sub(n, 2)
			a, b := expertSym[T](kind, n, kd, true, true), expertRHS[T](n, nrhs)
			ab := expertBand(a, 0, kd)
			if uplo == la.Lower {
				ab = expertBand(a, kd, 0)
			}
			res, err := la.PBSVX(ab, b, opts...)
			expertFold(acc, tag, res, err, 0, b, ab.Data)
		}},
		{"PTSVX", false, false, func(acc *diff.Hash, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
			if uplo == la.Lower {
				return // no UPLO argument
			}
			a, b := expertSym[T](kind, n, sub(n, 1), true, true), expertRHS[T](n, nrhs)
			d, e := make([]float64, n), make([]T, n-1)
			for i := 0; i < n; i++ {
				d[i] = real(toC(a.At(i, i)))
				if i < n-1 {
					e[i] = a.At(i+1, i)
				}
			}
			res, err := la.PTSVX(d, e, b, opts...)
			acc.Float(d...)
			expertFold(acc, tag, res, err, rcondPT, b, e)
		}},
		symDense("SYSVX", false, false, false, la.SYSVX[T]),
		symDense("HESVX", true, false, false, la.HESVX[T]),
		symPacked("SPSVX", false, false, false, la.SPSVX[T]),
		symPacked("HPSVX", true, false, false, la.HPSVX[T]),
		batch("BatchGesvx", true, la.BatchGesvx[T]),
		batch("BatchPosvx", false, la.BatchPosvx[T]),
	}
}

var (
	expertN    = []int{1, 2, 7, 33}
	expertNrhs = []int{1, 3}
)

func expertFingerprints[T la.Scalar](out map[string]*diff.Hash) {
	var z T
	trans := []la.Op{la.None, la.Trans}
	if core.IsComplex[T]() {
		trans = append(trans, la.ConjTrans)
	}
	for _, d := range expertDrivers[T]() {
		acc := diff.NewHash()
		out[fmt.Sprintf("%s/%T", d.name, z)] = acc
		shapes := len(trans)
		if !d.general {
			shapes = 2
		}
		for _, kind := range expertKinds {
			for s := 0; s < shapes; s++ {
				for equil := 0; equil < 2; equil++ {
					if equil == 1 && !d.equil {
						continue
					}
					for _, n := range expertN {
						for _, nrhs := range expertNrhs {
							uplo := la.Upper
							var opts []la.Opt
							switch {
							case d.general:
								opts = append(opts, la.WithTrans(trans[s]))
							case s == 1:
								uplo = la.Lower
								opts = append(opts, la.WithUpLo(uplo))
							}
							if equil == 1 {
								opts = append(opts, la.WithEquilibration())
							}
							tag := fmt.Sprintf("%s/%T/%s/s%d/e%d/n%d/r%d", d.name, z, kind, s, equil, n, nrhs)
							d.run(acc, tag, kind, n, nrhs, uplo, opts)
						}
					}
				}
			}
		}
	}
}

func TestExpertGolden(t *testing.T) {
	expertGolden.Check(t, func(t *testing.T, out map[string]*diff.Hash) {
		expertFingerprints[float32](out)
		expertFingerprints[float64](out)
		expertFingerprints[complex64](out)
		expertFingerprints[complex128](out)
	}, diff.Selected, diff.Portable) // the AVX2 row: TestExpertGolden under -avx2
}

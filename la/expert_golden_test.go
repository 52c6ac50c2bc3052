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
// Columns: assembly route, portable route (faultinject.ForcePortable).
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
// Regenerate with `go test ./la -run ExpertGolden -expertprint`; add
// `-expertcases` for one line per case (to diff two commits).

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/lapack"
	"repro/la"
)

var (
	expertPrint = flag.Bool("expertprint", false, "print the expertGolden table instead of checking it")
	expertCases = flag.Bool("expertcases", false, "print one fingerprint line per expert-driver case")
)

type expertGold struct {
	hash [2]uint64
	logs [2][4]float64 // Σ log of RCond, Ferr, Berr, RPvGrw
}

var expertGolden = map[string]expertGold{
	"BatchGesvx/complex128": {[2]uint64{0xe449fb2c0f407a34, 0x7b57bc945ee10159}, [2][4]float64{
		{-4917.0708067777614, -13048.156930573628, -13730.984079556163, -45.571304490896274},
		{-4917.0708067777623, -13048.50101615355, -13341.032916489303, -45.571304490896274}}},
	"BatchGesvx/complex64": {[2]uint64{0x81dc309c8aff588a, 0x998ec0e6fbdd177c}, [2][4]float64{
		{-4193.4251716339004, -4848.1651307948441, -6296.3873104377126, -44.799767303524717},
		{-4193.4251580710334, -4848.8542989364005, -6146.564837595959, -40.739436739272698}}},
	"BatchGesvx/float32": {[2]uint64{0xdab40766ed451efb, 0x7c52f6c3b322a944}, [2][4]float64{
		{-2781.1620316450581, -3278.4426149058199, -4071.1415955453826, -23.214489002860486},
		{-2781.1620240756151, -3278.0950112310902, -3796.4563713372563, -23.214487674135636}}},
	"BatchGesvx/float64": {[2]uint64{0x628a23d082ea4871, 0x500e2974da6a115e}, [2][4]float64{
		{-3263.5924476132336, -8745.2172657837054, -8719.5418130349499, -23.214488447767604},
		{-3263.5924476132336, -8747.2902167652483, -8158.7805231514294, -23.2144884477676}}},
	"BatchPosvx/complex128": {[2]uint64{0x12ec38e76cb3d1f3, 0x51f586e64129acb2}, [2][4]float64{
		{-2422.873513169623, -8896.0080002114937, -9189.5658169864728, 0},
		{-2422.873513169623, -8895.6198732171852, -9149.6958465915413, 0}}},
	"BatchPosvx/complex64": {[2]uint64{0x53b1536786811da6, 0xef6e5869e1b5f97a}, [2][4]float64{
		{-1940.4430828239042, -3427.5951848676268, -4296.0144987761259, 0},
		{-1940.4430813290967, -3427.1879899190153, -4257.0109567271402, 0}}},
	"BatchPosvx/float32": {[2]uint64{0xb05ae7a1c6cd87a8, 0xa374a65339c15dbd}, [2][4]float64{
		{-1923.5356924013945, -3453.6765649952649, -4310.7804528220659, 0},
		{-1923.5356951260444, -3453.5448314693103, -4296.2409177692552, 0}}},
	"BatchPosvx/float64": {[2]uint64{0x3c898ab9fd5e1287, 0x8ee61ede3ac066a9}, [2][4]float64{
		{-2405.9661283967198, -8923.3016947976321, -9051.6048944416561, 0},
		{-2405.9661283967198, -8923.0427747669546, -9037.0137373293346, 0}}},
	"GBSVX/complex128": {[2]uint64{0xfdb7577f7bff3b6b, 0x43336ffa9f16d74c}, [2][4]float64{
		{-5025.7745782150196, -13275.109061308996, -13366.112305719493, 0},
		{-5025.7745782150196, -13274.821485041391, -13382.555239823156, 0}}},
	"GBSVX/complex64": {[2]uint64{0xe9fd816052e041fb, 0x448547337b7017df}, [2][4]float64{
		{-4302.1291356284701, -5075.7535011614782, -6199.77947709618, 0},
		{-4302.1291355691756, -5075.5507466062891, -6219.3094671199378, 0}}},
	"GBSVX/float32": {[2]uint64{0xb6493eddb6ec6de4, 0xdbf589323d590194}, [2][4]float64{
		{-2857.7394932930724, -3415.2270674737829, -3843.4571245631132, 0},
		{-2857.7394935033558, -3415.1287371568783, -3844.2957196605057, 0}}},
	"GBSVX/float64": {[2]uint64{0x5789645bf183c76f, 0xcfc0c5ee446e770b}, [2][4]float64{
		{-3340.1698701989621, -8881.407787019416, -8204.5723473862399, 0},
		{-3340.1698701989621, -8881.5728682497811, -8205.9982971922072, 0}}},
	"GESVX/complex128": {[2]uint64{0xe449fb2c0f407a34, 0x7b57bc945ee10159}, [2][4]float64{
		{-4917.0708067777614, -13048.156930573628, -13730.984079556163, -45.571304490896274},
		{-4917.0708067777623, -13048.50101615355, -13341.032916489303, -45.571304490896274}}},
	"GESVX/complex64": {[2]uint64{0x81dc309c8aff588a, 0x998ec0e6fbdd177c}, [2][4]float64{
		{-4193.4251716339004, -4848.1651307948441, -6296.3873104377126, -44.799767303524717},
		{-4193.4251580710334, -4848.8542989364005, -6146.564837595959, -40.739436739272698}}},
	"GESVX/float32": {[2]uint64{0xdab40766ed451efb, 0x7c52f6c3b322a944}, [2][4]float64{
		{-2781.1620316450581, -3278.4426149058199, -4071.1415955453826, -23.214489002860486},
		{-2781.1620240756151, -3278.0950112310902, -3796.4563713372563, -23.214487674135636}}},
	"GESVX/float64": {[2]uint64{0x628a23d082ea4871, 0x500e2974da6a115e}, [2][4]float64{
		{-3263.5924476132336, -8745.2172657837054, -8719.5418130349499, -23.214488447767604},
		{-3263.5924476132336, -8747.2902167652483, -8158.7805231514294, -23.2144884477676}}},
	"GTSVX/complex128": {[2]uint64{0x9e81e21cb4465a7e, 0x9e81e21cb4465a7e}, [2][4]float64{
		{-3963.7463342274032, -6655.6513899749152, -6559.290200675272, 0},
		{-3963.7463342274032, -6655.6513899749152, -6559.290200675272, 0}}},
	"GTSVX/complex64": {[2]uint64{0x4d3d792598ca6bc5, 0x4d3d792598ca6bc5}, [2][4]float64{
		{-3601.9235769552097, -2556.0954979979988, -3204.6211252954017, 0},
		{-3601.9235769552097, -2556.0954979979988, -3204.6211252954017, 0}}},
	"GTSVX/float32": {[2]uint64{0x7ceb68b63ce7218b, 0x7ceb68b63ce7218b}, [2][4]float64{
		{-2398.3549765970743, -1712.9793698474823, -2006.9874326157635, 0},
		{-2398.3549765970743, -1712.9793698474823, -2006.9874326157635, 0}}},
	"GTSVX/float64": {[2]uint64{0x451a867cf48ac1b0, 0x451a867cf48ac1b0}, [2][4]float64{
		{-2639.5701768298832, -4446.5669382286451, -4048.7080284883477, 0},
		{-2639.5701768298832, -4446.5669382286451, -4048.7080284883477, 0}}},
	"HESVX/complex128": {[2]uint64{0xdd4fe5f975559722, 0xcc8f584ca70e43d1}, [2][4]float64{
		{-1932.5970170961114, -4403.6332208669201, -4676.0098034511157, 0},
		{-1938.983659701069, -4403.6537089541434, -4671.2306457256554, 0}}},
	"HESVX/complex64": {[2]uint64{0x959ac89e64237873, 0xa064c0105ef120c4}, [2][4]float64{
		{-1691.3818060906872, -1669.9081568042948, -2165.8521072972135, 0},
		{-1697.7684436961183, -1669.7996165664306, -2160.7119671488522, 0}}},
	"HESVX/float32": {[2]uint64{0x7263cb650a88ef10, 0x9790a8603d447c56}, [2][4]float64{
		{-1682.4785224861453, -1691.6459158261787, -2158.3391896763151, 0},
		{-1688.8651632590556, -1691.5449037290803, -2157.6647384381185, 0}}},
	"HESVX/float64": {[2]uint64{0xa266e6a422512c9d, 0xd2c4c6da2e596d49}, [2][4]float64{
		{-1923.693735177641, -4425.2798797001633, -4647.2696523978148, 0},
		{-1930.0803777825981, -4425.2671160038117, -4644.4266640243613, 0}}},
	"HPSVX/complex128": {[2]uint64{0x0e80b93ecdca73ba, 0x01236c72c145fbf9}, [2][4]float64{
		{-1932.5970170961114, -4403.6332208669201, -4676.0098034511157, 0},
		{-1938.983659701069, -4403.6537089541434, -4671.2306457256554, 0}}},
	"HPSVX/complex64": {[2]uint64{0x4399887d095bb946, 0xb26d0959b6c8f755}, [2][4]float64{
		{-1691.3818060906872, -1669.9081568042948, -2165.8521072972135, 0},
		{-1697.7684436961183, -1669.7996165664306, -2160.7119671488522, 0}}},
	"HPSVX/float32": {[2]uint64{0x4a4f2a2e4c62868e, 0x929e49aa32847730}, [2][4]float64{
		{-1682.4785224861453, -1691.6459158261787, -2158.3391896763151, 0},
		{-1688.8651632590556, -1691.5449037290803, -2157.6647384381185, 0}}},
	"HPSVX/float64": {[2]uint64{0xcc82ddff7510680e, 0x93124ca5ed4a79c5}, [2][4]float64{
		{-1923.693735177641, -4425.2392633970112, -4647.517152027458, 0},
		{-1930.0803777825981, -4425.2671160038117, -4644.4266640243613, 0}}},
	"PBSVX/complex128": {[2]uint64{0xefd991e8056b64f7, 0xefd991e8056b64f7}, [2][4]float64{
		{-2397.6917923461283, -8924.9035554466736, -9139.1603769250905, 0},
		{-2397.6917923461283, -8924.9035554466736, -9139.1603769250905, 0}}},
	"PBSVX/complex64": {[2]uint64{0xe7f2ad67293d6a93, 0xe7f2ad67293d6a93}, [2][4]float64{
		{-1915.2613592010405, -3456.5327836803895, -4255.2153488619424, 0},
		{-1915.2613592010405, -3456.5327836803895, -4255.2153488619424, 0}}},
	"PBSVX/float32": {[2]uint64{0x11caff15efcdeb9f, 0x11caff15efcdeb9f}, [2][4]float64{
		{-1905.0768216018266, -3471.6949658506624, -4283.6315394864041, 0},
		{-1905.0768216018266, -3471.6949658506624, -4283.6315394864041, 0}}},
	"PBSVX/float64": {[2]uint64{0x735eec350ce7b322, 0x735eec350ce7b322}, [2][4]float64{
		{-2387.5072580731712, -8940.7156235865732, -9007.4938099810315, 0},
		{-2387.5072580731712, -8940.7156235865732, -9007.4938099810315, 0}}},
	"POSVX/complex128": {[2]uint64{0x12ec38e76cb3d1f3, 0x51f586e64129acb2}, [2][4]float64{
		{-2422.873513169623, -8896.0080002114937, -9189.5658169864728, 0},
		{-2422.873513169623, -8895.6198732171852, -9149.6958465915413, 0}}},
	"POSVX/complex64": {[2]uint64{0x53b1536786811da6, 0xef6e5869e1b5f97a}, [2][4]float64{
		{-1940.4430828239042, -3427.5951848676268, -4296.0144987761259, 0},
		{-1940.4430813290967, -3427.1879899190153, -4257.0109567271402, 0}}},
	"POSVX/float32": {[2]uint64{0xb05ae7a1c6cd87a8, 0xa374a65339c15dbd}, [2][4]float64{
		{-1923.5356924013945, -3453.6765649952649, -4310.7804528220659, 0},
		{-1923.5356951260444, -3453.5448314693103, -4296.2409177692552, 0}}},
	"POSVX/float64": {[2]uint64{0x3c898ab9fd5e1287, 0x8ee61ede3ac066a9}, [2][4]float64{
		{-2405.9661283967198, -8923.3016947976321, -9051.6048944416561, 0},
		{-2405.9661283967198, -8923.0427747669546, -9037.0137373293346, 0}}},
	"PPSVX/complex128": {[2]uint64{0x0ed1b8b6ed950808, 0x0ed1b8b6ed950808}, [2][4]float64{
		{-2422.873513169623, -8895.397483659146, -9170.2000324051514, 0},
		{-2422.873513169623, -8895.397483659146, -9170.2000324051514, 0}}},
	"PPSVX/complex64": {[2]uint64{0x246a227f462bdc90, 0x246a227f462bdc90}, [2][4]float64{
		{-1940.4430834237453, -3427.0308066288389, -4265.3443081618261, 0},
		{-1940.4430834237453, -3427.0308066288389, -4265.3443081618261, 0}}},
	"PPSVX/float32": {[2]uint64{0x64e6aa23ac0f171e, 0x64e6aa23ac0f171e}, [2][4]float64{
		{-1923.5356935069885, -3453.5668712516594, -4299.0966869458334, 0},
		{-1923.5356935069885, -3453.5668712516594, -4299.0966869458334, 0}}},
	"PPSVX/float64": {[2]uint64{0x5c070336b7b95203, 0x5c070336b7b95203}, [2][4]float64{
		{-2405.9661283967198, -8923.045886550557, -9032.5383860855181, 0},
		{-2405.9661283967198, -8923.045886550557, -9032.5383860855181, 0}}},
	"PTSVX/complex128": {[2]uint64{0x465cb5cc343eaf99, 0x465cb5cc343eaf99}, [2][4]float64{
		{0, -2233.6746925468456, -2325.6522623675869, 0},
		{0, -2233.6746925468456, -2325.6522623675869, 0}}},
	"PTSVX/complex64": {[2]uint64{0xf5e6ef7fcba7d986, 0xf5e6ef7fcba7d986}, [2][4]float64{
		{0, -866.89209363113082, -1066.944068625889, 0},
		{0, -866.89209363113082, -1066.944068625889, 0}}},
	"PTSVX/float32": {[2]uint64{0x1021bb66645e8786, 0x1021bb66645e8786}, [2][4]float64{
		{-834.90720986757401, -870.65447753448916, -1077.7571758529639, 0},
		{-834.90720986757401, -870.65447753448916, -1077.7571758529639, 0}}},
	"PTSVX/float64": {[2]uint64{0x1b6d1eb0d9d78a1d, 0x1b6d1eb0d9d78a1d}, [2][4]float64{
		{-955.51481821147695, -2237.5346738169933, -2197.2903857131428, 0},
		{-955.51481821147695, -2237.5346738169933, -2197.2903857131428, 0}}},
	"SPSVX/complex128": {[2]uint64{0x836f0ca8d9a40712, 0xf6e2811f431520ec}, [2][4]float64{
		{-1925.1991491742995, -4419.7870543146901, -4672.8019773097367, 0},
		{-1931.5857917792571, -4419.6876968075612, -4668.5146774713603, 0}}},
	"SPSVX/complex64": {[2]uint64{0x1653c595e4c2bce8, 0x83f21a5d66cc3a2e}, [2][4]float64{
		{-1683.9839373448442, -1686.0286741127418, -2156.8106201392334, 0},
		{-1690.3705772145147, -1685.8519763225468, -2158.1552114496117, 0}}},
	"SPSVX/float32": {[2]uint64{0xf35ee519646909fb, 0xc6139d4a650ae3a5}, [2][4]float64{
		{-1682.4785226113484, -1691.6361114387432, -2160.2879311919778, 0},
		{-1688.8651629401747, -1691.5600185328362, -2158.7912572910559, 0}}},
	"SPSVX/float64": {[2]uint64{0xcc82ddff7510680e, 0x93124ca5ed4a79c5}, [2][4]float64{
		{-1923.693735177641, -4425.2392633970112, -4647.517152027458, 0},
		{-1930.0803777825981, -4425.2671160038117, -4644.4266640243613, 0}}},
	"SYSVX/complex128": {[2]uint64{0xf2ed434f5cb3d202, 0x819d5e865b33adc4}, [2][4]float64{
		{-1925.1991491742995, -4419.7870543146901, -4672.8019773097367, 0},
		{-1931.5857917792571, -4419.6876968075612, -4668.5146774713603, 0}}},
	"SYSVX/complex64": {[2]uint64{0x454afdac2c73c0fb, 0xdb0613b87fee906b}, [2][4]float64{
		{-1683.9839373448442, -1686.0286741127418, -2156.8106201392334, 0},
		{-1690.3705772145147, -1685.8519763225468, -2158.1552114496117, 0}}},
	"SYSVX/float32": {[2]uint64{0x0bfa61b242d6c846, 0x6986b44b47124c52}, [2][4]float64{
		{-1682.4785226113484, -1691.6361114387432, -2160.2879311919778, 0},
		{-1688.8651629401747, -1691.5600185328362, -2158.7912572910559, 0}}},
	"SYSVX/float64": {[2]uint64{0xa266e6a422512c9d, 0xd2c4c6da2e596d49}, [2][4]float64{
		{-1923.693735177641, -4425.2798797001633, -4647.2696523978148, 0},
		{-1930.0803777825981, -4425.2671160038117, -4644.4266640243613, 0}}},
}

var expertKinds = []string{"rand", "rowgraded", "colgraded", "bothgraded", "singular", "illcond"}

// expertAcc accumulates one table entry on one route.
type expertAcc struct {
	h     hash.Hash64
	logs  [4]float64
	terms [4]int
}

func (acc *expertAcc) ints(vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		acc.h.Write(buf[:])
	}
}

func (acc *expertAcc) floats(vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		acc.h.Write(buf[:])
	}
}

func expertBits[T la.Scalar](acc *expertAcc, x []T) {
	for _, v := range x {
		c := toC(v)
		acc.floats([]float64{real(c), imag(c)})
	}
}

// value folds one tolerance-compared output: its class goes into the hash,
// its logarithm into sum k when it is positive and finite.
func (acc *expertAcc) value(k int, v float64) {
	switch {
	case v == 0:
		acc.ints(0)
	case math.IsInf(v, 1):
		acc.ints(2)
	case math.IsNaN(v):
		acc.ints(3)
	case v < 0:
		acc.ints(4)
	default:
		acc.ints(1)
		if k >= 0 {
			acc.logs[k] += math.Log(v)
			acc.terms[k]++
		}
	}
}

// expertFold folds one driver call into its table entry. storage is whatever the call may have
// overwritten besides B; rcondIdx is -1 where RCond is classed but not summed.
func expertFold[T la.Scalar](entry *expertAcc, tag string, res *la.ExpertResult[T], err error, rcondIdx int, b *la.Matrix[T], storage ...[]T) {
	acc := &expertAcc{h: fnv.New64a()} // the case's own, so that -expertcases lines diff case by case
	info, diag := 0, 0
	var le *la.Error
	if errors.As(err, &le) {
		info, diag = le.Info, int(le.Diag)
	} else if err != nil {
		info = -999
	}
	acc.ints(info, diag, int(res.Equed))
	acc.ints(res.IPiv...)
	expertBits(acc, res.X.Data)
	if res.Equed != 0 && res.Equed != 'N' {
		acc.floats(res.R)
		acc.floats(res.C)
		acc.floats(res.S)
	}
	expertBits(acc, b.Data)
	for _, s := range storage {
		expertBits(acc, s)
	}
	acc.value(rcondIdx, res.RCond)
	for _, v := range res.Ferr {
		acc.value(1, v)
	}
	for _, v := range res.Berr {
		acc.value(2, v)
	}
	acc.value(3, res.RPvGrw)
	entry.ints(int(acc.h.Sum64()))
	for k := range acc.logs {
		entry.logs[k] += acc.logs[k]
		entry.terms[k] += acc.terms[k]
	}
	if *expertCases {
		fmt.Printf("case %s info=%d equed=%q h=%#016x rcond=%.17g ferr=%.17g berr=%.17g rpvgrw=%.17g\n",
			tag, info, res.Equed, acc.h.Sum64(), res.RCond, res.Ferr, res.Berr, res.RPvGrw)
	}
}

func expertIsComplex[T la.Scalar]() bool {
	var z T
	switch any(z).(type) {
	case complex64, complex128:
		return true
	}
	return false
}

// expertPow2 draws ±2^e, e ∈ {0, −1, −2, −3}, times 1 or i for complex T.
func expertPow2[T la.Scalar](rng *lapack.Rng) T {
	v := math.Ldexp(1, -int(4*rng.Uniform()))
	if rng.Uniform() < 0.5 {
		v = -v
	}
	if expertIsComplex[T]() && rng.Uniform() < 0.5 {
		return fromC[T](complex(0, v))
	}
	return fromC[T](complex(v, 0))
}

func expertRand[T la.Scalar](rng *lapack.Rng) T {
	re, im := rng.Uniform11(), 0.0
	if expertIsComplex[T]() {
		im = rng.Uniform11()
	}
	return fromC[T](complex(re, im))
}

// expertUlp is the spacing of T's real type at 1: [[1,1],[1,1+ulp]] has a
// reciprocal condition number of ulp/4, below eps, and factors exactly.
func expertUlp[T la.Scalar]() float64 {
	var z T
	switch any(z).(type) {
	case float32, complex64:
		return 0x1p-23
	}
	return 0x1p-52
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
			case "illcond":
				switch {
				case i < 2 && j < 2:
					v = 1
					if i == 1 && j == 1 {
						v += complex(expertUlp[T](), 0)
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
						v += complex(expertUlp[T](), 0)
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
	run     func(acc *expertAcc, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt)
}

func expertDrivers[T la.Scalar]() []expertDriver[T] {
	sub := func(n, k int) int { return min(k, max(0, n-1)) }
	symDense := func(name string, herm, pd, equil bool, call func(a, b *la.Matrix[T], opts ...la.Opt) (*la.ExpertResult[T], error)) expertDriver[T] {
		return expertDriver[T]{name, false, equil, func(acc *expertAcc, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			a, b := expertSym[T](kind, n, n-1, herm, pd), expertRHS[T](n, nrhs)
			res, err := call(a, b, opts...)
			expertFold(acc, tag, res, err, 0, b, a.Data)
		}}
	}
	symPacked := func(name string, herm, pd, equil bool, call func(ap []T, b *la.Matrix[T], opts ...la.Opt) (*la.ExpertResult[T], error)) expertDriver[T] {
		return expertDriver[T]{name, false, equil, func(acc *expertAcc, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
			ap, b := expertPacked(expertSym[T](kind, n, n-1, herm, pd), uplo), expertRHS[T](n, nrhs)
			res, err := call(ap, b, opts...)
			expertFold(acc, tag, res, err, 0, b, ap)
		}}
	}
	// The batched drivers take every (n, nrhs) of a kind as one batch, on the
	// first (n, nrhs) the case loop offers.
	batch := func(name string, general bool, call func(as, bs []*la.Matrix[T], opts ...la.Opt) ([]*la.ExpertResult[T], []error, error)) expertDriver[T] {
		return expertDriver[T]{name, general, true, func(acc *expertAcc, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
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
	if expertIsComplex[T]() {
		rcondPT = -1
	}
	return []expertDriver[T]{
		{"GESVX", true, true, func(acc *expertAcc, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			a, b := expertGeneral[T](kind, n, n-1, n-1), expertRHS[T](n, nrhs)
			res, err := la.GESVX(a, b, opts...)
			expertFold(acc, tag, res, err, 0, b, a.Data)
		}},
		{"GBSVX", true, true, func(acc *expertAcc, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
			kl, ku := sub(n, 1), sub(n, 2)
			ab, b := expertBand(expertGeneral[T](kind, n, kl, ku), kl, ku), expertRHS[T](n, nrhs)
			res, err := la.GBSVX(ab, b, append(opts, la.WithKL(kl))...)
			expertFold(acc, tag, res, err, 0, b, ab.Data)
		}},
		{"GTSVX", true, false, func(acc *expertAcc, tag, kind string, n, nrhs int, _ la.UpLo, opts []la.Opt) {
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
		{"PBSVX", false, true, func(acc *expertAcc, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
			kd := sub(n, 2)
			a, b := expertSym[T](kind, n, kd, true, true), expertRHS[T](n, nrhs)
			ab := expertBand(a, 0, kd)
			if uplo == la.Lower {
				ab = expertBand(a, kd, 0)
			}
			res, err := la.PBSVX(ab, b, opts...)
			expertFold(acc, tag, res, err, 0, b, ab.Data)
		}},
		{"PTSVX", false, false, func(acc *expertAcc, tag, kind string, n, nrhs int, uplo la.UpLo, opts []la.Opt) {
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
			acc.floats(d)
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

func expertFingerprints[T la.Scalar](out map[string]*expertAcc) {
	var z T
	trans := []la.Op{la.None, la.Trans}
	if expertIsComplex[T]() {
		trans = append(trans, la.ConjTrans)
	}
	for _, d := range expertDrivers[T]() {
		acc := &expertAcc{h: fnv.New64a()}
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
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64 (other targets fuse multiply-adds in the portable kernels)")
	}
	var got [2]map[string]*expertAcc
	for route := range got {
		got[route] = map[string]*expertAcc{}
		faultinject.ForcePortable(route == 1)
		expertFingerprints[float32](got[route])
		expertFingerprints[float64](got[route])
		expertFingerprints[complex64](got[route])
		expertFingerprints[complex128](got[route])
	}
	faultinject.ForcePortable(false)
	keys := make([]string, 0, len(got[0]))
	for k := range got[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *expertPrint {
		for _, k := range keys {
			a, p := got[0][k], got[1][k]
			fmt.Printf("\t%q: {[2]uint64{%#016x, %#016x}, [2][4]float64{\n\t\t{%.17g, %.17g, %.17g, %.17g},\n\t\t{%.17g, %.17g, %.17g, %.17g}}},\n",
				k, a.h.Sum64(), p.h.Sum64(),
				a.logs[0], a.logs[1], a.logs[2], a.logs[3], p.logs[0], p.logs[1], p.logs[2], p.logs[3])
		}
		return
	}
	if len(keys) != len(expertGolden) {
		t.Fatalf("%d fingerprints computed, table has %d", len(keys), len(expertGolden))
	}
	fields := [4]string{"RCond", "Ferr", "Berr", "RPvGrw"}
	for _, k := range keys {
		want := expertGolden[k]
		tol := 1e-12
		if strings.HasSuffix(k, "float32") || strings.HasSuffix(k, "complex64") {
			tol = 1e-4
		}
		// The default route is the assembly one on AVX2 hardware and the
		// portable one under LA90_NO_ASM=1 or without AVX2; either way it
		// must land on one recorded column.
		for route, cols := range [2][]int{{0, 1}, {1}} {
			g := got[route][k]
			ok := false
			for _, c := range cols {
				match := g.h.Sum64() == want.hash[c]
				for f := range fields {
					if math.Abs(g.logs[f]-want.logs[c][f]) > tol*float64(max(1, g.terms[f])) {
						match = false
					}
				}
				ok = ok || match
			}
			if !ok {
				t.Errorf("%s route %d: hash %#016x logs %v, want %#016x %v (asm) or %#016x %v (portable)",
					k, route, g.h.Sum64(), g.logs, want.hash[0], want.logs[0], want.hash[1], want.logs[1])
			}
		}
	}
}

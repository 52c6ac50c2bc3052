package blas

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/diff"
)

// Golden fingerprints of everything below the packed engines: every exported
// Level-1/2 routine, Trmm, Trsm around its substitution leaves, the rank-k
// family around its unpacked loops, the small Gemm routes, RotSeq and
// Refl3/Refl2. They were generated at the commit before the Level-1/2 leaves
// joined the kernel table and the Sy/He, Upper/Lower and Trans/ConjTrans
// copies were folded (PR 16) and are pinned since (Refl3Rows/Refl2Rows were
// recorded when they were added, PR 19): an FNV-64a per routine and
// element type over every output array in full (so strides' gaps, padding
// rows and the unreferenced triangle are covered), folded over the sizes
// l12Sizes, unit and non-unit strides, every uplo/trans/diag/side, and
// inputs that carry exact zeros where a routine has a zero shortcut.
// Columns: assembly route, portable route (faultinject.ForcePortable, the
// same gate as LA90_NO_ASM=1). The same sweep holds every result to the one
// dense definition in check.
// Regenerated once on purpose (PR 17): the Trsm rows — transposed left-side
// leaves substitute on a transposed copy, the right side scales by a
// reciprocal — and the asm column of the complex rows that reach the new
// vector axpy/dot/scal kernels (Axpy, Scal, Gemv, Ger, Gerc, Trsv, Trmm and
// the single-column Gemm); every other entry is the PR 16 bits. The asm
// column of RotSeq/float32 and RotSeq/complex64 was regenerated when the
// float32 asm rows got the FMA wavefront (srotSeqFma).
// Regenerate with `go test ./internal/blas -run Level12Golden -args -golden`.
var level12Golden = diff.Table{
	"Asum/complex128":   {Hash: [2]uint64{0x536b19813327ac4f, 0x536b19813327ac4f}},
	"Asum/complex64":    {Hash: [2]uint64{0x7078ce60af8ec7ac, 0x7078ce60af8ec7ac}},
	"Asum/float32":      {Hash: [2]uint64{0x150edd78a9e921e2, 0x150edd78a9e921e2}},
	"Asum/float64":      {Hash: [2]uint64{0xf140b5b34f557e02, 0xf140b5b34f557e02}},
	"Axpy/complex128":   {Hash: [2]uint64{0x794307bffbebcd61, 0x0d921ae21cdcc8f8}},
	"Axpy/complex64":    {Hash: [2]uint64{0x595c3bcd7954be15, 0x4702472bc29a8dba}},
	"Axpy/float32":      {Hash: [2]uint64{0xa34c32b66636024b, 0x0d1616ab669b19c0}},
	"Axpy/float64":      {Hash: [2]uint64{0xc6c62dfcfe2a920d, 0xe80f24e2dbd7e86e}},
	"Copy/complex128":   {Hash: [2]uint64{0x99327a1c8b275ee1, 0x99327a1c8b275ee1}},
	"Copy/complex64":    {Hash: [2]uint64{0x81f509170ce18da6, 0x81f509170ce18da6}},
	"Copy/float32":      {Hash: [2]uint64{0xd3b471e29fa3f5b3, 0xd3b471e29fa3f5b3}},
	"Copy/float64":      {Hash: [2]uint64{0xe669f1e864287303, 0xe669f1e864287303}},
	"Dot/float32":       {Hash: [2]uint64{0x7c3ccb4d9bb01be3, 0x7c3ccb4d9bb01be3}},
	"Dot/float64":       {Hash: [2]uint64{0xbe3490a529699114, 0xbe3490a529699114}},
	"Dotc/complex128":   {Hash: [2]uint64{0xc7096f0ef984d6a0, 0xc7096f0ef984d6a0}},
	"Dotc/complex64":    {Hash: [2]uint64{0x141d07a3bdc4dd1e, 0x141d07a3bdc4dd1e}},
	"Dotc/float32":      {Hash: [2]uint64{0x008c81e1abba2d2b, 0x008c81e1abba2d2b}},
	"Dotc/float64":      {Hash: [2]uint64{0x9e539b6d6f43d72a, 0x9e539b6d6f43d72a}},
	"Dotu/complex128":   {Hash: [2]uint64{0xa3e1ef338f23bcfc, 0xa3e1ef338f23bcfc}},
	"Dotu/complex64":    {Hash: [2]uint64{0x1bd236cad302870f, 0x1bd236cad302870f}},
	"Dotu/float32":      {Hash: [2]uint64{0x008c81e1abba2d2b, 0x008c81e1abba2d2b}},
	"Dotu/float64":      {Hash: [2]uint64{0x9e539b6d6f43d72a, 0x9e539b6d6f43d72a}},
	"Gbmv/complex128":   {Hash: [2]uint64{0xb409f36455f3c0ab, 0xb409f36455f3c0ab}},
	"Gbmv/complex64":    {Hash: [2]uint64{0xd7380e22a3743d30, 0xd7380e22a3743d30}},
	"Gbmv/float32":      {Hash: [2]uint64{0x9e285a12a35b4268, 0x9e285a12a35b4268}},
	"Gbmv/float64":      {Hash: [2]uint64{0x71d29b47265e42c7, 0x71d29b47265e42c7}},
	"Gemm/complex128":   {Hash: [2]uint64{0xf377f70fbe6f5242, 0x1ff380270fc80cb6}},
	"Gemm/complex64":    {Hash: [2]uint64{0x9b8f3c63418b8590, 0x2323216fc3bb37f1}},
	"Gemm/float32":      {Hash: [2]uint64{0xf8b420952ad2d2d1, 0xfa915f8000724342}},
	"Gemm/float64":      {Hash: [2]uint64{0x33fe53825e5ae465, 0x1e770e628d90958a}},
	"Gemv/complex128":   {Hash: [2]uint64{0x09bb70ba0e5e3189, 0x1275f715b325d327}},
	"Gemv/complex64":    {Hash: [2]uint64{0x6c582689be453ed3, 0x80fd19e47d4b2b75}},
	"Gemv/float32":      {Hash: [2]uint64{0x86c420de17baddbc, 0xe0c209569e95cd0a}},
	"Gemv/float64":      {Hash: [2]uint64{0x0db59044ee8d07e0, 0x398ba2ffb40a3411}},
	"Ger/complex128":    {Hash: [2]uint64{0x44c4f3a3c82227a1, 0x3308bf10a8fff100}},
	"Ger/complex64":     {Hash: [2]uint64{0x77598b0e59de7d1b, 0xdd905a33060fbf79}},
	"Ger/float32":       {Hash: [2]uint64{0x8a515551a3cf9514, 0xfad8c533e16f6b25}},
	"Ger/float64":       {Hash: [2]uint64{0xcdea35635cf3c9e5, 0x74e57500b08fbec6}},
	"Gerc/complex128":   {Hash: [2]uint64{0xf23ad0df506fcad4, 0xe5f4c8a3fd18c0ad}},
	"Gerc/complex64":    {Hash: [2]uint64{0x3eb9b57b75130dd1, 0x292b90774d3f4c59}},
	"Gerc/float32":      {Hash: [2]uint64{0x8a515551a3cf9514, 0xfad8c533e16f6b25}},
	"Gerc/float64":      {Hash: [2]uint64{0xcdea35635cf3c9e5, 0x74e57500b08fbec6}},
	"Hbmv/complex128":   {Hash: [2]uint64{0x3ddec6963f20b824, 0x3ddec6963f20b824}},
	"Hbmv/complex64":    {Hash: [2]uint64{0x14ba0a87ef48c35f, 0x14ba0a87ef48c35f}},
	"Hbmv/float32":      {Hash: [2]uint64{0x866fbf5c6c030cca, 0x866fbf5c6c030cca}},
	"Hbmv/float64":      {Hash: [2]uint64{0x99adfcce0adf02d2, 0x99adfcce0adf02d2}},
	"Hemm/complex128":   {Hash: [2]uint64{0xcadf7357cc5b0df6, 0xcadf7357cc5b0df6}},
	"Hemm/complex64":    {Hash: [2]uint64{0x1d90036b7df6a3f2, 0x1d90036b7df6a3f2}},
	"Hemm/float32":      {Hash: [2]uint64{0x0babd3cad10bffef, 0x0babd3cad10bffef}},
	"Hemm/float64":      {Hash: [2]uint64{0x6484bcda891a9520, 0x6484bcda891a9520}},
	"Hemv/complex128":   {Hash: [2]uint64{0xd7a91f254cd67c99, 0xd7a91f254cd67c99}},
	"Hemv/complex64":    {Hash: [2]uint64{0xd94d88e391fd5db0, 0xd94d88e391fd5db0}},
	"Hemv/float32":      {Hash: [2]uint64{0xbcd41eedd6399752, 0xbcd41eedd6399752}},
	"Hemv/float64":      {Hash: [2]uint64{0x519d6ed8b8e3116f, 0xd0c997bf6458d46a}},
	"Her/complex128":    {Hash: [2]uint64{0x4298b804b472017f, 0x4298b804b472017f}},
	"Her/complex64":     {Hash: [2]uint64{0x66512f360ab5d36b, 0x66512f360ab5d36b}},
	"Her/float32":       {Hash: [2]uint64{0x09676a27c3717903, 0x09676a27c3717903}},
	"Her/float64":       {Hash: [2]uint64{0xf2aa5cb221ac8aab, 0xf2aa5cb221ac8aab}},
	"Her2/complex128":   {Hash: [2]uint64{0x309c38f491cf8ec6, 0x309c38f491cf8ec6}},
	"Her2/complex64":    {Hash: [2]uint64{0xbe69744277732cda, 0xbe69744277732cda}},
	"Her2/float32":      {Hash: [2]uint64{0x01f0aaf812a49fa1, 0x01f0aaf812a49fa1}},
	"Her2/float64":      {Hash: [2]uint64{0x15fb77356059056f, 0x15fb77356059056f}},
	"Her2k/complex128":  {Hash: [2]uint64{0xaeb8d5a4d33bf1cf, 0x2819419901f8aa56}},
	"Her2k/complex64":   {Hash: [2]uint64{0xf57c46f00b5362cd, 0x9c831e975fea4552}},
	"Her2k/float32":     {Hash: [2]uint64{0x80da36747429781b, 0x80da36747429781b}},
	"Her2k/float64":     {Hash: [2]uint64{0x381b6a26bf462bb4, 0x381b6a26bf462bb4}},
	"Herk/complex128":   {Hash: [2]uint64{0x7ad15b1bd836ef2e, 0xed3127565ce026dc}},
	"Herk/complex64":    {Hash: [2]uint64{0x65c1a9b89e65e04d, 0x5d3cb1247d2be3d1}},
	"Herk/float32":      {Hash: [2]uint64{0xac0e178dddb19b81, 0xac0e178dddb19b81}},
	"Herk/float64":      {Hash: [2]uint64{0x13ad08adbf776c3f, 0x13ad08adbf776c3f}},
	"Hpmv/complex128":   {Hash: [2]uint64{0xd7a91f254cd67c99, 0xd7a91f254cd67c99}},
	"Hpmv/complex64":    {Hash: [2]uint64{0xd94d88e391fd5db0, 0xd94d88e391fd5db0}},
	"Hpmv/float32":      {Hash: [2]uint64{0xbcd41eedd6399752, 0xbcd41eedd6399752}},
	"Hpmv/float64":      {Hash: [2]uint64{0xd0c997bf6458d46a, 0xd0c997bf6458d46a}},
	"Hpr/complex128":    {Hash: [2]uint64{0x8485a928f8b24ee8, 0x8485a928f8b24ee8}},
	"Hpr/complex64":     {Hash: [2]uint64{0x8a01691c478c8727, 0x8a01691c478c8727}},
	"Hpr/float32":       {Hash: [2]uint64{0x24ab551282064060, 0x24ab551282064060}},
	"Hpr/float64":       {Hash: [2]uint64{0x25829ac4ba9f6cea, 0x25829ac4ba9f6cea}},
	"Hpr2/complex128":   {Hash: [2]uint64{0x957e0b658a5da009, 0x957e0b658a5da009}},
	"Hpr2/complex64":    {Hash: [2]uint64{0x1d573b958cc3279a, 0x1d573b958cc3279a}},
	"Hpr2/float32":      {Hash: [2]uint64{0xe61e1ea80327c6de, 0xe61e1ea80327c6de}},
	"Hpr2/float64":      {Hash: [2]uint64{0xa50fa465a9ad9d1e, 0xa50fa465a9ad9d1e}},
	"Iamax/complex128":  {Hash: [2]uint64{0xfd86ba83d8fc9d53, 0xfd86ba83d8fc9d53}},
	"Iamax/complex64":   {Hash: [2]uint64{0xfd86ba83d8fc9d53, 0xfd86ba83d8fc9d53}},
	"Iamax/float32":     {Hash: [2]uint64{0x43016f460e27fd56, 0x43016f460e27fd56}},
	"Iamax/float64":     {Hash: [2]uint64{0x0629b2c27e1dbbe3, 0x0629b2c27e1dbbe3}},
	"Nrm2/complex128":   {Hash: [2]uint64{0x294d73200ccc5d9c, 0xe6948cb5a24760e9}},
	"Nrm2/complex64":    {Hash: [2]uint64{0x51d9d94c1e8e7027, 0x5369887215e20cc4}},
	"Nrm2/float32":      {Hash: [2]uint64{0x1dff6bc272802829, 0x6c783a01f135425e}},
	"Nrm2/float64":      {Hash: [2]uint64{0xf4fef05938004dea, 0xf4fef05938004dea}},
	"Refl2/float64":     {Hash: [2]uint64{0x5c4d762ec14c52dd, 0xb0a2cc829919e5f5}},
	"Refl2Rows/float64": {Hash: [2]uint64{0xa09061603e950ab7, 0x2bed2e295b08ea75}},
	"Refl3/float64":     {Hash: [2]uint64{0x123bbe72f9d36d69, 0x5e5b04d49928cfbc}},
	"Refl3Rows/float64": {Hash: [2]uint64{0xb840ab046b5e5b6e, 0x0da64724c186bd8c}},
	"Rot/float32":       {Hash: [2]uint64{0xac406c5540bd1942, 0xac406c5540bd1942}},
	"Rot/float64":       {Hash: [2]uint64{0x02828273d05a61e1, 0x02828273d05a61e1}},
	"RotG/complex128":   {Hash: [2]uint64{0x4bc1642550a7378a, 0x4bc1642550a7378a}},
	"RotG/complex64":    {Hash: [2]uint64{0x6d4711fc6f16f054, 0x6d4711fc6f16f054}},
	"RotG/float32":      {Hash: [2]uint64{0xcfff595df978c402, 0xcfff595df978c402}},
	"RotG/float64":      {Hash: [2]uint64{0xe5d556df0bf0a7b4, 0xe5d556df0bf0a7b4}},
	"RotSeq/complex128": {Hash: [2]uint64{0x0a1bb12f1ebc9494, 0x9225ecf4c3689128}},
	"RotSeq/complex64":  {Hash: [2]uint64{0xecb150483001390f, 0xd981ccd6196e5556}},
	"RotSeq/float32":    {Hash: [2]uint64{0x544fa116cbaf7b02, 0xcc742df6cbda79fb}},
	"RotSeq/float64":    {Hash: [2]uint64{0x39185ea7c252ba66, 0xd6614af71cfd9289}},
	"Rotg/float32":      {Hash: [2]uint64{0x5b44c0a3fc52f9c3, 0x5b44c0a3fc52f9c3}},
	"Rotg/float64":      {Hash: [2]uint64{0x2594925d1bb55ec0, 0x2594925d1bb55ec0}},
	"Sbmv/complex128":   {Hash: [2]uint64{0xa9c672f32fa6f36c, 0xa9c672f32fa6f36c}},
	"Sbmv/complex64":    {Hash: [2]uint64{0x68d3ad0a59840c0d, 0x68d3ad0a59840c0d}},
	"Sbmv/float32":      {Hash: [2]uint64{0x866fbf5c6c030cca, 0x866fbf5c6c030cca}},
	"Sbmv/float64":      {Hash: [2]uint64{0x99adfcce0adf02d2, 0x99adfcce0adf02d2}},
	"Scal/complex128":   {Hash: [2]uint64{0xa983cdfc0988275a, 0x6aaaa3800f476d39}},
	"Scal/complex64":    {Hash: [2]uint64{0x6620ddbed1d81972, 0x6620ddbed1d81972}},
	"Scal/float32":      {Hash: [2]uint64{0xf929aade8a69d58d, 0xf929aade8a69d58d}},
	"Scal/float64":      {Hash: [2]uint64{0x18db60504f95a381, 0x18db60504f95a381}},
	"Spmv/complex128":   {Hash: [2]uint64{0x22209de13cec3d05, 0x22209de13cec3d05}},
	"Spmv/complex64":    {Hash: [2]uint64{0x87040b7eebce2b7a, 0x87040b7eebce2b7a}},
	"Spmv/float32":      {Hash: [2]uint64{0xbcd41eedd6399752, 0xbcd41eedd6399752}},
	"Spmv/float64":      {Hash: [2]uint64{0xd0c997bf6458d46a, 0xd0c997bf6458d46a}},
	"Spr/complex128":    {Hash: [2]uint64{0x69cc746a8592a653, 0x69cc746a8592a653}},
	"Spr/complex64":     {Hash: [2]uint64{0x05235a51b08a999c, 0x05235a51b08a999c}},
	"Spr/float32":       {Hash: [2]uint64{0x24ab551282064060, 0x24ab551282064060}},
	"Spr/float64":       {Hash: [2]uint64{0x25829ac4ba9f6cea, 0x25829ac4ba9f6cea}},
	"Spr2/complex128":   {Hash: [2]uint64{0x6970fb9c8b927f60, 0x6970fb9c8b927f60}},
	"Spr2/complex64":    {Hash: [2]uint64{0x2bec77bdc9b21f6a, 0x2bec77bdc9b21f6a}},
	"Spr2/float32":      {Hash: [2]uint64{0xe61e1ea80327c6de, 0xe61e1ea80327c6de}},
	"Spr2/float64":      {Hash: [2]uint64{0xa50fa465a9ad9d1e, 0xa50fa465a9ad9d1e}},
	"Swap/complex128":   {Hash: [2]uint64{0xd7facbb1b249f065, 0xd7facbb1b249f065}},
	"Swap/complex64":    {Hash: [2]uint64{0xe462633141408bd4, 0xe462633141408bd4}},
	"Swap/float32":      {Hash: [2]uint64{0x5124abd320b9526d, 0x5124abd320b9526d}},
	"Swap/float64":      {Hash: [2]uint64{0x2a620cb5040dc2d4, 0x2a620cb5040dc2d4}},
	"Symm/complex128":   {Hash: [2]uint64{0x5497ed13f88a36c5, 0x5497ed13f88a36c5}},
	"Symm/complex64":    {Hash: [2]uint64{0xf621febd061fd8d6, 0xf621febd061fd8d6}},
	"Symm/float32":      {Hash: [2]uint64{0x0babd3cad10bffef, 0x0babd3cad10bffef}},
	"Symm/float64":      {Hash: [2]uint64{0x6484bcda891a9520, 0x6484bcda891a9520}},
	"Symv/complex128":   {Hash: [2]uint64{0x22209de13cec3d05, 0x22209de13cec3d05}},
	"Symv/complex64":    {Hash: [2]uint64{0x87040b7eebce2b7a, 0x87040b7eebce2b7a}},
	"Symv/float32":      {Hash: [2]uint64{0xbcd41eedd6399752, 0xbcd41eedd6399752}},
	"Symv/float64":      {Hash: [2]uint64{0x519d6ed8b8e3116f, 0xd0c997bf6458d46a}},
	"Syr/complex128":    {Hash: [2]uint64{0x4b8d84058524d590, 0x4b8d84058524d590}},
	"Syr/complex64":     {Hash: [2]uint64{0x6d011a5bad03ba30, 0x6d011a5bad03ba30}},
	"Syr/float32":       {Hash: [2]uint64{0x09676a27c3717903, 0x09676a27c3717903}},
	"Syr/float64":       {Hash: [2]uint64{0xf2aa5cb221ac8aab, 0xf2aa5cb221ac8aab}},
	"Syr2/complex128":   {Hash: [2]uint64{0x8f7fad4e5ed5fe9f, 0x8f7fad4e5ed5fe9f}},
	"Syr2/complex64":    {Hash: [2]uint64{0x42b56959fa85da92, 0x42b56959fa85da92}},
	"Syr2/float32":      {Hash: [2]uint64{0x01f0aaf812a49fa1, 0x01f0aaf812a49fa1}},
	"Syr2/float64":      {Hash: [2]uint64{0x15fb77356059056f, 0x15fb77356059056f}},
	"Syr2k/complex128":  {Hash: [2]uint64{0xb0e4d8fb92d4f574, 0xbdd0434fd09c7a4f}},
	"Syr2k/complex64":   {Hash: [2]uint64{0x0e752154f2b1ff3c, 0xabbda19451478c3f}},
	"Syr2k/float32":     {Hash: [2]uint64{0x709c9cc70bffa629, 0x709c9cc70bffa629}},
	"Syr2k/float64":     {Hash: [2]uint64{0xa9620e8cf54748a7, 0xa9620e8cf54748a7}},
	"Syrk/complex128":   {Hash: [2]uint64{0x9e1b7317980e9c15, 0xac257a246546f422}},
	"Syrk/complex64":    {Hash: [2]uint64{0x22ecc0096a4ea618, 0x72dcf814f000b1b2}},
	"Syrk/float32":      {Hash: [2]uint64{0xac0e178dddb19b81, 0xac0e178dddb19b81}},
	"Syrk/float64":      {Hash: [2]uint64{0x13ad08adbf776c3f, 0x13ad08adbf776c3f}},
	"Tbmv/complex128":   {Hash: [2]uint64{0x4115520ada8ed9a1, 0x4115520ada8ed9a1}},
	"Tbmv/complex64":    {Hash: [2]uint64{0x2915626a693446ab, 0x2915626a693446ab}},
	"Tbmv/float32":      {Hash: [2]uint64{0x5b65d18226e5b7b0, 0x5b65d18226e5b7b0}},
	"Tbmv/float64":      {Hash: [2]uint64{0x2f0874ab4edff042, 0x2f0874ab4edff042}},
	"Tbsv/complex128":   {Hash: [2]uint64{0xcb0368389261e5c4, 0xcb0368389261e5c4}},
	"Tbsv/complex64":    {Hash: [2]uint64{0x112f7a7061e3dcd9, 0x112f7a7061e3dcd9}},
	"Tbsv/float32":      {Hash: [2]uint64{0x3913f7b70fa44c0f, 0x3913f7b70fa44c0f}},
	"Tbsv/float64":      {Hash: [2]uint64{0x0fc6e6c3bd60fd9b, 0x0fc6e6c3bd60fd9b}},
	"Tpmv/complex128":   {Hash: [2]uint64{0x084259ac1625acb0, 0x084259ac1625acb0}},
	"Tpmv/complex64":    {Hash: [2]uint64{0x9d007d93a5ac72b8, 0x9d007d93a5ac72b8}},
	"Tpmv/float32":      {Hash: [2]uint64{0xba5d8732ad0e43c8, 0xba5d8732ad0e43c8}},
	"Tpmv/float64":      {Hash: [2]uint64{0x44694ff39dbefecc, 0x44694ff39dbefecc}},
	"Tpsv/complex128":   {Hash: [2]uint64{0x1d0eae99164135ef, 0x1d0eae99164135ef}},
	"Tpsv/complex64":    {Hash: [2]uint64{0xa48cf226ddeb99b7, 0xa48cf226ddeb99b7}},
	"Tpsv/float32":      {Hash: [2]uint64{0x694d949e07744bd4, 0x694d949e07744bd4}},
	"Tpsv/float64":      {Hash: [2]uint64{0x362de7483691c60c, 0x362de7483691c60c}},
	"Trmm/complex128":   {Hash: [2]uint64{0x7e07125fa6aa9154, 0x47d03c44e3a9365f}},
	"Trmm/complex64":    {Hash: [2]uint64{0x7eeb10f5135edf20, 0x18ba69bed6583900}},
	"Trmm/float32":      {Hash: [2]uint64{0x75e9a838a88d0112, 0x2474db5b71bab571}},
	"Trmm/float64":      {Hash: [2]uint64{0x702adfeaad2da947, 0x43dd852ca0f2d884}},
	"Trmv/complex128":   {Hash: [2]uint64{0x2e0363c2cf1dd3bd, 0x2e0363c2cf1dd3bd}},
	"Trmv/complex64":    {Hash: [2]uint64{0x255054816c4533da, 0x255054816c4533da}},
	"Trmv/float32":      {Hash: [2]uint64{0x413177c6a53a9654, 0x413177c6a53a9654}},
	"Trmv/float64":      {Hash: [2]uint64{0x4a8cb9ae61507180, 0x4a8cb9ae61507180}},
	"Trsm/complex128":   {Hash: [2]uint64{0x8637e7a010f0244c, 0x8c3ba6d54a3e526d}},
	"Trsm/complex64":    {Hash: [2]uint64{0x09137fd1cefa17e0, 0xd508876be5a23620}},
	"Trsm/float32":      {Hash: [2]uint64{0x82223bcbe8e575be, 0x0de8e5b0a5e0562c}},
	"Trsm/float64":      {Hash: [2]uint64{0x9e5e9985c3e7d6d7, 0xa6c436d9a68ad7ff}},
	"Trsv/complex128":   {Hash: [2]uint64{0xe7b16fe436b59bff, 0x1d0eae99164135ef}},
	"Trsv/complex64":    {Hash: [2]uint64{0x090a5ce134413dfd, 0xa48cf226ddeb99b7}},
	"Trsv/float32":      {Hash: [2]uint64{0xc84b9b29c1ee8a0c, 0x694d949e07744bd4}},
	"Trsv/float64":      {Hash: [2]uint64{0x7e5bcec9d908674a, 0x362de7483691c60c}},

	// The kernel rows' leaves at every length 1…40 (leaves), recorded before
	// the twin assembly kernels were folded into one macro body each.
	"Leaves/axpy/complex128":     {Hash: [2]uint64{0xcff0c1130bd226eb, 0x2cc4f81ecabbba6a}},
	"Leaves/axpy/complex64":      {Hash: [2]uint64{0xdbdc683be783eeb2, 0xd8a031f00e043199}},
	"Leaves/axpy/float32":        {Hash: [2]uint64{0x5f9dfdfe32a8c32d, 0x25b8e5f14f3c7fc2}},
	"Leaves/axpy/float64":        {Hash: [2]uint64{0xec7967fb9c24fbf9, 0x9c0b7b66b33889a9}},
	"Leaves/dot/complex128":      {Hash: [2]uint64{0x0fa89ce046a8e344, 0xe47e3c71d3d347cf}},
	"Leaves/dot/complex64":       {Hash: [2]uint64{0x63d6cfca1c72d960, 0x293fc5b7df1ed358}},
	"Leaves/dot/float32":         {Hash: [2]uint64{0xb20082a5750e5995, 0xa8c6210b97461129}},
	"Leaves/dot/float64":         {Hash: [2]uint64{0x8d352753ed36f295, 0x72fb4e0498345dd9}},
	"Leaves/gemvSub8/complex128": {Hash: [2]uint64{0x91e92a721f7ada3a, 0x4a256d3b058d6602}},
	"Leaves/gemvSub8/complex64":  {Hash: [2]uint64{0xfcd19e2126d641f7, 0x641193c2ad5a5cab}},
	"Leaves/gemvSub8/float32":    {Hash: [2]uint64{0xb1155a323891d3ec, 0x2cbb7212f4a8e538}},
	"Leaves/gemvSub8/float64":    {Hash: [2]uint64{0x62160be856076e31, 0xb31330df44117a55}},
	"Leaves/iamax/complex128":    {Hash: [2]uint64{0xbb8ea24b80977ad5, 0xbb8ea24b80977ad5}},
	"Leaves/iamax/complex64":     {Hash: [2]uint64{0xbb8ea24b80977ad5, 0xbb8ea24b80977ad5}},
	"Leaves/iamax/float32":       {Hash: [2]uint64{0x90ec2bc9bc9b900e, 0x90ec2bc9bc9b900e}},
	"Leaves/iamax/float64":       {Hash: [2]uint64{0xf228f0ef8e92dce5, 0xf228f0ef8e92dce5}},
	"Leaves/micro/complex128":    {Hash: [2]uint64{0x528d801884a8ad1d, 0xbe55329f18014974}},
	"Leaves/micro/complex64":     {Hash: [2]uint64{0x7a61234e74aa94e8, 0x039984cfde027838}},
	"Leaves/micro/float32":       {Hash: [2]uint64{0xb550669031e9cfb0, 0x1f8879f300597fe9}},
	"Leaves/micro/float64":       {Hash: [2]uint64{0xf1800888937696b4, 0xb809cd872c25b655}},
	"Leaves/scal/complex128":     {Hash: [2]uint64{0x5a25ef66329190ca, 0xa0d0e164785a4820}},
	"Leaves/scal/complex64":      {Hash: [2]uint64{0x2689254b7beb0c6d, 0x2689254b7beb0c6d}},
	"Leaves/scal/float32":        {Hash: [2]uint64{0xb2a3686a998443f9, 0xb2a3686a998443f9}},
	"Leaves/scal/float64":        {Hash: [2]uint64{0x10e4bdb4f3d6645c, 0x10e4bdb4f3d6645c}},
	"Leaves/trsvOct/complex128":  {Hash: [2]uint64{0xffcd85ecc006048a, 0x17b2748bc3dcce4d}},
	"Leaves/trsvOct/complex64":   {Hash: [2]uint64{0x8e871acfd8b56896, 0x9f8ef73cc5319c7d}},
	"Leaves/trsvOct/float32":     {Hash: [2]uint64{0x29d611fc65a48f21, 0x4025280794a9a660}},
	"Leaves/trsvOct/float64":     {Hash: [2]uint64{0x549e209686bff88c, 0x1f1798b0a3087755}},
}

var (
	l12Sizes = []int{1, 3, 8, 17, 64}
	l12Incs  = [][2]int{{1, 1}, {2, 3}}
)

// cmat is the oracle's working form of every operand: dense, column-major,
// complex128 (exact for all four element types), leading dimension m.
type cmat struct {
	m, n int
	v    []complex128
}

func newCmat(m, n int) cmat               { return cmat{m, n, make([]complex128, m*n)} }
func (c cmat) at(i, j int) complex128     { return c.v[i+j*c.m] }
func (c cmat) set(i, j int, v complex128) { c.v[i+j*c.m] = v }

// lift is the m×n block of a. A strided vector is lift(1, n, x, inc).
func lift[T core.Scalar](m, n int, a []T, lda int) cmat {
	c := newCmat(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c.set(i, j, core.ToComplex(a[i+j*lda]))
		}
	}
	return c
}

func colv[T core.Scalar](n int, x []T, inc int) cmat { return lift(1, n, x, inc).op(TransT) }

func (c cmat) mapped(m, n int, f func(i, j int) complex128) cmat {
	o := newCmat(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			o.set(i, j, f(i, j))
		}
	}
	return o
}

func (c cmat) op(t Trans) cmat {
	switch t {
	case TransT:
		return c.mapped(c.n, c.m, func(i, j int) complex128 { return c.at(j, i) })
	case ConjTrans:
		return c.mapped(c.n, c.m, func(i, j int) complex128 { return cmplx.Conj(c.at(j, i)) })
	}
	return c
}

func (c cmat) scale(alpha complex128) cmat {
	return c.mapped(c.m, c.n, func(i, j int) complex128 { return alpha * c.at(i, j) })
}

func inTri(uplo Uplo) func(i, j int) bool {
	if uplo == Upper {
		return func(i, j int) bool { return i <= j }
	}
	return func(i, j int) bool { return i >= j }
}

// tri is the triangular matrix the uplo triangle of c stores.
func (c cmat) tri(uplo Uplo, diag Diag) cmat {
	in := inTri(uplo)
	return c.mapped(c.m, c.n, func(i, j int) complex128 {
		switch {
		case i == j && diag == Unit:
			return 1
		case in(i, j):
			return c.at(i, j)
		}
		return 0
	})
}

// sym is the symmetric (Hermitian, real diagonal) matrix the uplo triangle
// of c stores.
func (c cmat) sym(uplo Uplo, herm bool) cmat {
	in := inTri(uplo)
	return c.mapped(c.m, c.n, func(i, j int) complex128 {
		switch {
		case i == j && herm:
			return complex(real(c.at(i, i)), 0)
		case in(i, j):
			return c.at(i, j)
		case herm:
			return cmplx.Conj(c.at(j, i))
		}
		return c.at(j, i)
	})
}

// realDiag is c as a Hermitian update reads it: imaginary parts of the
// diagonal dropped.
func (c cmat) realDiag() cmat {
	return c.mapped(c.m, c.n, func(i, j int) complex128 {
		if i == j {
			return complex(real(c.at(i, i)), 0)
		}
		return c.at(i, j)
	})
}

// band zeroes c outside kl sub- and ku super-diagonals.
func (c cmat) band(kl, ku int) cmat {
	return c.mapped(c.m, c.n, func(i, j int) complex128 {
		if i-j > kl || j-i > ku {
			return 0
		}
		return c.at(i, j)
	})
}

func hcat(a, b cmat) cmat {
	return a.mapped(a.m, a.n+b.n, func(i, j int) complex128 {
		if j < a.n {
			return a.at(i, j)
		}
		return b.at(i, j-a.n)
	})
}

func vcat(a, b cmat) cmat { return hcat(a.op(TransT), b.op(TransT)).op(TransT) }

// packOf stores the uplo triangle of the dense n×n a in packed form; unpack
// is its inverse onto a zeroed dense matrix. bandOf stores the band of the
// dense m×n a with one padding row (ldab = kl+ku+2) and noise in the
// corners the band layout leaves unreferenced.
func packOf[T core.Scalar](uplo Uplo, n int, a []T, lda int) []T {
	ap := make([]T, n*(n+1)/2)
	in := inTri(uplo)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if in(i, j) {
				ap[PackIdx(uplo, n, i, j)] = a[i+j*lda]
			}
		}
	}
	return ap
}

func unpack[T core.Scalar](uplo Uplo, n int, ap []T) cmat {
	in := inTri(uplo)
	return newCmat(n, n).mapped(n, n, func(i, j int) complex128 {
		if in(i, j) {
			return core.ToComplex(ap[PackIdx(uplo, n, i, j)])
		}
		return 0
	})
}

func (s *l12[T]) bandOf(m, n, kl, ku int, a []T, lda int) (ab []T, ldab int) {
	ldab = kl + ku + 2
	ab = s.rnd(ldab * n)
	for j := 0; j < n; j++ {
		for i := max(0, j-ku); i <= min(m-1, j+kl); i++ {
			ab[ku+i-j+j*ldab] = a[i+j*lda]
		}
	}
	return ab, ldab
}

// l12 is the state of one element type's sweep on one kernel route.
type l12[T core.Scalar] struct {
	t   *testing.T
	rng *rand.Rand
	h   map[string]*diff.Hash
}

func (s *l12[T]) hash(name string) *diff.Hash {
	key := fmt.Sprintf("%s/%T", name, *new(T))
	if s.h[key] == nil {
		s.h[key] = diff.NewHash()
	}
	return s.h[key]
}

// sum folds whole output arrays into the routine's fingerprint, sumF scalar
// results.
func (s *l12[T]) sum(name string, outs ...[]T)      { diff.Add(s.hash(name), outs...) }
func (s *l12[T]) sumF(name string, vals ...float64) { s.hash(name).Float(vals...) }

func (s *l12[T]) rnd(n int) []T { return randSlice[T](s.rng, n) }

// scalar is re + im·i, or re for a real element type.
func (s *l12[T]) scalar(re, im float64) T { return core.FromComplex[T](complex(re, im)) }

// vec is a random n-vector at stride inc (noise in the gaps) with exact
// zeros where the zero shortcuts look: in the middle, and from n = 8 at both
// ends, which is where a triangular sweep starts.
func (s *l12[T]) vec(n, inc int) []T {
	x := s.rnd(1 + (n-1)*inc)
	if n >= 3 {
		x[n/2*inc] = 0
	}
	if n >= 8 {
		x[0], x[(n-1)*inc] = 0, 0
	}
	return x
}

// mat is a random m×n matrix with one padding row, its diagonal pushed away
// from zero (so triangles are safely invertible) and, from order 8, one
// exact zero in each triangle.
func (s *l12[T]) mat(m, n int) (a []T, lda int) {
	lda = m + 1
	a = s.rnd(lda * n)
	for j := 0; j < min(m, n); j++ {
		a[j+j*lda] += s.scalar(4, 0)
	}
	if min(m, n) >= 8 {
		a[1+2*lda], a[2+1*lda] = 0, 0
	}
	return a, lda
}

func clone[T any](x []T) []T { return append([]T(nil), x...) }

// check is the one dense definition every routine is held to: on the entries
// keep selects (all of them when nil), got = alpha·A·B + beta·C0 to
// 4·(k+2)·ε of the summed magnitudes of the terms, k the inner dimension;
// everywhere else got = C0 exactly. beta = 0 does not read C0.
func (s *l12[T]) check(name string, alpha complex128, a, b cmat, beta complex128, c0, got cmat, keep func(i, j int) bool) {
	s.t.Helper()
	if a.n != b.m || got.m != a.m || got.n != b.n {
		s.t.Fatalf("%s: oracle shapes %dx%d · %dx%d vs %dx%d", name, a.m, a.n, b.m, b.n, got.m, got.n)
	}
	tol := 4 * float64(a.n+2) * core.Eps[T]()
	for j := 0; j < got.n; j++ {
		for i := 0; i < got.m; i++ {
			if keep != nil && !keep(i, j) {
				if got.at(i, j) != c0.at(i, j) {
					s.t.Errorf("%s: unreferenced (%d,%d) changed from %v to %v", name, i, j, c0.at(i, j), got.at(i, j))
					return
				}
				continue
			}
			var sum complex128
			mag := 0.0
			for l := 0; l < a.n; l++ {
				sum += a.at(i, l) * b.at(l, j)
				mag += cmplx.Abs(a.at(i, l)) * cmplx.Abs(b.at(l, j))
			}
			want, bound := alpha*sum, cmplx.Abs(alpha)*mag
			if beta != 0 {
				want += beta * c0.at(i, j)
				bound += cmplx.Abs(beta) * cmplx.Abs(c0.at(i, j))
			}
			if d := cmplx.Abs(got.at(i, j) - want); !(d <= tol*bound) {
				s.t.Errorf("%s: (%d,%d) = %v, dense definition %v (off by %.3g, allowed %.3g)", name, i, j, got.at(i, j), want, d, tol*bound)
				return
			}
		}
	}
}

var one11 = cmat{1, 1, []complex128{1}}

func (s *l12[T]) level1(n, ix, iy int) {
	alpha := s.scalar(0.75, -0.5)
	ca := core.ToComplex(alpha)
	x0, y0 := s.vec(n, ix), s.vec(n, iy)
	X, Y := colv(n, x0, ix), colv(n, y0, iy)
	name := func(r string) string { return fmt.Sprintf("%s n=%d inc=%d,%d", r, n, ix, iy) }

	x, y := clone(x0), clone(y0)
	Swap(n, x, ix, y, iy)
	s.check(name("Swap"), 1, Y, one11, 0, cmat{}, colv(n, x, ix), nil)
	s.check(name("Swap"), 1, X, one11, 0, cmat{}, colv(n, y, iy), nil)
	s.sum("Swap", x, y)

	y = clone(y0)
	Copy(n, x0, ix, y, iy)
	s.check(name("Copy"), 1, X, one11, 0, cmat{}, colv(n, y, iy), nil)
	s.sum("Copy", y)

	x = clone(x0)
	Scal(n, alpha, x, ix)
	s.check(name("Scal"), ca, X, one11, 0, cmat{}, colv(n, x, ix), nil)
	s.sum("Scal", x)
	x = clone(x0)
	ScalReal(n, -1.25, x, ix)
	s.check(name("ScalReal"), -1.25, X, one11, 0, cmat{}, colv(n, x, ix), nil)
	s.sum("Scal", x)

	y = clone(y0)
	Axpy(n, alpha, x0, ix, y, iy)
	s.check(name("Axpy"), ca, X, one11, 1, Y, colv(n, y, iy), nil)
	s.sum("Axpy", y)

	du, dc := Dotu(n, x0, ix, y0, iy), Dotc(n, x0, ix, y0, iy)
	s.check(name("Dotu"), 1, X.op(TransT), Y, 0, cmat{}, lift(1, 1, []T{du}, 1), nil)
	s.check(name("Dotc"), 1, X.op(ConjTrans), Y, 0, cmat{}, lift(1, 1, []T{dc}, 1), nil)
	s.sum("Dotu", []T{du})
	s.sum("Dotc", []T{dc})

	// Nrm2, Asum and Iamax against their definitions in float64.
	ssq, asum, imax := 0.0, 0.0, 0
	for i := 0; i < n; i++ {
		v := X.at(i, 0)
		ssq += real(v)*real(v) + imag(v)*imag(v)
		asum += math.Abs(real(v)) + math.Abs(imag(v))
		if core.Abs1(x0[i*ix]) > core.Abs1(x0[imax*ix]) {
			imax = i
		}
	}
	tol := 4 * float64(n+2) * core.Eps[T]()
	nrm, as, im := Nrm2(n, x0, ix), Asum(n, x0, ix), Iamax(n, x0, ix)
	if math.Abs(nrm-math.Sqrt(ssq)) > tol*math.Sqrt(ssq) || math.Abs(as-asum) > tol*asum || im != imax {
		s.t.Errorf("%s: Nrm2 %v Asum %v Iamax %d, definitions %v %v %d", name("norms"), nrm, as, im, math.Sqrt(ssq), asum, imax)
	}
	s.sumF("Nrm2", nrm)
	s.sumF("Asum", as)
	s.sumF("Iamax", float64(im))

	// RotG: (x, y) ← (c·x + s·y, c·y − s·x) with real c, s.
	c, sn := 0.6, -0.8
	x, y = clone(x0), clone(y0)
	RotG(n, x, ix, y, iy, c, sn)
	XY := hcat(X, Y)
	s.check(name("RotG"), 1, XY, cmat{2, 1, []complex128{complex(c, 0), complex(sn, 0)}}, 0, cmat{}, colv(n, x, ix), nil)
	s.check(name("RotG"), 1, XY, cmat{2, 1, []complex128{complex(-sn, 0), complex(c, 0)}}, 0, cmat{}, colv(n, y, iy), nil)
	s.sum("RotG", x, y)
}

// level1Real covers the entry points that exist for real types only.
func level1Real[F core.Float](s *l12[F], n, ix, iy int) {
	x0, y0 := s.vec(n, ix), s.vec(n, iy)
	X, Y := colv(n, x0, ix), colv(n, y0, iy)
	name := fmt.Sprintf("n=%d inc=%d,%d", n, ix, iy)
	d := Dot(n, x0, ix, y0, iy)
	s.check("Dot "+name, 1, X.op(TransT), Y, 0, cmat{}, lift(1, 1, []F{d}, 1), nil)
	s.sum("Dot", []F{d})
	c, sn := F(0.6), F(-0.8)
	x, y := clone(x0), clone(y0)
	Rot(n, x, ix, y, iy, c, sn)
	XY := hcat(X, Y)
	s.check("Rot "+name, 1, XY, lift(2, 1, []F{c, sn}, 2), 0, cmat{}, colv(n, x, ix), nil)
	s.check("Rot "+name, 1, XY, lift(2, 1, []F{-sn, c}, 2), 0, cmat{}, colv(n, y, iy), nil)
	s.sum("Rot", x, y)
	a, b := x0[0]+2, y0[0]
	r, z := a, b
	cg, sg := Rotg(&r, &z)
	s.check("Rotg "+name, 1, lift(2, 2, []F{cg, -sg, sg, cg}, 2), lift(2, 1, []F{a, b}, 2), 0, cmat{}, lift(2, 1, []F{r, 0}, 2), nil)
	s.sum("Rotg", []F{cg, sg, r, z})
}

// level1F64 covers the float64-only reflector entries.
func level1F64(s *l12[float64], n int) {
	// A gap in the stream that every fingerprint after it is pinned on: two
	// n-vectors, an n×8 matrix and an 8-vector, drawn through the helpers so
	// that a change to vec or mat moves the gap with everything else.
	s.vec(n, 1)
	s.vec(n, 1)
	s.mat(n, 8)
	s.vec(8, 1)
	// Refl3/Refl2: X ← X·(I − v·tᵀ), v = (1, v2, v3).
	v := []float64{1, 0.5, -0.25}
	tau := []float64{1.5, 0.75, -0.375}
	for _, w := range []int{3, 2} {
		x, ldx := s.mat(n, w)
		X0 := lift(n, w, x, ldx)
		H := newCmat(w, w).mapped(w, w, func(i, j int) complex128 {
			h := -v[i] * tau[j]
			if i == j {
				h++
			}
			return complex(h, 0)
		})
		if w == 3 {
			Refl3(n, x, x[ldx:], x[2*ldx:], v[1], v[2], tau[0], tau[1], tau[2])
		} else {
			Refl2(n, x, x[ldx:], v[1], tau[0], tau[1])
		}
		s.check(fmt.Sprintf("Refl%d n=%d", w, n), 1, X0, H, 0, cmat{}, lift(n, w, x, ldx), nil)
		s.sum(fmt.Sprintf("Refl%d", w), x)
	}
}

// betas are the (beta, poison) pairs of the matrix–vector sweeps: general,
// one (no scaling pass) and zero, under which a NaN in y must be cleared.
func (s *l12[T]) betas() []T { return []T{s.scalar(-0.5, 0.25), 1, 0} }

func poison[T core.Scalar](beta T, y []T) []T {
	y = clone(y)
	if beta == 0 {
		y[0] = core.NaN[T]()
	}
	return y
}

func (s *l12[T]) level2(n, ix, iy int) {
	alpha := s.scalar(0.75, -0.5)
	ca := core.ToComplex(alpha)
	cfg := core.Default().With(func(c *core.Config) { c.Threads = 1 })
	name := func(r string, v ...any) string { return fmt.Sprintf("%s n=%d inc=%d,%d %v", r, n, ix, iy, v) }

	// General matrix: Gemv, Ger, Gerc, Gbmv on (n+2)×n.
	m := n + 2
	a0, lda := s.mat(m, n)
	A := lift(m, n, a0, lda)
	kl, ku := min(2, m-1), min(3, n-1)
	ab, ldab := s.bandOf(m, n, kl, ku, a0, lda)
	for _, trans := range allTrans {
		lx, ly := n, m
		if trans != NoTrans {
			lx, ly = m, n
		}
		x := s.vec(lx, ix)
		X := colv(lx, x, ix)
		for _, beta := range s.betas() {
			y0 := poison(beta, s.vec(ly, iy))
			y := clone(y0)
			Gemv(cfg, trans, m, n, alpha, a0, lda, x, ix, beta, y, iy)
			s.check(name("Gemv", trans, beta), ca, A.op(trans), X, core.ToComplex(beta), colv(ly, y0, iy), colv(ly, y, iy), nil)
			s.sum("Gemv", y)
			y = clone(y0)
			Gbmv(trans, m, n, kl, ku, alpha, ab, ldab, x, ix, beta, y, iy)
			s.check(name("Gbmv", trans, beta), ca, A.band(kl, ku).op(trans), X, core.ToComplex(beta), colv(ly, y0, iy), colv(ly, y, iy), nil)
			s.sum("Gbmv", y)
		}
	}
	x, y := s.vec(m, ix), s.vec(n, iy)
	X, Y := colv(m, x, ix), colv(n, y, iy)
	a := clone(a0)
	Ger(m, n, alpha, x, ix, y, iy, a, lda)
	s.check(name("Ger"), ca, X, Y.op(TransT), 1, A, lift(m, n, a, lda), nil)
	s.sum("Ger", a)
	a = clone(a0)
	Gerc(m, n, alpha, x, ix, y, iy, a, lda)
	s.check(name("Gerc"), ca, X, Y.op(ConjTrans), 1, A, lift(m, n, a, lda), nil)
	s.sum("Gerc", a)

	// Symmetric and Hermitian, dense / packed / band storage.
	a0, lda = s.mat(n, n)
	A = lift(n, n, a0, lda)
	k := min(2, n-1)
	x, y = s.vec(n, ix), s.vec(n, iy)
	X, Y = colv(n, x, ix), colv(n, y, iy)
	for _, uplo := range []Uplo{Upper, Lower} {
		ap0 := packOf(uplo, n, a0, lda)
		bkl, bku := k, 0
		if uplo == Upper {
			bkl, bku = 0, k
		}
		sb, ldsb := s.bandOf(n, n, bkl, bku, a0, lda)
		for _, herm := range []bool{false, true} {
			hs := map[bool]string{false: "S", true: "H"}[herm]   // packed and band names
			sy := map[bool]string{false: "Sy", true: "He"}[herm] // dense names
			ct := TransT
			if herm {
				ct = ConjTrans
			}
			S := A.sym(uplo, herm)
			for _, beta := range s.betas() {
				y0 := poison(beta, y)
				Y0, cb := colv(n, y0, iy), core.ToComplex(beta)
				mv := func(r string, want cmat, f func(y []T)) {
					yy := clone(y0)
					f(yy)
					s.check(name(r, uplo, herm, beta), ca, want, X, cb, Y0, colv(n, yy, iy), nil)
					s.sum(r, yy)
				}
				mv(sy+"mv", S, func(yy []T) {
					if herm {
						Hemv(uplo, n, alpha, a0, lda, x, ix, beta, yy, iy)
					} else {
						Symv(uplo, n, alpha, a0, lda, x, ix, beta, yy, iy)
					}
				})
				mv(hs+"pmv", S, func(yy []T) {
					if herm {
						Hpmv(uplo, n, alpha, ap0, x, ix, beta, yy, iy)
					} else {
						Spmv(uplo, n, alpha, ap0, x, ix, beta, yy, iy)
					}
				})
				mv(hs+"bmv", A.band(k, k).sym(uplo, herm), func(yy []T) {
					if herm {
						Hbmv(uplo, n, k, alpha, sb, ldsb, x, ix, beta, yy, iy)
					} else {
						Sbmv(uplo, n, k, alpha, sb, ldsb, x, ix, beta, yy, iy)
					}
				})
			}
			// Rank-one and rank-two updates of the stored triangle.
			C0 := A
			al1 := ca
			if herm {
				C0, al1 = A.realDiag(), complex(0.75, 0)
			}
			P0 := unpack(uplo, n, ap0)
			if herm {
				P0 = P0.realDiag()
			}
			a, ap := clone(a0), clone(ap0)
			if herm {
				Her(uplo, n, 0.75, x, ix, a, lda)
				Hpr(uplo, n, 0.75, x, ix, ap)
			} else {
				Syr(uplo, n, alpha, x, ix, a, lda)
				Spr(uplo, n, alpha, x, ix, ap)
			}
			s.check(name(sy+"r", uplo), al1, X, X.op(ct), 1, C0, lift(n, n, a, lda), inTri(uplo))
			s.check(name(hs+"pr", uplo), al1, X, X.op(ct), 1, P0, unpack(uplo, n, ap), inTri(uplo))
			s.sum(sy+"r", a)
			s.sum(hs+"pr", ap)
			a, ap = clone(a0), clone(ap0)
			if herm {
				Her2(uplo, n, alpha, x, ix, y, iy, a, lda)
				Hpr2(uplo, n, alpha, x, ix, y, iy, ap)
			} else {
				Syr2(uplo, n, alpha, x, ix, y, iy, a, lda)
				Spr2(uplo, n, alpha, x, ix, y, iy, ap)
			}
			// alpha·x·yᵀ + alpha·y·xᵀ (alpha·x·yᴴ + conj(alpha)·y·xᴴ) as one product.
			ca2 := ca
			if herm {
				ca2 = cmplx.Conj(ca)
			}
			L, R := hcat(X.scale(ca), Y.scale(ca2)), vcat(Y.op(ct), X.op(ct))
			s.check(name(sy+"r2", uplo), 1, L, R, 1, C0, lift(n, n, a, lda), inTri(uplo))
			s.check(name(hs+"pr2", uplo), 1, L, R, 1, P0, unpack(uplo, n, ap), inTri(uplo))
			s.sum(sy+"r2", a)
			s.sum(hs+"pr2", ap)
		}

		// Triangular products and solves, dense / packed / band.
		for _, trans := range allTrans {
			for _, diag := range []Diag{NonUnit, Unit} {
				tr := func(r string, want cmat, solve bool, f func(x []T)) {
					xx := clone(x)
					f(xx)
					if got := colv(n, xx, ix); solve {
						s.check(name(r, uplo, trans, diag), 1, want, got, 0, cmat{}, X, nil)
					} else {
						s.check(name(r, uplo, trans, diag), 1, want, X, 0, cmat{}, got, nil)
					}
					s.sum(r, xx)
				}
				Tr := A.tri(uplo, diag).op(trans)
				Tb := A.band(k, k).tri(uplo, diag).op(trans)
				tr("Trmv", Tr, false, func(xx []T) { Trmv(uplo, trans, diag, n, a0, lda, xx, ix) })
				tr("Trsv", Tr, true, func(xx []T) { Trsv(uplo, trans, diag, n, a0, lda, xx, ix) })
				tr("Tpmv", Tr, false, func(xx []T) { Tpmv(uplo, trans, diag, n, ap0, xx, ix) })
				tr("Tpsv", Tr, true, func(xx []T) { Tpsv(uplo, trans, diag, n, ap0, xx, ix) })
				tr("Tbmv", Tb, false, func(xx []T) { Tbmv(uplo, trans, diag, n, k, sb, ldsb, xx, ix) })
				tr("Tbsv", Tb, true, func(xx []T) { Tbsv(uplo, trans, diag, n, k, sb, ldsb, xx, ix) })
			}
		}
	}
}

// level3 covers what sits between Level 2 and the packed engines: Trmm,
// Trsm around its leaves (13 = 8 + 4 + 1 columns, one per leaf width), the
// rank-k family (k = 5 stays unpacked except on the largest 1m shapes),
// Symm/Hemm, the small and skinny Gemm routes and RotSeq.
func (s *l12[T]) level3(n int) {
	cfg := core.Default().With(func(c *core.Config) { c.Threads = 1 })
	alpha := s.scalar(0.75, -0.5)
	ca := core.ToComplex(alpha)
	name := func(r string, v ...any) string { return fmt.Sprintf("%s n=%d %v", r, n, v) }
	const w, k = 13, 5

	t0, ldt := s.mat(n, n)
	Tm := lift(n, n, t0, ldt)
	for _, side := range []Side{Left, Right} {
		bm, bn := n, w
		if side == Right {
			bm, bn = w, n
		}
		b0, ldb := s.mat(bm, bn)
		B0 := lift(bm, bn, b0, ldb)
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range allTrans {
				for _, diag := range []Diag{NonUnit, Unit} {
					for _, al := range []T{alpha, 1} {
						cal := core.ToComplex(al)
						opT := Tm.tri(uplo, diag).op(trans)
						b := clone(b0)
						Trmm(side, uplo, trans, diag, bm, bn, al, t0, ldt, b, ldb)
						got := lift(bm, bn, b, ldb)
						if side == Left {
							s.check(name("Trmm", side, uplo, trans, diag, al), cal, opT, B0, 0, cmat{}, got, nil)
						} else {
							s.check(name("Trmm", side, uplo, trans, diag, al), cal, B0, opT, 0, cmat{}, got, nil)
						}
						s.sum("Trmm", b)
						b = clone(b0)
						Trsm(cfg, side, uplo, trans, diag, bm, bn, al, t0, ldt, b, ldb)
						got = lift(bm, bn, b, ldb)
						if side == Left {
							s.check(name("Trsm", side, uplo, trans, diag, al), 1, opT, got, 0, cmat{}, B0.scale(cal), nil)
						} else {
							s.check(name("Trsm", side, uplo, trans, diag, al), 1, got, opT, 0, cmat{}, B0.scale(cal), nil)
						}
						s.sum("Trsm", b)
					}
				}
			}
			// Symm/Hemm with the same triangle as the symmetric operand.
			c0, ldc := s.mat(bm, bn)
			for _, herm := range []bool{false, true} {
				for _, beta := range s.betas() {
					cc := poison(beta, c0)
					C0 := lift(bm, bn, cc, ldc)
					if herm {
						Hemm(cfg, side, uplo, bm, bn, alpha, t0, ldt, b0, ldb, beta, cc, ldc)
					} else {
						Symm(cfg, side, uplo, bm, bn, alpha, t0, ldt, b0, ldb, beta, cc, ldc)
					}
					S := Tm.sym(uplo, herm)
					if side == Left {
						s.check(name("Symm", side, uplo, herm, beta), ca, S, B0, core.ToComplex(beta), C0, lift(bm, bn, cc, ldc), nil)
					} else {
						s.check(name("Symm", side, uplo, herm, beta), ca, B0, S, core.ToComplex(beta), C0, lift(bm, bn, cc, ldc), nil)
					}
					s.sum(map[bool]string{false: "Symm", true: "Hemm"}[herm], cc)
				}
			}
		}
	}

	// Rank-k and rank-2k updates of the stored triangle.
	for _, trans := range []Trans{NoTrans, ConjTrans} {
		am, an := n, k
		if trans != NoTrans {
			am, an = k, n
		}
		a, lda := s.mat(am, an)
		b, ldb := s.mat(am, an)
		c0, ldc := s.mat(n, n)
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, herm := range []bool{false, true} {
				tr, ct := trans, ConjTrans
				if !herm {
					ct = TransT
					if trans != NoTrans {
						tr = TransT
					}
				}
				opA, opB := lift(am, an, a, lda).op(tr), lift(am, an, b, ldb).op(tr)
				for _, beta := range s.betas() {
					hb := core.FromFloat[T](core.Re(beta))
					cb := core.ToComplex(beta)
					if herm {
						cb = core.ToComplex(hb)
					}
					cc := poison(beta, c0)
					C0 := lift(n, n, cc, ldc)
					al1, ca2 := ca, ca
					if herm {
						C0, al1, ca2 = C0.realDiag(), complex(0.75, 0), cmplx.Conj(ca)
					}
					c2 := clone(cc)
					if herm {
						Herk(cfg, uplo, tr, n, k, 0.75, a, lda, core.Re(beta), cc, ldc)
						Her2k(cfg, uplo, tr, n, k, alpha, a, lda, b, ldb, core.Re(beta), c2, ldc)
					} else {
						Syrk(cfg, uplo, tr, n, k, alpha, a, lda, beta, cc, ldc)
						Syr2k(cfg, uplo, tr, n, k, alpha, a, lda, b, ldb, beta, c2, ldc)
					}
					hs := map[bool]string{false: "Syr", true: "Her"}[herm]
					s.check(name(hs+"k", uplo, tr, beta), al1, opA, opA.op(ct), cb, C0, lift(n, n, cc, ldc), inTri(uplo))
					s.check(name(hs+"2k", uplo, tr, beta), 1, hcat(opA.scale(ca), opB.scale(ca2)), vcat(opB.op(ct), opA.op(ct)), cb, C0, lift(n, n, c2, ldc), inTri(uplo))
					s.sum(hs+"k", cc)
					s.sum(hs+"2k", c2)
				}
			}
		}
	}

	// Gemm below the packed engine: the pack-free small path, the unpacked
	// loops for every trans pair, and the skinny block of right-hand sides.
	gemm := func(transA, transB Trans, m, n, k int) {
		am, an, bm, bn := m, k, k, n
		if transA != NoTrans {
			am, an = k, m
		}
		if transB != NoTrans {
			bm, bn = n, k
		}
		a, lda := s.mat(am, an)
		b, ldb := s.mat(bm, bn)
		c0, ldc := s.mat(m, n)
		for _, beta := range s.betas() {
			cc := poison(beta, c0)
			C0 := lift(m, n, cc, ldc)
			Gemm(cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, cc, ldc)
			s.check(name("Gemm", transA, transB, m, n, k, beta), ca, lift(am, an, a, lda).op(transA), lift(bm, bn, b, ldb).op(transB), core.ToComplex(beta), C0, lift(m, n, cc, ldc), nil)
			s.sum("Gemm", cc)
		}
	}
	for _, transA := range allTrans {
		for _, transB := range allTrans {
			gemm(transA, transB, n, 6, k)
		}
	}
	gemm(NoTrans, NoTrans, n, n, n)
	gemm(NoTrans, NoTrans, n+70, 7, k)
	gemm(NoTrans, NoTrans, n, 1, k)
	gemm(ConjTrans, NoTrans, n, 1, k)

	// RotSeq: A ← A·Q, Q the product of the sweep's rotations in order, one
	// of them the identity.
	const z = 6
	c, sn := make([]float64, z-1), make([]float64, z-1)
	for j := range c {
		th := s.rng.Float64() * 2 * math.Pi
		c[j], sn[j] = math.Cos(th), math.Sin(th)
	}
	c[2], sn[2] = 1, 0
	for _, forward := range []bool{true, false} {
		Q := newCmat(z, z)
		for i := 0; i < z; i++ {
			Q.set(i, i, 1)
		}
		for t := 0; t < z-1; t++ {
			j := t
			if !forward {
				j = z - 2 - t
			}
			cj, sj := complex(c[j], 0), complex(sn[j], 0)
			for i := 0; i < z; i++ {
				p, q := Q.at(i, j), Q.at(i, j+1)
				Q.set(i, j, sj*q+cj*p)
				Q.set(i, j+1, cj*q-sj*p)
			}
		}
		a, lda := s.mat(n, z)
		A0 := lift(n, z, a, lda)
		RotSeq(forward, n, z, c, sn, a, lda)
		s.check(name("RotSeq", forward), 1, A0, Q, 0, cmat{}, lift(n, z, a, lda), nil)
		s.sum("RotSeq", a)
	}
}

// reflRowsF64 fingerprints Refl3Rows/Refl2Rows: X ← (I − t·vᵀ)·X on the w
// rows of n columns. It draws after every older entry has, so adding it left
// their bits alone.
func reflRowsF64(s *l12[float64], n int) {
	v := []float64{1, 0.5, -0.25}
	tau := []float64{1.5, 0.75, -0.375}
	for _, w := range []int{3, 2} {
		x, ldx := s.mat(w, n)
		X0 := lift(w, n, x, ldx)
		L := newCmat(w, w).mapped(w, w, func(i, j int) complex128 {
			l := -tau[i] * v[j]
			if i == j {
				l++
			}
			return complex(l, 0)
		})
		if w == 3 {
			Refl3Rows(n, x, ldx, v[1], v[2], tau[0], tau[1], tau[2])
		} else {
			Refl2Rows(n, x, ldx, v[1], tau[0], tau[1])
		}
		s.check(fmt.Sprintf("Refl%dRows n=%d", w, n), 1, L, X0, 0, cmat{}, lift(w, n, x, ldx), nil)
		s.sum(fmt.Sprintf("Refl%dRows", w), x)
	}
}

// leaves fingerprints the kernel row's leaves themselves at unit stride over
// every length n = 1…40, so each tail of the vector loops is reached (the
// sizes of l12Sizes are 0, 1 or 3 mod 8): axpy and scal, with the elements
// past n watched; dot, both conjugations; iamax with a later tie and an
// interior NaN; trsvOct (the substitution kernel under it) on every
// uplo/diag and gemvSub8, each over leading dimensions past the rows
// touched; and micro over k = n on a 48×8 block of full tiles, a shape every
// row's geometry divides, so the rows with other tiles hash alike. It draws
// after every older entry has, so adding it left their bits alone.
func (s *l12[T]) leaves() {
	k := kernelFor[T]()
	alpha := s.scalar(0.75, -0.5)
	for n := 1; n <= 40; n++ {
		x, y := s.rnd(n), s.rnd(n+2)
		k.axpy(alpha, x, y)
		s.sum("Leaves/axpy", y)
		s.sum("Leaves/dot", []T{k.dot(x, y, false), k.dot(x, y, true)})
		w := s.rnd(n + 2)
		k.scal(alpha, w[:n])
		s.sum("Leaves/scal", w)

		first := k.iamax(x)
		x[n-1] = x[first]
		if n >= 3 {
			x[n/2] = s.scalar(math.NaN(), 0)
		}
		s.sumF("Leaves/iamax", float64(first), float64(k.iamax(x)))

		a, lda := s.mat(n, n)
		ldb := n + 3
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, diag := range []Diag{NonUnit, Unit} {
				b := s.rnd(8 * ldb)
				k.trsvOct(uplo, diag, n, 8, a, lda, b, ldb)
				s.sum("Leaves/trsvOct", b)
			}
		}
		var t [8]T
		copy(t[:], s.rnd(8))
		b, y8 := s.rnd(8*ldb), s.rnd(n+2)
		k.gemvSub8(n, t, b, ldb, y8)
		s.sum("Leaves/gemvSub8", y8)

		const mb, nb, ldc = 48, 8, 49
		ap, bp := make([]T, mb*n*k.kScale), make([]T, nb*n)
		k.packA(ap, k.mr, NoTrans, 1, s.rnd(mb*n), mb, 0, mb, 0, n)
		k.packB(bp, k.nr, NoTrans, s.rnd(n*nb), n, 0, n, 0, nb)
		c := s.rnd(ldc * nb)
		macroKernel(k, n, mb, nb, ap, bp, c, ldc, make([]T, tileScratch))
		s.sum("Leaves/micro", c)
	}
}

func level12Fingerprints[T core.Scalar](t *testing.T, out map[string]*diff.Hash) {
	s := &l12[T]{t: t, rng: rand.New(rand.NewSource(16)), h: out}
	for _, n := range l12Sizes {
		for _, inc := range l12Incs {
			s.level1(n, inc[0], inc[1])
			switch r := any(s).(type) {
			case *l12[float64]:
				level1Real(r, n, inc[0], inc[1])
			case *l12[float32]:
				level1Real(r, n, inc[0], inc[1])
			}
			s.level2(n, inc[0], inc[1])
		}
		if r, ok := any(s).(*l12[float64]); ok {
			level1F64(r, n)
		}
		s.level3(n)
	}
	if r, ok := any(s).(*l12[float64]); ok {
		for _, n := range l12Sizes {
			reflRowsF64(r, n)
		}
	}
	s.leaves()
}

func TestLevel12Golden(t *testing.T) {
	level12Golden.Check(t, func(t *testing.T, out map[string]*diff.Hash) {
		level12Fingerprints[float32](t, out)
		level12Fingerprints[float64](t, out)
		level12Fingerprints[complex64](t, out)
		level12Fingerprints[complex128](t, out)
	}, diff.Selected, diff.Portable) // the AVX2 row: make test-avx2
}

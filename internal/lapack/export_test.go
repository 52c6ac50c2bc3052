package lapack

// SyevCrossover is syevCrossover for the external route tests.
const SyevCrossover = syevCrossover

// SchurToComplex is schurToComplex for the external RCONDV test.
var SchurToComplex = schurToComplex

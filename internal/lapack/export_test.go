package lapack

// SyevCrossover is syevCrossover for the external route tests.
const SyevCrossover = syevCrossover

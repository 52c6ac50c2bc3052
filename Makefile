# Pre-merge gate for the repository (referenced from README "Install / build").
# `make ci` is what a PR must keep green: static checks, a full build, the
# whole test suite, the race detector over the threaded BLAS engine and the
# lookahead-pipelined factorizations, and a one-iteration bench smoke run so
# the benchmark harness itself cannot rot.

GO ?= go

.PHONY: ci vet lint-globals lint-knobs lint-dispatch lint-once lint-asm lint-tests build test test-portable test-avx2 race bench benchsmoke bench-smoke fuzzsmoke fuzz

ci: vet lint-globals lint-knobs lint-dispatch lint-once lint-asm lint-tests build test test-portable test-avx2 race fuzzsmoke benchsmoke bench-smoke

# The arm64 line builds and vets the other ports' side: the _other.go stand-ins
# for the amd64 kernels, which no amd64 build compiles. The last step fails on
# any Go file of the tree, bench/ included, that gofmt would rewrite.
vet:
	$(GO) vet ./...
	$(GO) vet ./internal/lapack/...
	GOARCH=arm64 $(GO) vet ./...
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo 'vet: files gofmt would rewrite (run gofmt -w on them):'; \
		echo "$$bad"; exit 1; \
	fi

# Execution-context hygiene: since the per-call Config refactor, kernels and
# drivers read what a caller sets — the worker budget, the screening policy,
# the context — from the *core.Config threaded down from the API boundary,
# never from the process-wide default store mid-call (block sizes and
# crossovers are constants, not Config fields). A direct default read anywhere
# in internal/lapack would let a concurrent SetThreads change a call's
# behavior mid-flight.
lint-globals:
	@bad=$$(grep -rn 'blas\.Threads()\|core\.Default()' \
		internal/lapack --include='*.go' | grep -v '_test\.go'); \
	if [ -n "$$bad" ]; then \
		echo 'lint-globals: default-store reads in internal/lapack:'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-globals: ok"

# One knob table: every LA90_* name mentioned in non-test Go (code or
# comment, bench/ aside — it is a module of its own) must be an Env of the
# core.Knobs table and vice versa, so a variable cannot be parsed, or
# documented, anywhere the table does not know about; and blas.SetThreads is
# the only process-wide setter — everything else is a With* option per call
# or a table variable per process. The surfaces are counted, so growing any
# of them is a decision made here: the env column may hold at most
# KNOB_ENV_MAX names, core.Config at most CONFIG_MAX fields, and non-test
# la/*.go may declare at most LA_OPTIONS_MAX `func With…` options (none of
# which selects an algorithm). A block size or crossover with one value in
# use is a constant (lapack.Ilaenv, internal/blas/tuning.go), not a knob: the
# packed engine's blocking and crossovers move only in tests, through the
# internal/faultinject hook, so no non-test Go outside internal/blas (which
# reads its overrides) and internal/testutil (which sets them for tests) may
# import internal/faultinject — that also keeps ForcePortable and ForceAVX2
# out of the library.
KNOB_ENV_MAX = 3
CONFIG_MAX = 3
LA_OPTIONS_MAX = 22
lint-knobs:
	@src=$$(grep -rhoE 'LA90_[A-Z0-9_]+' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . | sort -u); \
	tab=$$(grep -oE 'Env: "LA90_[A-Z0-9_]+"' internal/core/config.go | grep -oE 'LA90_[A-Z0-9_]+' | sort -u); \
	if [ "$$src" != "$$tab" ]; then \
		echo 'lint-knobs: LA90_* names in the sources differ from the core.Knobs env column:'; \
		printf '%s\n%s\n' "$$src" "$$tab" | sort | uniq -u; exit 1; \
	fi; \
	n=$$(printf '%s\n' "$$tab" | grep -c .); \
	if [ $$n -gt $(KNOB_ENV_MAX) ]; then \
		echo "lint-knobs: $$n LA90_* names in core.Knobs, at most $(KNOB_ENV_MAX) allowed"; exit 1; \
	fi
	@n=$$(sed -n '/^type Config struct {/,/^}/{/^type/d;s|//.*||;p;}' internal/core/config.go \
		| grep -oE '^[[:space:]]*[A-Z][A-Za-z0-9]*(, *[A-Z][A-Za-z0-9]*)*' | tr ',' '\n' | grep -c .); \
	if [ $$n -gt $(CONFIG_MAX) ]; then \
		echo "lint-knobs: $$n core.Config fields, at most $(CONFIG_MAX) allowed"; exit 1; \
	fi
	@bad=$$(grep -rln --include='*.go' --exclude='*_test.go' '"repro/internal/faultinject"' . \
		| grep -vE '^\./internal/(blas|testutil)/'); \
	if [ -n "$$bad" ]; then \
		echo 'lint-knobs: internal/faultinject imported outside internal/blas and internal/testutil (its overrides are for tests):'; \
		echo "$$bad"; exit 1; \
	fi
	@n=$$(grep -hE '^func With[A-Z]' --exclude='*_test.go' la/*.go | grep -c .); \
	if [ $$n -gt $(LA_OPTIONS_MAX) ]; then \
		echo "lint-knobs: $$n la.With* options, at most $(LA_OPTIONS_MAX) allowed:"; \
		grep -nE '^func With[A-Z]' --exclude='*_test.go' la/*.go; exit 1; \
	fi
	@bad=$$(grep -rnE '^func Set[A-Z]' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . \
		| grep -v 'internal/blas/parallel.go:[0-9]*:func SetThreads('); \
	if [ -n "$$bad" ]; then \
		echo 'lint-knobs: process-wide setters other than blas.SetThreads:'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-knobs: ok"

# One dispatch table: kernelFor (internal/blas/kernel.go) is the only place a
# BLAS routine's kernel is chosen by element type. A `any(x).(…)` type
# assertion in non-test internal/blas is a second dispatch point, so their
# number may not grow past the six that are not kernel choices — the switch
# in kernelFor itself, the per-type pool index in scratchPool (gemm.go), the
# block-size scaling in blockFor (tuning.go), and the three lines of the
# subFma8 shim (level3.go; a typed shim because a pointer handed to a func
# value escapes, measured there) — and the Level-1/2 and pack-free files may
# contain none at all. In non-test la/*.go no wrapper switches on its
# element type either (`any(x.Data).(…)`): every driver is one generic call.
DISPATCH_MAX = 6
lint-dispatch:
	@n=$$(grep -nE 'any\([A-Za-z0-9]+\)\.\(' internal/blas/*.go | grep -vc '_test\.go:'); \
	if [ $$n -gt $(DISPATCH_MAX) ]; then \
		echo "lint-dispatch: $$n type-assertion lines in internal/blas, at most $(DISPATCH_MAX) allowed:"; \
		grep -nE 'any\([A-Za-z0-9]+\)\.\(' internal/blas/*.go | grep -v '_test\.go:'; exit 1; \
	fi
	@bad=$$(grep -nE 'any\([A-Za-z0-9]+\)\.\(' internal/blas/level1.go internal/blas/level2*.go \
		internal/blas/gemmsmall.go internal/blas/leaves.go internal/blas/iterate.go); \
	if [ -n "$$bad" ]; then \
		echo 'lint-dispatch: type assertions below the kernel table:'; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'any\([A-Za-z0-9_.]*\.Data\)\.\(' la/*.go | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then \
		echo 'lint-dispatch: per-type switches in la:'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-dispatch: ok"

# One expert solve pipeline (internal/lapack/expert.go, rfs.go): the FACT
# switch, the condition estimate and the norm-estimator loops of the xyySVX /
# xyyCON / xyyRFS family are written once, and a second copy is what this
# target catches. In non-test internal/lapack the allowed sites are:
# `!= FactFact` — one line, in svx; `rcondFromEst(` — one call, in
# (*system).con; `Lacn2(` — one call in con (expert.go), one in
# (*system).rfs (rfs.go), and the Sylvester/eigenvector condition estimates of
# expertnonsym.go, which are not linear solves.
# The same target holds the symmetric eigensolvers to one body per storage
# format: in non-test Go outside bench/ the QL/QR iteration (Steqr) and the
# divide & conquer tree (Stevd) are called only by the two bodies that pick
# between them by order — Syev and Stev (sytrd.go) — by Stedc, by the tree's
# own leaves (stedcRec) and by f77's STEQR; a census of the calling functions
# catches a second driver body that chooses its own tridiagonal solver.
# Likewise the nonsymmetric drivers (xGEES/xGEESX/xGEEV/xGEEVX, and xGEGS/xGEGV
# above them) are one body, geev (geev.go): outside bench/ and cmd/ the
# Hessenberg reduction and the QR iteration (Gehrd, Hseqr, HseqrC) are called
# by it, by the RCONDV step that triangularises a real Schur form
# (sepPerEigenvalue, expertnonsym.go) and by f77's GEHRD — a census of the
# calling functions, as for the symmetric ones.
EIG_SITES = f77/f77ext.go:STEQR internal/lapack/dc.go:Stedc internal/lapack/dc.go:stedcRec \
	internal/lapack/sytrd.go:Stev internal/lapack/sytrd.go:Stev internal/lapack/sytrd.go:Syev internal/lapack/sytrd.go:Syev
NONSYM_SITES = f77/f77ext.go:GEHRD internal/lapack/expertnonsym.go:sepPerEigenvalue \
	internal/lapack/geev.go:geev internal/lapack/geev.go:geev internal/lapack/geev.go:geev
# And one la boundary (DESIGN "The la boundary"). Every Batch driver is one
# call of la's batch helper, which runs the single-call driver's body per
# item: a census of the functions of non-test la that call blas.BatchRange
# must read batch alone, so a hand-copied batch body — with argument checks,
# input screening and error mapping of its own that drift from the single
# call's — cannot come back. The stored-matrix rule is written once, as
# core.Stored (one definition outside bench/): no wrapper file of la or f77
# compares a Stride or leading dimension itself, and the per-wrapper checks
# it replaced (square, rhsMatch, matOK) are not declared again.
lint-once:
	@fact=$$(grep -nE '[!=]= FactFact' internal/lapack/*.go | grep -v '_test\.go:'); \
	rcond=$$(grep -n 'rcondFromEst(' internal/lapack/*.go | grep -v '_test\.go:' | grep -v 'func rcondFromEst('); \
	lacn2=$$(grep -n 'Lacn2(' internal/lapack/*.go | grep -v '_test\.go:' | grep -v '/expertnonsym\.go:' | cut -d: -f1 | tr '\n' ' '); \
	if [ $$(printf '%s\n' "$$fact" | grep -c .) -ne 1 ] || [ $$(printf '%s\n' "$$rcond" | grep -c .) -ne 1 ] \
		|| [ "$$lacn2" != "internal/lapack/expert.go internal/lapack/rfs.go " ]; then \
		echo 'lint-once: the expert pipeline has a second copy (see the allowed sites in the Makefile):'; \
		printf '%s\n%s\nLacn2 callers: %s\n' "$$fact" "$$rcond" "$$lacn2"; exit 1; \
	fi
	@sites=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs awk \
		'/^func /{f=$$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/[[(].*/, "", f)} /(^|[^A-Za-z])(Steqr|Stevd)\(/{print FILENAME ":" f}' \
		| sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$sites" != "$(strip $(EIG_SITES)) " ]; then \
		echo 'lint-once: Steqr/Stevd called outside the symmetric eigensolver bodies:'; \
		echo "$$sites"; exit 1; \
	fi
	@sites=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './cmd/*' | sort | xargs awk \
		'/^func /{f=$$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/[[(].*/, "", f)} !/^func / && /(^|[^A-Za-z])(Gehrd|Hseqr|HseqrC)\(/{print FILENAME ":" f}' \
		| sed 's|^\./||' | sort | tr '\n' ' '); \
	if [ "$$sites" != "$(strip $(NONSYM_SITES)) " ]; then \
		echo 'lint-once: Gehrd/Hseqr/HseqrC called outside the nonsymmetric eigensolver body:'; \
		echo "$$sites"; exit 1; \
	fi
	@sites=$$(ls la/*.go | grep -v '_test\.go$$' | xargs awk \
		'/^func /{f=$$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/[[(].*/, "", f)} /blas\.BatchRange\(/{print FILENAME ":" f}' | tr '\n' ' '); \
	if [ "$$sites" != "la/batch.go:batch " ]; then \
		echo 'lint-once: blas.BatchRange called in la outside the batch helper:'; \
		echo "$$sites"; exit 1; \
	fi
	@n=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench '^func Stored(' . | grep -c .); \
	bad=$$(grep -nE '(Stride|ld[a-z]*) *(<|>=) *max\(1|^func (square|rhsMatch|matOK)\[' la/*.go f77/*.go | grep -v '_test\.go:'); \
	if [ $$n -ne 1 ] || [ -n "$$bad" ]; then \
		echo "lint-once: the stored-matrix rule is defined $$n times (once, as core.Stored), or written again:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-once: ok"

# Assembly is written once (DESIGN "Assembly is written once"): the lines of
# assembly in the repository are counted, so growing them is a decision made
# here, like KNOB_ENV_MAX; and every TEXT symbol of internal/blas carries a
# `// func X(…)` comment that is, verbatim, its Go declaration in a
# *_amd64.go file, so a signature change cannot leave a stale comment behind.
ASM_MAX = 4265
lint-asm:
	@n=$$(find . -name '*.s' | xargs cat | wc -l); \
	if [ $$n -gt $(ASM_MAX) ]; then \
		echo "lint-asm: $$n lines of assembly, at most $(ASM_MAX) allowed"; exit 1; \
	fi
	@bad=$$(for f in internal/blas/*.s; do \
		for s in $$(sed -n 's/^TEXT ·\([A-Za-z0-9_]*\)(SB).*/\1/p' $$f); do \
			grep -q "^// func $$s(" $$f || echo "$$f: TEXT ·$$s has no // func comment"; \
		done; \
		grep -h '^// func ' $$f | sed 's|^// ||' | while IFS= read -r d; do \
			grep -qxF "$$d" internal/blas/*_amd64.go || echo "$$f: $$d"; \
		done; \
	done); \
	if [ -n "$$bad" ]; then \
		echo 'lint-asm: // func comments that are not a declaration of internal/blas/*_amd64.go:'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-asm: ok"

# One test harness (DESIGN "One test harness"): the lines of test code — every
# *_test.go outside bench/, plus internal/testutil/ — are counted, so growing
# them is a decision made here, like ASM_MAX; and no test file declares a flag
# but -asmparent (asmident_test.go): the suite's other flags, -golden and
# -avx2, are internal/testutil/diff's, so a sixth print flag cannot come back.
TEST_MAX = 24461
lint-tests:
	@n=$$( (find . -name '*_test.go' ! -path './bench/*'; find internal/testutil -type f ! -name '*_test.go') | xargs cat | wc -l); \
	if [ $$n -gt $(TEST_MAX) ]; then \
		echo "lint-tests: $$n lines of tests, at most $(TEST_MAX) allowed"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*_test.go' --exclude-dir=bench 'flag\.' . \
		| grep -v '^\./internal/blas/asmident_test\.go:[0-9]*:var asmParent = flag\.String("asmparent",'); \
	if [ -n "$$bad" ]; then \
		echo 'lint-tests: flags declared in test files (only -asmparent may be; see internal/testutil/diff):'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-tests: ok"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The BLAS suite again with the assembly kernels off: on AVX2 hardware plain
# `go test` only ever selects the asm rows of the kernel table
# (internal/blas/kernel.go), so this is what exercises the portable row of
# every type — including the complex fallback from 1m to the generic 4×4 —
# on every gate rather than only on machines without AVX2. The eigenvalue
# iterations run again too: their rotation and reflector kernels
# (internal/blas/iterate.go) have a portable route of their own, and so do
# the small-matrix Cholesky and LU (smallchol.go, smalllu.go: the Go steps
# under potrfSmall and getrfSmall).
test-portable:
	LA90_NO_ASM=1 $(GO) test -count=1 ./internal/blas/
	LA90_NO_ASM=1 $(GO) test -count=1 ./internal/lapack/ -run 'Steqr|Syev|Stedc|Bdsdc|Hseqr|Geev|Trevc|Orgtr|Ormtr|Potrf|Potrs|Posv|Placement|Cholesky|Getrf|Getrs|Gesv|SmallLU'

# The same two suites with the AVX-512 row of the kernel table bypassed (the
# -avx2 test flag sets faultinject.ForceAVX2 for the whole binary): on a
# machine with AVX-512 plain `go test` selects the AVX2 row only in the
# subtests that force it, so this is what runs everything else — every
# engine, leaf and golden of internal/blas and the factorizations above them
# — on the row an AVX2-only machine gets. Without AVX-512 it repeats `test`.
# The last line builds for GOAMD64=v3, where the compiler may fuse x·y − z·w:
# the Go 1m packers (the AVX2 rows') must still equal the AVX-512 rows' asm
# packers and TestRowsAgree must still hold.
test-avx2:
	$(GO) test -count=1 ./internal/blas/ -args -avx2
	$(GO) test -count=1 ./internal/lapack/ -run 'Getrf|Getrs|Gesv|SmallLU|Potrf|Potrs|Posv|Placement|Cholesky|Sytrf|Hetrf|Sysv|Hesv|BunchKaufman|Geqrf|Gels|Ormqr|Orgqr' -args -avx2
	GOAMD64=v3 $(GO) test -count=1 -run 'Pack1m|RowsAgree' ./internal/blas/

# The race run covers the threaded engine, the factorizations driving it,
# the la boundary — including the chaos tests that panic workers on purpose,
# so panic containment is itself exercised under the detector — and the
# atomic default-config store (core) plus the per-call execution-context
# tests (la/config_test.go) that churn it while drivers run. The packages
# that schedule tiles themselves run at three GOMAXPROCS values: the claiming
# scheduler (blas/parallel.go) must neither deadlock nor change a bit with
# fewer Ps than workers (-cpu 1 against Threads up to 7) or with more. The
# blas package took 225-255 s of that in two 7-9-minute `make ci` runs on a
# 2-vCPU VM, and up to 690 s on a slower run of the same VM, so it gets twice
# go test's 10-minute default.
race:
	$(GO) test -race ./internal/core/ ./internal/lapack/
	$(GO) test -race -timeout 20m -cpu 1,2,4 ./internal/blas/ ./la/

# Bounded fuzz gate: a short randomized burst per target on every CI run.
# Failures minimize into la/testdata/fuzz/ and then replay forever under
# plain `go test`, so anything fuzzsmoke shakes out stays fixed.
FUZZTIME ?= 5s
fuzzsmoke:
	$(GO) test ./la/ -fuzz='^FuzzGESV$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGESVX$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGELS$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGELSD$$' -fuzztime=$(FUZZTIME)

# Open-ended fuzzing session for one target: make fuzz TARGET=FuzzGESV
TARGET ?= FuzzGESV
fuzz:
	$(GO) test ./la/ -fuzz='^$(TARGET)$$' -fuzztime=10m

# Compile-and-run check for the benchmarks: one iteration each of the GEMM
# engine (float64 and float32, the pack-free small products with and without
# that path, the complex 1m rows, and their packers asm against Go in
# internal/blas), the factorization benchmarks (square on all four types and
# the 4096×256 QR, Cholesky, Bunch–Kaufman), the blocked-vs-unblocked
# reductions, Trsm on each leaf form, the Level-3 thread-scaling table, the
# tall GELSD driver, the D&C and QR-iteration SVD, the eigenvalue iteration
# phase with its kernels and the route sweep that sets the symmetric
# eigensolver's crossover, the Level-1/2 leaves, the per-call option overhead,
# the batched small systems and the expert-driver legs, no timing claims.
benchsmoke:
	$(GO) test -run=NONE -bench='Getrf|Gemm|Geqrf|GelsdTall|Reduce|Steqr|Stedc|Bdsdc|Hseqr|Trevc|Orgtr|Ormtr|Syevd|SymEigRoutes|Gesdd|Geev|RotSeq|Secular|ApplyOptions|Level2|Level3Parallel|Sytrf|Trsm|Potrf|PotrsSmall|GetrsSmall|PosvSmallBatch|BatchVsLoop|Example3Small|AblationExpertDriver|AblationSmallCholesky|AblationSmallLU' -benchtime=1x .
	$(GO) test -run=NONE -bench='Pack1m' -benchtime=1x ./internal/blas/

# The repository benchmark's own smoke test (bench/ is a module of its own,
# so `go test ./...` above does not reach it): every workload's op list runs
# once at reduced size and is verified, in under 5 s. A driver change that
# breaks a workload's verification fails here, before a benchmark run does.
bench-smoke:
	$(GO) -C bench test ./...

# Quick performance snapshot (see README "Performance" for the full story).
bench:
	$(GO) test -bench 'Gemm|Getrf|Potrf|Geqrf' -benchtime 5x -run '^$$' .

# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: check fmt vet lint build test race smoke bench-smoke bench-lp bench-lp-smoke bench-repair bench-repair-smoke bench-online bench-online-smoke bench-quiet bench-quiet-smoke bench-pairs same-decisions bench bench-baseline bench-compare bench-compare-short profile loc fuzz-smoke

check: fmt vet lint build test race smoke bench-smoke bench-lp-smoke bench-repair-smoke bench-online-smoke bench-quiet-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/raslint): the AST rules determinism,
# mapiter, ctxflow, floatcmp and errdrop, the call-graph rule calldeterminism,
# and the concurrency rules lockcheck (a CFG dataflow) and leakcheck.
# Exceptions need //raslint:allow <rule> <reason>; -stale fails the gate on
# allow directives that no longer suppress anything.
lint:
	$(GO) run ./cmd/raslint -stale ./...

build:
	$(GO) build ./...

# Shuffled: no test reads process-wide state, and the gate keeps it that way.
test:
	$(GO) test -shuffle=on ./...

# The race suite covers the parallel solve paths: the mip and backend tests
# exercise Workers > 1 (the branch-and-bound node pool drained by several
# workers while the root heuristics run, pop's concurrent sub-solves) under
# the race detector.
race:
	$(GO) test -race ./...

# Every fuzz target of the root module for FUZZTIME each, from its committed
# corpus on. `go test -fuzz` takes one target per run, so this loops over what
# `go test -list` finds. Not part of `make check`, which stays fast; CI runs it
# after. Minimization is capped: it would otherwise eat the budget.
FUZZTIME ?= 10s
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg fz; do \
		echo "fuzz $$pkg $$fz"; \
		$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1x $$pkg || exit 1; \
	done

# End-to-end smoke runs on a synthetic region: the parallel MIP, the
# partitioned backend (k sub-solves dividing the same worker budget), local
# search, and a multi-round simulation that must exercise both the
# model-cache patch path and — via the -grow-hour structural delta — the
# fallback rebuild path.
smoke:
	$(GO) run ./cmd/rassolve -synthetic -workers 4 -time-limit 10s >/dev/null
	$(GO) run ./cmd/rassolve -synthetic -backend pop -partitions 4 -workers 4 -time-limit 10s >/dev/null
	$(GO) run ./cmd/rassolve -synthetic -backend localsearch >/dev/null
	$(GO) run ./cmd/rassim -days 1 -dcs 2 -msbs 2 -racks 4 -servers 4 -grow-hour 6 -require-cache -q >/dev/null

# The round-loop benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, so nothing above compiles it: vet it, run its tests, and drive one
# short episode of every workload through both passes, so that a change to
# the packages it reads cannot break it unnoticed.
bench-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark . -smoke >/dev/null

# Interleaved parent/change pairs of the round-loop benchmark, the way every
# performance claim is measured (scripts/bench_pairs.sh has the procedure):
#   make bench-pairs PARENT=<rev> [W=<workload>] [N=10] [SEEDS="1 2 …"] [SECONDS=30]
# CI runs it with N=1 SECONDS=0 against HEAD itself as a plumbing check.
bench-pairs:
	@test -n "$(PARENT)" || { echo 'usage: make bench-pairs PARENT=<rev> [W=<workload>] [N=10] [SEEDS="1 2 …"] [SECONDS=30]'; exit 2; }
	bash scripts/bench_pairs.sh "$(PARENT)" "$(W)" "$(N)" "$(SEEDS)" "$(SECONDS)"

# A refactor's proof that it changed no decision (scripts/same_decisions.sh):
# one traced episode of every workload per seed on each side, and every
# per-layer metric of unit count, ratio or cost must read the same.
#   make same-decisions PARENT=<rev> [SEEDS="1 7"]
# CI runs it with PARENT=HEAD SEEDS=1 as a plumbing check.
same-decisions:
	@test -n "$(PARENT)" || { echo 'usage: make same-decisions PARENT=<rev> [SEEDS="1 7"]'; exit 2; }
	bash scripts/same_decisions.sh "$(PARENT)" "$(SEEDS)"

# The simplex kernel layer by layer on the captured RAS basis
# (internal/lp/testdata/ras_basis.json): refactorization, the two sparse-RHS
# solves, the row-wise pivot row, whole dual and primal iterations, each with
# the nonzeros it touches, and a live warm re-entry after 0, 4 and 64 changed
# bounds (ns/op, allocs/op). `make check` runs one iteration of each as a
# smoke.
KERNEL_BENCHTIME ?= 2000x
bench-lp:
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchtime $(KERNEL_BENCHTIME) ./internal/lp

bench-lp-smoke:
	@$(MAKE) --no-print-directory bench-lp KERNEL_BENCHTIME=1x >/dev/null

# The pop backend's repair pass alone (BenchmarkRepairTargets: ns/op, B/op,
# allocs/op, and the moves, steps and candidates of one pass) on merged
# assignments of the pop_cold-shaped region at k = 2 and the large region at
# k = 8, both solved in set-up. `make check` runs one iteration of each.
REPAIR_BENCHTIME ?= 20x
bench-repair:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkRepairTargets -benchtime $(REPAIR_BENCHTIME) ./internal/solver

bench-repair-smoke:
	@$(MAKE) --no-print-directory bench-repair REPAIR_BENCHTIME=1x >/dev/null

# The online path alone on the round benchmark's 1,728-server region filled
# to 60 %: BenchmarkPlace (one container placed and stopped) and
# BenchmarkApplyTargets (a quiet round's 0–4 pending moves), ns/op, B/op and
# allocs/op. `make check` runs one iteration of each.
ONLINE_BENCHTIME ?= 20000x
bench-online:
	$(GO) test -run '^$$' -bench 'BenchmarkPlace|BenchmarkApplyTargets' -benchtime $(ONLINE_BENCHTIME) ./internal/allocator ./internal/mover

bench-online-smoke:
	@$(MAKE) --no-print-directory bench-online ONLINE_BENCHTIME=1x >/dev/null

# One quiet round of solver.SolveWarm on the round benchmark's steady_quiet
# deployment (3×4×6×24, eight reservations, no shared buffer), settled in
# set-up: two free-pool servers fail and last round's come back, the models
# are patched and each phase's root LP re-enters its factorization.
# BenchmarkQuietRound reports ns/op, B/op, allocs/op and the median round
# (p50-ns/round). `make check` runs one round.
QUIET_BENCHTIME ?= 2000x
bench-quiet:
	$(GO) test -run '^$$' -bench BenchmarkQuietRound -benchtime $(QUIET_BENCHTIME) ./internal/solver

bench-quiet-smoke:
	@$(MAKE) --no-print-directory bench-quiet QUIET_BENCHTIME=1x >/dev/null

# Every benchmark of the root module once: the paper-figure benches, the
# backend comparison and the layer benches.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Record the solver benchmark baseline (the simplex kernel's layers and warm
# re-entry, the MIP's 1/2/NumCPU worker sweeps and the serial local search,
# the POP k sweep and the repair pass three times each at GOMAXPROCS=1, the
# online path's two benchmarks, the quiet round, then 20 individually timed
# rounds of BenchmarkRoundIncremental per mode for its p50 and max) as JSON.
# The raw Go benchmark lines are preserved under "benchfmt_lines"; extract
# them with jq for benchstat comparisons against a later run.
bench-baseline:
	{ $(GO) test -run '^$$' -bench BenchmarkKernel -benchtime $(KERNEL_BENCHTIME) -count 1 ./internal/lp; \
	  $(GO) test -run '^$$' -bench 'BenchmarkBackend(MIP|LocalSearch)' -benchtime 3x -count 1 .; \
	  GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkBackendPOPLarge -benchtime 3x -count 3 .; \
	  GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkRepairTargets -benchtime $(REPAIR_BENCHTIME) -count 3 ./internal/solver; \
	  $(GO) test -run '^$$' -bench 'BenchmarkPlace|BenchmarkApplyTargets' -benchtime $(ONLINE_BENCHTIME) -count 1 ./internal/allocator ./internal/mover; \
	  $(GO) test -run '^$$' -bench BenchmarkQuietRound -benchtime $(QUIET_BENCHTIME) -count 1 ./internal/solver; \
	  $(GO) test -run '^$$' -bench BenchmarkRoundIncremental -benchtime 20x -count 1 .; } \
		| $(GO) run ./cmd/benchjson > BENCH_solver.json
	@echo "wrote BENCH_solver.json"

# Diff a fresh benchmark run against the committed baseline and print
# per-metric deltas (informational: absolute numbers are machine-dependent).
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkBackend|BenchmarkRoundIncremental' -benchtime 3x -count 1 . \
		| $(GO) run ./cmd/benchjson -compare BENCH_solver.json

# CI variant: a single iteration of the serial MIP bench, still piped through
# the compare path, so the benchmarks and the diff tooling cannot rot.
bench-compare-short:
	$(GO) test -run '^$$' -bench 'BenchmarkBackendMIP' -benchtime 1x -count 1 . \
		| $(GO) run ./cmd/benchjson -compare BENCH_solver.json

# Profile one synthetic serial solve; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/rassolve -synthetic -dcs 2 -msbs 3 -reservations 4 -workers 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof >/dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# Non-test Go lines per package of the root module (the nested benchmark/
# module and lint fixtures are not product code): the number ROADMAP asks
# diet PRs to report in CHANGES.md.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

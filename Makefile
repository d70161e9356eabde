# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: check fmt vet lint build test race smoke bench-smoke bench-lp bench-lp-smoke bench-repair bench-repair-smoke bench-online bench-online-smoke bench-round bench-round-smoke bench-pairs same-decisions bench bench-baseline bench-compare bench-compare-short profile loc fuzz-smoke

check: fmt vet lint build test race smoke bench-smoke bench-lp-smoke bench-repair-smoke bench-online-smoke bench-round-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/raslint): the AST rules determinism,
# mapiter, ctxflow, floatcmp and errdrop. Exceptions need
# //raslint:allow <rule> <reason>, and an allow directive that no longer
# suppresses anything fails the gate.
lint:
	$(GO) run ./cmd/raslint ./...

build:
	$(GO) build ./...

# Shuffled: no test reads process-wide state, and the gate keeps it that way.
# The timeouts are well above the slowest package on a 2-CPU host
# (internal/experiments, 13 s alone; under -race internal/solver, 68 s, in
# `make race`'s last step), so a deadlock fails the gate in minutes;
# `make check` runs test before race.
test:
	$(GO) test -shuffle=on -timeout 2m ./...

# The race suite covers the parallel solve paths: the mip and backend tests
# exercise Workers > 1 (the branch-and-bound node pool drained by several
# workers while the root heuristics run, pop's concurrent sub-solves) under
# the race detector. One -count=1 run of these three steps on a 2-CPU host
# took 2 min 30 s: internal/solver (67 s) and internal/experiments (62 s)
# keep a 10-minute timeout; the rest run at 3 minutes, the slowest being
# internal/backend (31 s, 27 s of it TestQuietRoundsSettle), internal/lp
# (27 s), internal/lint (13 s) and internal/mip (7 s).
# The packages where a lock kept on one path hangs first (RACE_HANG: the
# broker and the packages that drive it) run alone and first, so such a hang
# fails the gate at its one 3-minute timeout, before anything else starts.
RACE_HANG := ras ras/internal/broker ras/internal/allocator ras/internal/mover
RACE_SLOW := ras/internal/solver ras/internal/experiments
race:
	$(GO) test -race -timeout 3m $(RACE_HANG)
	$(GO) test -race -timeout 3m $(filter-out $(RACE_HANG) $(RACE_SLOW),$(shell $(GO) list ./...))
	$(GO) test -race -timeout 10m $(RACE_SLOW)

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
# partitioned backend (k sub-solves dividing the same worker budget) and local
# search, each rassolve round under a -time-limit deadline, and two
# multi-round simulations, under mip and under pop, that must each exercise
# both the model-cache patch path and — via the -grow-hour structural change —
# the fallback rebuild path.
smoke:
	$(GO) run ./cmd/rassolve -synthetic -workers 4 -time-limit 10s >/dev/null
	$(GO) run ./cmd/rassolve -synthetic -backend pop -partitions 4 -workers 4 -time-limit 10s >/dev/null
	$(GO) run ./cmd/rassolve -synthetic -backend localsearch -time-limit 10s >/dev/null
	$(GO) run ./cmd/rassim -days 1 -dcs 2 -msbs 2 -racks 4 -servers 4 -grow-hour 6 -require-cache -q >/dev/null
	$(GO) run ./cmd/rassim -days 1 -dcs 2 -msbs 2 -racks 4 -servers 4 -grow-hour 6 -backend pop -partitions 2 -workers 1 -require-cache -q >/dev/null

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

# One round of solver.SolveWarm of each kind on the round benchmark's
# steady_quiet deployment (3×4×6×24, eight reservations), BenchmarkRound/…:
#   quiet    two free-pool servers fail and last round's come back: the models
#            are patched and each phase's root LP re-enters its factorization;
#   rebuild  one assigned server starts running containers, a symmetry group
#            the cached models lack: both phase models rebuild, into the
#            storage of the models they replace;
#   cold     cold_solve's round: a fresh system with 1 % of its servers
#            failed and no warm state, so branch-and-bound is the round.
# Each reports ns/op, B/op, allocs/op, lpiters/op, nodes/op, coldlps/op (LPs
# offered no basis: cold roots and the root retry dive's first LP) and the
# median round (p50-ns/round). `make check` runs one round of each.
ROUND_BENCHTIME ?= 200x
bench-round:
	$(GO) test -run '^$$' -bench '^BenchmarkRound$$' -benchtime $(ROUND_BENCHTIME) ./internal/solver

bench-round-smoke:
	@$(MAKE) --no-print-directory bench-round ROUND_BENCHTIME=1x >/dev/null

# Every benchmark of the root module once: the paper-figure benches, the
# backend comparison and the layer benches.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Record the solver benchmark baseline (the simplex kernel's layers and warm
# re-entry, the MIP's 1/2/NumCPU worker sweeps and the serial local search,
# the POP k sweep and the repair pass three times each at GOMAXPROCS=1, the
# online path's two benchmarks, the quiet, rebuild and cold rounds, then 20
# individually timed rounds of BenchmarkRoundIncremental per mode for its p50
# and max) as JSON.
# The raw Go benchmark lines are preserved under "benchfmt_lines"; extract
# them with jq for benchstat comparisons against a later run.
bench-baseline:
	{ $(GO) test -run '^$$' -bench BenchmarkKernel -benchtime $(KERNEL_BENCHTIME) -count 1 ./internal/lp; \
	  $(GO) test -run '^$$' -bench 'BenchmarkBackend(MIP|LocalSearch)' -benchtime 3x -count 1 .; \
	  GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkBackendPOPLarge -benchtime 3x -count 3 .; \
	  GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkRepairTargets -benchtime $(REPAIR_BENCHTIME) -count 3 ./internal/solver; \
	  $(GO) test -run '^$$' -bench 'BenchmarkPlace|BenchmarkApplyTargets' -benchtime $(ONLINE_BENCHTIME) -count 1 ./internal/allocator ./internal/mover; \
	  $(GO) test -run '^$$' -bench '^BenchmarkRound$$' -benchtime $(ROUND_BENCHTIME) -count 1 ./internal/solver; \
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
# diet changes to report in CHANGES.md. Then DESIGN.md's line count, which no
# change grows without retiring as much.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2
	@wc -l < DESIGN.md | awk '{ printf "%6d DESIGN.md lines\n", $$1 }'

package ras_test

// Backend benchmarks: the MIP, local-search and pop backends on a small and
// a 10× region, with worker and partition sweeps, and the multi-round
// incremental loop. The §3.5.2 design choices these regions once ablated are
// checked as tests: symmetry grouping and two-phase solving in
// internal/solver, branch-and-bound LP warm starts in internal/mip.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/localsearch"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// ablationWorkload builds the small fixed region + reservations the backend
// benches solve.
func ablationWorkload(b *testing.B) (*topology.Region, []reservation.Reservation, []broker.ServerState) {
	b.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "ablation", DCs: 2, MSBsPerDC: 3, RacksPerMSB: 6, ServersPerRack: 6, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	n := 6
	per := float64(len(region.Servers)) * 0.7 / float64(n)
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: per, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	return region, rsvs, broker.New(region).Snapshot()
}

// largeWorkload builds a region roughly 10× the ablation workload (4 DCs ×
// 6 MSBs × 9 racks × 10 servers = 2160 servers vs 216) with proportionally
// more reservations — the scale the sparse factorization kernel targets:
// basis dimensions here make a dense m×m inverse update the dominant cost,
// while the sparse LU + eta file keeps per-pivot work near the basis's
// actual fill.
func largeWorkload(b *testing.B) (*topology.Region, []reservation.Reservation, []broker.ServerState) {
	b.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "ablation-large", DCs: 4, MSBsPerDC: 6, RacksPerMSB: 9, ServersPerRack: 10, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	n := 14
	per := float64(len(region.Servers)) * 0.7 / float64(n)
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: per, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	return region, rsvs, broker.New(region).Snapshot()
}

// benchWorkerCounts are the parallelism levels every backend bench runs at:
// serial, two-way, and the full machine. Duplicates (NumCPU == 1 or 2) are
// skipped so benchstat sees each configuration once.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkBackendMIP solves the ablation workload with the MIP backend —
// the backend ReBalancer picks for RAS (§6): better placement quality,
// minutes-scale budget in production. Sub-benchmarks sweep the worker count
// (workers=1 is the exact serial solver). The node budget is sized in
// per-node LP cost: the sparse factorization kernel made nodes cheap enough
// that 180 of them fit in the wall-clock the dense kernel spent on 100,
// landing on the same 118.2 reference objective with a tighter proven gap.
func BenchmarkBackendMIP(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runBackendBench(b, "mip", backend.Config{Solver: solver.Config{
				Phase1TimeLimit: 20 * time.Second, Phase2TimeLimit: 5 * time.Second,
				MaxNodes: 180, SharedBufferFraction: -1,
			}}, w)
		})
	}
}

// BenchmarkBackendMIPLarge solves the 10× region through the same MIP
// backend path — the scenario that motivated replacing the dense basis
// inverse (see DESIGN.md "Sparse factorization"). Workers sweep as above.
func BenchmarkBackendMIPLarge(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runBackendBenchOn(b, largeWorkload, "mip", backend.Config{Solver: solver.Config{
				Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 10 * time.Second,
				MaxNodes: 100, SharedBufferFraction: -1,
			}}, w)
		})
	}
}

// BenchmarkBackendLocalSearch solves the same workload with the local-search
// backend — the one ReBalancer picks for near-realtime users like Shard
// Manager (§6): seconds-scale, slightly worse placement quality. For this
// backend the worker count is the number of independent seeded climbs.
func BenchmarkBackendLocalSearch(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runBackendBench(b, "localsearch", backend.Config{
				LocalSearch: localsearch.Config{TimeLimit: 2 * time.Second, Seed: 9},
			}, w)
		})
	}
}

// BenchmarkBackendPOPLarge is the POP-paper-style k-sweep (k ∈ {1, 2, 4,
// 8}) over the same 10× region and solver budget as BenchmarkBackendMIPLarge
// at Workers=1: the wall-clock ratio against MIPLarge/workers=1 is the
// partitioning speedup and the objective delta the allocation-quality price,
// both derived into BENCH_solver.json's pop_ksweep section by cmd/benchjson.
// Workers is pinned to 1 so the sweep isolates the sub-problem-size effect
// (each sub-MIP is the exact serial solver) and stays bit-for-bit
// deterministic; the partitioner may clamp k to the region's MSB geometry.
func BenchmarkBackendPOPLarge(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			runBackendBenchOptsOn(b, largeWorkload, "pop", backend.Config{Solver: solver.Config{
				Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 10 * time.Second,
				MaxNodes: 100, SharedBufferFraction: -1,
			}}, backend.Options{Workers: 1, Partitions: k})
		})
	}
}

// BenchmarkRoundIncremental measures the continuous-optimization steady
// state: round after round over the 10× region with a small availability
// delta between rounds. mode=patch hands the solver broker deltas so the
// cached phase models are patched in place; mode=cold withholds them, so
// every round rebuilds from scratch. Both modes apply the identical
// deterministic mutation stream, so objective/op must match; the
// buildns/op ratio between the modes is the incremental-build payoff that
// cmd/benchjson derives into BENCH_solver.json's round_incremental section.
// One slow round moves ns/op by a factor that depends on b.N, so the rounds
// are also timed one by one and reported as p50-ns/round and max-ns/round;
// the committed row is taken at -benchtime 20x (make bench-baseline).
func BenchmarkRoundIncremental(b *testing.B) {
	for _, mode := range []string{"patch", "cold"} {
		b.Run("mode="+mode, func(b *testing.B) {
			runRoundIncremental(b, mode == "patch")
		})
	}
}

func runRoundIncremental(b *testing.B, usePatch bool) {
	b.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "ablation-large", DCs: 4, MSBsPerDC: 6, RacksPerMSB: 9, ServersPerRack: 10, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	n := 14
	per := float64(len(region.Servers)) * 0.7 / float64(n)
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: per, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	br := broker.New(region)
	cfg := solver.Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 10 * time.Second,
		MaxNodes: 100, SharedBufferFraction: -1, Workers: 1,
	}

	// Warmup round: populate the model cache and settle the assignment, so
	// the timed rounds are the steady state the incremental build targets.
	states, v := br.SnapshotAt()
	res, err := solver.SolveWarm(context.Background(),
		solver.Input{Region: region, Reservations: rsvs, States: states, StatesVersion: v}, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	warm := res.Warm
	last := v
	for i, tgt := range res.Targets {
		br.SetCurrent(topology.ServerID(i), tgt)
	}
	// Settle round: the applied moves shuffle servers across symmetry
	// groups, so this round falls back to a cold rebuild (in patch mode) —
	// absorb it here so the timed rounds measure the steady state.
	states, v = br.SnapshotAt()
	in := solver.Input{Region: region, Reservations: rsvs, States: states, StatesVersion: v}
	if usePatch {
		if changed, ok := br.ChangedSince(last); ok {
			in.Delta = &solver.Delta{Since: last, Servers: changed}
		}
	}
	last = v
	if res, err = solver.SolveWarm(context.Background(), in, cfg, warm); err != nil {
		b.Fatal(err)
	}
	warm = res.Warm

	var buildNS, mipNS float64
	rounds := make([]time.Duration, 0, b.N)
	patched := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One server fails, another revives: a pure bound-flip delta.
		b.StopTimer()
		down := topology.ServerID((i * 7) % len(region.Servers))
		br.SetUnavailable(down, broker.RandomFailure, int64(i), int64(i)+1000)
		if i > 0 {
			up := topology.ServerID(((i - 1) * 7) % len(region.Servers))
			br.ClearUnavailable(up, int64(i))
		}
		states, v := br.SnapshotAt()
		in := solver.Input{Region: region, Reservations: rsvs, States: states, StatesVersion: v}
		if usePatch {
			if changed, ok := br.ChangedSince(last); ok {
				in.Delta = &solver.Delta{Since: last, Servers: changed}
			}
		}
		last = v
		b.StartTimer()
		t0 := time.Now()
		res, err := solver.SolveWarm(context.Background(), in, cfg, warm)
		if err != nil {
			b.Fatal(err)
		}
		rounds = append(rounds, time.Since(t0))
		warm = res.Warm
		for _, p := range []*solver.PhaseStats{&res.Phase1, &res.Phase2} {
			buildNS += float64(p.RASBuild + p.InitialState + p.SolverBuild)
			mipNS += float64(p.MIP)
		}
		if res.Phase1.ModelPatched {
			patched++
		}
		if i == 0 {
			b.ReportMetric(res.Phase1.Objective, "objective")
		}
	}
	if usePatch && patched == 0 {
		b.Fatal("patch mode never hit the patch path")
	}
	b.ReportMetric(buildNS/float64(b.N), "buildns/op")
	b.ReportMetric(mipNS/float64(b.N), "mipns/op")
	b.ReportMetric(float64(patched)/float64(b.N), "patchrounds/op")
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	b.ReportMetric(float64(rounds[len(rounds)/2]), "p50-ns/round")
	b.ReportMetric(float64(rounds[len(rounds)-1]), "max-ns/round")
}

// runBackendBench solves the ablation workload through the unified Backend
// interface, so both backend benches exercise the exact code path production
// callers use and report the common backend-independent metrics.
func runBackendBench(b *testing.B, name string, cfg backend.Config, workers int) {
	b.Helper()
	runBackendBenchOptsOn(b, ablationWorkload, name, cfg, backend.Options{Workers: workers})
}

// runBackendBenchOn is runBackendBench parameterized over the workload.
func runBackendBenchOn(b *testing.B, workload func(*testing.B) (*topology.Region, []reservation.Reservation, []broker.ServerState), name string, cfg backend.Config, workers int) {
	b.Helper()
	runBackendBenchOptsOn(b, workload, name, cfg, backend.Options{Workers: workers})
}

// runBackendBenchOptsOn is the fully parameterized backend bench: any
// workload, any backend, any per-solve Options (the pop k-sweep needs
// Options.Partitions alongside Workers).
func runBackendBenchOptsOn(b *testing.B, workload func(*testing.B) (*topology.Region, []reservation.Reservation, []broker.ServerState), name string, cfg backend.Config, opts backend.Options) {
	b.Helper()
	region, rsvs, states := workload(b)
	be, err := backend.New(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := be.Solve(context.Background(),
			solver.Input{Region: region, Reservations: rsvs, States: states}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status == backend.StatusNoSolution {
			b.Fatalf("backend %s: no solution", name)
		}
		if i == 0 {
			b.ReportMetric(res.Objective, "objective")
			b.ReportMetric(float64(res.Moves.InUse+res.Moves.Unused), "moves")
			if res.POP != nil {
				b.ReportMetric(float64(res.POP.Partitions), "partitions")
				b.ReportMetric(float64(res.POP.Repair.Moves()), "repairmoves")
			}
		}
	}
}

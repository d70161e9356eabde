package solver

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/partition"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// popMerge solves in the way the pop backend did before its sub-solves
// shared one budget — partition.Split into k sub-regions, one serial
// sub-solve per sub-region on its share of the demand, each with the whole
// MaxNodes — and returns the merged targets its repair pass started from.
// TestRepairMatchesReference's first 36 inputs, TestRepairAllocsBounded and
// BenchmarkRepairTargets are these merges.
func popMerge(tb testing.TB, in Input, cfg Config, k int) []reservation.ID {
	return mergeSubSolves(tb, in, k, func(int, int) Config { return cfg })
}

// seededPopMerge is what the pop backend's repair pass starts from now: the
// k serial sub-solves on shares of one budget (Config.Share at one
// sub-solve at a time), merged, then seeded (seedTargets) — the input of
// RecombineTargets' repair half.
func seededPopMerge(tb testing.TB, in Input, cfg Config, k int) []reservation.ID {
	targets := mergeSubSolves(tb, in, k, func(p, k int) Config { return cfg.Share(p, k, 1) })
	seedTargets(in, cfg, targets)
	return targets
}

// mergeSubSolves splits the region into k sub-regions, solves each serially
// on its share of the demand under cfgOf(partition, effective k), and
// merges the sub-results.
func mergeSubSolves(tb testing.TB, in Input, k int, cfgOf func(p, k int) Config) []reservation.ID {
	tb.Helper()
	plan, err := partition.Split(in.Region, in.States, k)
	if err != nil {
		tb.Fatal(err)
	}
	demands := partition.SplitDemands(in.Region, in.States, in.Reservations, plan)
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	for p := 0; p < plan.K; p++ {
		sub := Input{Region: in.Region, Reservations: demands[p], States: in.States, Subset: plan.Subsets[p]}
		res, err := SolveWarm(context.Background(), sub, cfgOf(p, plan.K), nil, 1)
		if err != nil {
			tb.Fatal(err)
		}
		for _, id := range plan.Subsets[p] {
			targets[id] = res.Targets[id]
		}
	}
	return targets
}

// benchDeployment is the round benchmark's pop_cold input: a 3×4×6×24
// region, eight count-based reservations filling 70 % of it, the default 2 %
// shared buffer, and 1 % of the servers failed.
func benchDeployment(tb testing.TB, seed int64) (Input, Config) {
	tb.Helper()
	region := testRegion(tb, 3, 4, 6, 24, seed)
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	const n = 8
	mean := len(region.Servers) * 7 / 10 / n
	var rsvs []reservation.Reservation
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: fmt.Sprintf("svc%d", i), Class: classes[i%len(classes)],
			RRUs: float64(mean + 2*i - (n - 1)), CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	in := freshInput(region, rsvs)
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < len(region.Servers)/100; j++ {
		in.States[rng.Intn(len(in.States))].Unavail = broker.RandomFailure
	}
	return in, Config{MaxNodes: 100, Phase1TimeLimit: time.Minute, Phase2TimeLimit: time.Minute}
}

// largeDeployment is BenchmarkBackendPOPLarge's input: a 4×6×9×10 region,
// fourteen equal count-based reservations filling 70 % of it, no shared
// buffer.
func largeDeployment(tb testing.TB) (Input, Config) {
	tb.Helper()
	region, err := topology.Generate(topology.GenSpec{
		Name: "ablation-large", DCs: 4, MSBsPerDC: 6, RacksPerMSB: 9, ServersPerRack: 10, Seed: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg}
	const n = 14
	var rsvs []reservation.Reservation
	for i := 0; i < n; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: float64(len(region.Servers)) * 0.7 / n, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	return freshInput(region, rsvs), Config{
		Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 10 * time.Second,
		MaxNodes: 100, SharedBufferFraction: -1,
	}
}

// mixedDeployment is a small seeded region under a random reservation mix:
// count- and rate-based rows (rateBased false keeps them all count-based),
// SingleDC and eligible-type policies, an elastic row, the shared buffer on
// or off, servers already bound to reservations, failures and maintenance,
// containers and flash wear.
func mixedDeployment(tb testing.TB, seed int64, rateBased bool) (Input, Config) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	region := testRegion(tb, 2, 2+rng.Intn(3), 3+rng.Intn(2), 4+rng.Intn(5), seed)
	nT := region.Catalog.Len()
	n := 3 + rng.Intn(4)
	fill := 0.55 + 0.2*rng.Float64()
	var rsvs []reservation.Reservation
	for i := 0; i < n; i++ {
		r := reservation.Reservation{
			ID: reservation.ID(i), Name: fmt.Sprintf("r%d", i),
			Class:      hardware.Class(rng.Intn(len(hardware.Classes()))),
			RRUs:       float64(int(fill * float64(len(region.Servers)) / float64(n))),
			CountBased: !rateBased || rng.Intn(2) == 0, Policy: reservation.DefaultPolicy(),
		}
		switch rng.Intn(5) {
		case 0:
			r.Policy.SingleDC = rng.Intn(region.NumDCs)
			r.RRUs /= 2
		case 1:
			r.EligibleTypes = []int{rng.Intn(nT), rng.Intn(nT)}
			r.RRUs /= 3
		}
		rsvs = append(rsvs, r)
	}
	rsvs = append(rsvs, reservation.Reservation{
		ID: reservation.ID(n), Name: "elastic", Class: hardware.FleetAvg, RRUs: 5, Elastic: true,
		Policy: reservation.DefaultPolicy(),
	})
	in := freshInput(region, rsvs)
	for i := range in.States {
		st := &in.States[i]
		switch x := rng.Intn(100); {
		case x < 40:
			st.Current = reservation.ID(rng.Intn(n + 1))
		case x < 43:
			st.Current = reservation.SharedBuffer
		}
		switch x := rng.Intn(100); {
		case x < 3:
			st.Unavail = broker.RandomFailure
		case x < 5:
			st.Unavail = broker.PlannedMaintenance
		}
		if st.Current >= 0 && rng.Intn(3) == 0 {
			st.Containers = 1 + rng.Intn(4)
		}
		st.FlashWear = rng.Float64()
	}
	cfg := Config{MaxNodes: 60, Phase1TimeLimit: time.Minute, Phase2TimeLimit: time.Minute,
		SharedBufferFraction: []float64{-1, 0, 0.05}[rng.Intn(3)]}
	return in, cfg
}

// repairBoth runs the reference and repairTargets on copies of the same
// merged targets and fails on any difference in targets or stats.
func repairBoth(t *testing.T, name string, in Input, cfg Config, merged []reservation.ID) RepairStats {
	t.Helper()
	want := append([]reservation.ID(nil), merged...)
	got := append([]reservation.ID(nil), merged...)
	wantStats := repairTargetsRef(in, cfg, want)
	gotStats := repairTargets(in, cfg, got)
	if gotStats != wantStats {
		t.Fatalf("%s: stats %+v, reference %+v", name, gotStats, wantStats)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: server %d targets %d, reference %d (objective %v, reference %v)", name, i,
					got[i], want[i], Evaluate(in, cfg, got).Objective, Evaluate(in, cfg, want).Objective)
			}
		}
	}
	return gotStats
}

// TestRepairMatchesReference runs real pop merges at k ∈ {2, 4, 8} through
// repairTargets and through the reference pass it replaced, and requires
// the same moves: identical targets and RepairStats, work counts included.
// The corpus is the round benchmark's pop_cold deployment plus 30 seeded
// mixes, half of them with rate-based reservations, merged as the pop
// backend did with a whole budget per sub-solve (popMerge), and the pop_cold
// deployment again as the backend merges it now (seededPopMerge).
func TestRepairMatchesReference(t *testing.T) {
	var total RepairStats
	for _, k := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			in, cfg := benchDeployment(t, seed)
			s := repairBoth(t, fmt.Sprintf("pop_cold seed %d k %d", seed, k), in, cfg, popMerge(t, in, cfg, k))
			total.Stolen += s.Stolen
			total.Steps += s.Steps
		}
	}
	for _, k := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			in, cfg := benchDeployment(t, seed)
			s := repairBoth(t, fmt.Sprintf("seeded pop_cold seed %d k %d", seed, k), in, cfg, seededPopMerge(t, in, cfg, k))
			total.Stolen += s.Stolen
			total.Steps += s.Steps
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		rate := seed%2 == 0
		in, cfg := mixedDeployment(t, seed, rate)
		k := []int{2, 4, 8}[seed%3]
		s := repairBoth(t, fmt.Sprintf("mix seed %d k %d rate-based %v", seed, k, rate), in, cfg, popMerge(t, in, cfg, k))
		total.Stolen += s.Stolen
		total.Steps += s.Steps
	}
	if total.Stolen == 0 || total.Steps == 0 {
		t.Fatalf("the corpus exercises too little of the pass: %+v", total)
	}
}

// TestRecombineIsSeedThenRepair: RecombineTargets, which seeds and repairs
// on one build of the pass, decides what seedTargets then repairTargets
// decide — the same targets and the same stats, bit for bit — on merges of
// the pop_cold deployment and of the 30 seeded mixes, rate-based ones
// included, as the pop backend merges them.
func TestRecombineIsSeedThenRepair(t *testing.T) {
	check := func(name string, in Input, cfg Config, k int) {
		merged := mergeSubSolves(t, in, k, func(p, k int) Config { return cfg.Share(p, k, 1) })
		got, want := append([]reservation.ID(nil), merged...), append([]reservation.ID(nil), merged...)
		seed, repair := RecombineTargets(in, cfg, got)
		wantSeed := seedTargets(in, cfg, want)
		wantRepair := repairTargets(in, cfg, want)
		if seed != wantSeed || repair != wantRepair {
			t.Fatalf("%s: stats %+v then %+v, seedTargets then repairTargets %+v then %+v", name, seed, repair, wantSeed, wantRepair)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: targets differ from seedTargets then repairTargets", name)
		}
	}
	for _, k := range []int{2, 4} {
		in, cfg := benchDeployment(t, 1)
		check(fmt.Sprintf("pop_cold k %d", k), in, cfg, k)
	}
	for seed := int64(1); seed <= 30; seed++ {
		in, cfg := mixedDeployment(t, seed, seed%2 == 0)
		check(fmt.Sprintf("mix seed %d", seed), in, cfg, []int{2, 4, 8}[seed%3])
	}
}

// TestRecombineReachesFixedPoint: RecombineTargets' repair settles before
// its sweep cap, and one more repair pass then applies nothing — why the
// local-search backend runs it once, with no loop. The inputs are the pop
// merges TestRecombineIsSeedThenRepair recombines, and assignments that
// start from the current bindings: the pop_cold deployment at seeds 1–3,
// the local-search cancel test's 2 304 servers and 60 reservations, and the
// 30 mixes, whose servers are partly bound already.
func TestRecombineReachesFixedPoint(t *testing.T) {
	check := func(name string, in Input, cfg Config, start []reservation.ID) {
		targets := append([]reservation.ID(nil), start...)
		RecombineTargets(in, cfg, targets)
		if st := repairTargets(in, cfg, append([]reservation.ID(nil), targets...)); st.Moves() != 0 {
			t.Fatalf("%s: a repair pass after RecombineTargets applied %d moves", name, st.Moves())
		}
		// The recombination again, step by step, to see its sweep cap.
		replay := append([]reservation.ID(nil), start...)
		c := cfg.withDefaults(in.Region)
		p := newRepairPass(&in, &c, buildSpecs(in, c), replay, true)
		p.seed()
		p.load()
		if !p.repair() {
			t.Fatalf("%s: the repair stopped at its %d-sweep cap", name, repairMaxSweeps)
		}
		if !reflect.DeepEqual(replay, targets) {
			t.Fatalf("%s: the replay decided other targets than RecombineTargets", name)
		}
	}
	current := func(in Input) []reservation.ID {
		start := make([]reservation.ID, len(in.States))
		for i := range in.States {
			start[i] = in.States[i].Current
		}
		return start
	}
	for _, k := range []int{2, 4} {
		in, cfg := benchDeployment(t, 1)
		check(fmt.Sprintf("pop_cold merge k %d", k), in, cfg, mergeSubSolves(t, in, k, func(p, k int) Config { return cfg.Share(p, k, 1) }))
	}
	for seed := int64(1); seed <= 30; seed++ {
		in, cfg := mixedDeployment(t, seed, seed%2 == 0)
		k := []int{2, 4, 8}[seed%3]
		check(fmt.Sprintf("mix seed %d merge k %d", seed, k), in, cfg, mergeSubSolves(t, in, k, func(p, k int) Config { return cfg.Share(p, k, 1) }))
		check(fmt.Sprintf("mix seed %d current", seed), in, cfg, current(in))
	}
	for seed := int64(1); seed <= 3; seed++ {
		in, cfg := benchDeployment(t, seed)
		check(fmt.Sprintf("pop_cold seed %d current", seed), in, cfg, current(in))
	}
	region := testRegion(t, 2, 3, 48, 8, 3)
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.DataStore, hardware.FleetAvg}
	var rsvs []reservation.Reservation
	for i := 0; i < 60; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: "svc", Class: classes[i%len(classes)],
			RRUs: float64(len(region.Servers)) * 0.7 / 60, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	in := freshInput(region, rsvs)
	check("local-search cancel input", in, Config{}, current(in))
}

// randomTargets is a random merged assignment: every usable server free,
// bound to a random reservation, or in the shared buffer.
func randomTargets(in Input, rng *rand.Rand) []reservation.ID {
	targets := make([]reservation.ID, len(in.Region.Servers))
	for i := range targets {
		switch x := rng.Intn(10); {
		case x < 3:
			targets[i] = reservation.Unassigned
		case x < 4:
			targets[i] = reservation.SharedBuffer
		default:
			targets[i] = in.Reservations[rng.Intn(len(in.Reservations))].ID
		}
	}
	return targets
}

// TestLessLoadTiesNearZero: an emptied MSB's load, summed in some order,
// can read 2.2e-16 where another order reads 0. The two tie, as loads of any
// size a relative 1e-9 apart do; loads a server apart do not.
func TestLessLoadTiesNearZero(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		less bool
	}{{0, 2.220446049250313e-16, false}, {2.220446049250313e-16, 0, false},
		{5.52, 5.52 * (1 + 1e-12), false}, {0, 0.25, true}, {5.27, 5.52, true}, {5.52, 5.27, false}} {
		if got := lessLoad(c.a, c.b); got != c.less {
			t.Errorf("lessLoad(%v, %v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

// FuzzRepairMatchesReference compares repairTargets with the reference
// pass on random merged assignments over random mixes, rate-based rows in
// those of even mix seed (as TestRepairMatchesReference draws them), where
// MSB loads are sums of fractional RRUs and only lessLoad's tolerance keeps
// two equal loads a tie.
func FuzzRepairMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, seed*7919)
	}
	f.Fuzz(func(t *testing.T, mix, assignment int64) {
		in, cfg := mixedDeployment(t, mix, mix%2 == 0)
		repairBoth(t, "random", in, cfg, randomTargets(in, rand.New(rand.NewSource(assignment))))
	})
}

// TestRepairAllocsBounded pins repairTargets' allocations to what it builds
// once per pass (specs, classes, bit sets, views): on the same region and
// reservations a pass costs the same allocations whether it takes one
// closing step per spec or hundreds of steps.
func TestRepairAllocsBounded(t *testing.T) {
	in, cfg := benchDeployment(t, 1)
	merged := popMerge(t, in, cfg, 2)
	settled := append([]reservation.ID(nil), merged...)
	for i := 0; i < 10 && repairTargets(in, cfg, settled).Moves() > 0; i++ {
	}
	allocs := func(start []reservation.ID) (float64, int) {
		targets := make([]reservation.ID, len(start))
		steps := 0
		n := testing.AllocsPerRun(5, func() {
			copy(targets, start)
			steps = repairTargets(in, cfg, targets).Steps
		})
		return n, steps
	}
	settledAllocs, settledSteps := allocs(settled)
	mergedAllocs, mergedSteps := allocs(merged)
	if settledSteps > 30 || mergedSteps < 200 {
		t.Fatalf("inputs no longer span the step range: %d and %d steps", settledSteps, mergedSteps)
	}
	// 74 on this input (23 specs, 12 MSBs), 47 of them buildSpecs'.
	bound := 2*len(buildSpecs(in, cfg.withDefaults(in.Region))) + 30
	if settledAllocs != mergedAllocs || mergedAllocs > float64(bound) {
		t.Fatalf("allocations per pass: %v at %d steps, %v at %d steps (want equal and ≤ %d)",
			settledAllocs, settledSteps, mergedAllocs, mergedSteps, bound)
	}
	// A recombination builds once too: what a repair pass allocates, give or
	// take a map bucket (74–75 here), where seedTargets then repairTargets
	// allocate 150.
	targets := make([]reservation.ID, len(merged))
	recombine := testing.AllocsPerRun(5, func() {
		copy(targets, merged)
		RecombineTargets(in, cfg, targets)
	})
	if recombine > mergedAllocs+2 {
		t.Fatalf("a recombination allocates %v, a repair pass %v: the seed builds its own state", recombine, mergedAllocs)
	}
}

// BenchmarkRepairTargets times the repair pass alone on two merged pop
// assignments, built deterministically in set-up: the round benchmark's
// pop_cold deployment at k = 2, and BenchmarkBackendPOPLarge's region at
// k = 8. It reports the moves and the steps and candidates scored per
// pass.
func BenchmarkRepairTargets(b *testing.B) {
	for _, c := range []struct {
		name  string
		input func(testing.TB) (Input, Config)
		k     int
	}{
		{"pop_cold/k=2", func(tb testing.TB) (Input, Config) { return benchDeployment(tb, 1) }, 2},
		{"large/k=8", largeDeployment, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			in, cfg := c.input(b)
			merged := popMerge(b, in, cfg, c.k)
			targets := make([]reservation.ID, len(merged))
			var stats RepairStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(targets, merged)
				stats = repairTargets(in, cfg, targets)
			}
			b.ReportMetric(float64(stats.Moves()), "moves")
			b.ReportMetric(float64(stats.Steps), "steps")
			b.ReportMetric(float64(stats.Candidates), "candidates")
		})
	}
}

package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ras/internal/broker"
	"ras/internal/floats"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// mutator drives a seeded random change stream through a real broker and
// reservation store — the same write paths production rounds see — so the
// deltas the tests consume come from the journal protocol, not hand-built
// fixtures.
type mutator struct {
	rng    *rand.Rand
	b      *broker.Broker
	st     *reservation.Store
	region *topology.Region
	live   []reservation.ID
	now    int64
	// created counts structural creates, cycling their policy kinds.
	created int
}

func newMutator(t *testing.T, region *topology.Region, seed int64, nRes int) *mutator {
	t.Helper()
	m := &mutator{
		rng:    rand.New(rand.NewSource(seed)),
		b:      broker.New(region),
		st:     reservation.NewStore(),
		region: region,
	}
	for i := 0; i < nRes; i++ {
		id, err := m.st.Create(m.reservationOfKind(i))
		if err != nil {
			t.Fatal(err)
		}
		m.live = append(m.live, id)
	}
	// Seed a plausible current assignment so move hinges exist, and a spread
	// of flash wear so wear-aware configs split groups by bucket.
	for i := range region.Servers {
		if i%3 != 0 {
			m.b.SetCurrent(topology.ServerID(i), m.live[i%len(m.live)])
		}
		if i%4 == 0 {
			m.b.SetContainers(topology.ServerID(i), 2)
		}
		if i%5 == 0 {
			m.b.SetFlashWear(topology.ServerID(i), 0.3*float64(i%4))
		}
	}
	return m
}

// reservationOfKind cycles through every policy kind the model has a branch
// for: default rate-based, DC affinity (own θ and default θ), SingleDC,
// count-based over the flash types only, and per-reservation spread limits.
func (m *mutator) reservationOfKind(i int) reservation.Reservation {
	classes := []hardware.Class{hardware.Web, hardware.Feed1, hardware.DataStore}
	r := reservation.Reservation{
		Name:   "res",
		Class:  classes[i%len(classes)],
		RRUs:   4 + float64(i%5)*3,
		Policy: reservation.DefaultPolicy(),
	}
	nDC := m.region.NumDCs
	switch i % 6 {
	case 1:
		r.Policy.DCAffinity = map[int]float64{0: 1}
		if nDC > 1 {
			r.Policy.DCAffinity = map[int]float64{0: 0.75, 1: 0.25}
		}
		r.Policy.AffinityTheta = 0.1
	case 2:
		r.Policy.SingleDC = i % nDC
	case 3:
		r.Class = hardware.DataStore
		r.CountBased = true
		cat := m.region.Catalog
		for ti := 0; ti < cat.Len(); ti++ {
			if cat.Type(ti).FlashTB > 0 {
				r.EligibleTypes = append(r.EligibleTypes, ti)
			}
		}
	case 4:
		r.Policy.SpreadMSB = 0.5
		r.Policy.SpreadRack = 0.25
	case 5:
		r.Policy.DCAffinity = map[int]float64{nDC - 1: 1}
	}
	return r
}

// step applies 1–3 random non-structural mutations (fail, revive, resize —
// now and then to zero, container churn, rebinding, flash wear). When
// structural is true it also creates and/or deletes a reservation, which must
// force a fallback rebuild.
func (m *mutator) step(structural bool) {
	m.now++
	n := 1 + m.rng.Intn(3)
	for i := 0; i < n; i++ {
		id := topology.ServerID(m.rng.Intn(len(m.region.Servers)))
		switch m.rng.Intn(6) {
		case 0:
			m.b.SetUnavailable(id, broker.RandomFailure, m.now, m.now+1000)
		case 1:
			m.b.ClearUnavailable(id, m.now)
		case 2:
			res := m.live[m.rng.Intn(len(m.live))]
			rrus := 2 + float64(m.rng.Intn(12))
			if m.rng.Intn(8) == 0 {
				rrus = 0
			}
			_ = m.st.Resize(res, rrus)
		case 3:
			if m.b.State(id).Containers > 0 {
				m.b.SetContainers(id, 0)
			} else {
				m.b.SetContainers(id, 2)
			}
		case 4:
			m.b.SetCurrent(id, m.live[m.rng.Intn(len(m.live))])
		case 5:
			m.b.SetFlashWear(id, m.rng.Float64())
		}
	}
	if structural {
		// 0: delete, 1: create, 2: both (same spec count, different identity).
		op := m.rng.Intn(3)
		if op != 1 && len(m.live) > 2 {
			k := m.rng.Intn(len(m.live))
			_ = m.st.Delete(m.live[k])
			m.live = append(m.live[:k], m.live[k+1:]...)
		}
		if op != 0 {
			m.created++
			r := m.reservationOfKind(m.created)
			r.Name = "grown"
			if id, err := m.st.Create(r); err == nil {
				m.live = append(m.live, id)
			}
		}
	}
}

// deltaTracker mirrors ras.System's snapshot/delta bookkeeping.
type deltaTracker struct {
	lastStates uint64
	lastStore  int
	have       bool
}

func (dt *deltaTracker) input(m *mutator, withDelta bool) (Input, func()) {
	storeV := m.st.Version()
	states, v := m.b.SnapshotAt()
	in := Input{Region: m.region, Reservations: m.st.All(), States: states, StatesVersion: v}
	if withDelta && dt.have {
		if changed, ok := m.b.ChangedSince(dt.lastStates); ok {
			in.Delta = &Delta{
				Since:        dt.lastStates,
				Servers:      changed,
				Reservations: m.st.ChangesSince(dt.lastStore),
			}
		}
	}
	return in, func() { dt.lastStates = v; dt.lastStore = storeV; dt.have = true }
}

// patchPhase is one kind of phase model the patch property runs on.
type patchPhase struct {
	name      string
	rackLevel bool
	buffer    float64 // SharedBufferFraction
	wear      float64 // WearPenalty
}

// patchPhases are phase 1, phase 1 with the shared buffer and wear buckets,
// and the rack-level model.
var patchPhases = []patchPhase{
	{"phase1", false, -1, 0},
	{"phase1-buffer", false, 0.02, 2},
	{"rack", true, -1, 2},
}

// patchRounds runs rounds of m's mutation stream through one cached model of
// kind pk — a round is structural (a reservation created and/or deleted) when
// structural says so — and requires every round whose delta patches to be
// bit-for-bit identical to a cold rebuild of the same input: model
// fingerprint, group structure, and initial counts. It tallies why the other
// rounds fell back into reasons and returns both counts.
func patchRounds(t *testing.T, region *topology.Region, m *mutator, pk patchPhase, rounds int,
	structural func(round int) bool, reasons *[NumRebuildReasons]int) (patches, fallbacks int) {
	t.Helper()
	cfg := fastCfg()
	cfg.SharedBufferFraction = pk.buffer
	cfg.WearPenalty = pk.wear
	cfg = cfg.withDefaults(region)

	var cached *builtPhase
	for round := 0; round < rounds; round++ {
		if round > 0 {
			m.step(structural(round))
		}
		states, v := m.b.SnapshotAt()
		in := Input{Region: region, Reservations: m.st.All(), States: states, StatesVersion: v}
		specs := buildSpecs(in, cfg)
		pool := usableServers(in)
		targets := fixtureTargets(states, pk.rackLevel)

		var cold PhaseStats
		want := buildPhase(in, cfg, specs, pool, targets, pk.rackLevel, &cold)
		if cached != nil {
			why := cached.patch(in, cfg, specs, pool, targets)
			reasons[why]++
			if why == RebuildNone {
				patches++
				if got, w := cached.m.Fingerprint(), want.m.Fingerprint(); got != w {
					t.Fatalf("round %d: patched fingerprint %x != cold %x", round, got, w)
				}
				compareStructure(t, round, cached, want)
				// Keep solving on the patched model to mimic real use.
			} else {
				fallbacks++
				cached = want
			}
		} else {
			cached = want
		}
		cached.statesVersion = v
	}
	return patches, fallbacks
}

// TestPatchMatchesColdRebuild is the core incremental-build property: after
// every random delta, a cache patched in place must be bit-for-bit identical
// to a cold rebuild of the same input — model fingerprint, group structure,
// and initial counts. Rounds whose delta breaks structure must report so via
// patch() != RebuildNone rather than produce a wrong model, and across the
// three streams every reason a mutation stream can cause must fire
// (TestRebuildReasonsOffStream covers the rest).
func TestPatchMatchesColdRebuild(t *testing.T) {
	var reasons [NumRebuildReasons]int
	defer func() {
		for _, r := range []RebuildReason{RebuildSpecCount, RebuildSpecShape, RebuildSpecActivation,
			RebuildNewGroup, RebuildEmptyGroup, RebuildCutSlope} {
			if reasons[r] == 0 && !t.Failed() {
				t.Errorf("mutation streams never caused a %v rebuild (tally %v)", r, reasons)
			}
		}
	}()
	for _, pk := range patchPhases {
		t.Run(pk.name, func(t *testing.T) {
			region := testRegion(t, 2, 2, 4, 12, 41)
			m := newMutator(t, region, 42, 6)
			patches, fallbacks := patchRounds(t, region, m, pk, 40, func(round int) bool { return round%7 == 3 }, &reasons)
			if patches == 0 {
				t.Fatal("mutation stream never produced a patchable round")
			}
			if fallbacks == 0 {
				t.Fatal("mutation stream never produced a fallback round")
			}
			t.Logf("%s: %d patches, %d fallbacks", pk.name, patches, fallbacks)
		})
	}
}

// FuzzPatchMatchesRebuild is TestPatchMatchesColdRebuild's property for any
// mutation stream: the fuzz bytes pick the mutator's seed, the phase kind
// (patchPhases) and the structural cadence — every cadence-th round creates
// and/or deletes a reservation, none when it is zero — and every patched
// round must match a cold rebuild's fingerprint and structure.
func FuzzPatchMatchesRebuild(f *testing.F) {
	f.Add(int64(42), byte(0), byte(7))
	f.Add(int64(42), byte(1), byte(7))
	f.Add(int64(42), byte(2), byte(7))
	f.Add(int64(3), byte(2), byte(2)) // rack level, structural every other round
	f.Add(int64(9), byte(1), byte(0)) // buffer and wear, never structural

	region := testRegion(f, 2, 2, 4, 12, 41)
	f.Fuzz(func(t *testing.T, seed int64, kind, cadence byte) {
		every := int(cadence % 9)
		var reasons [NumRebuildReasons]int
		m := newMutator(t, region, seed, 6)
		patchRounds(t, region, m, patchPhases[int(kind)%len(patchPhases)], 24,
			func(round int) bool { return every > 0 && round%every == 0 }, &reasons)
	})
}

// fixtureTargets stands in for phase-1 output: all Unassigned in phase 1; at
// rack level every other usable server keeps its current reservation, so
// rack-level initial counts and move hinges exist.
func fixtureTargets(states []broker.ServerState, rackLevel bool) []reservation.ID {
	targets := make([]reservation.ID, len(states))
	for i := range targets {
		targets[i] = reservation.Unassigned
		if rackLevel && i%2 == 0 && !unusable(&states[i]) {
			targets[i] = states[i].Current
		}
	}
	return targets
}

func compareStructure(t *testing.T, round int, got, want *builtPhase) {
	t.Helper()
	if len(got.groups) != len(want.groups) {
		t.Fatalf("round %d: %d groups != cold %d", round, len(got.groups), len(want.groups))
	}
	for gi := range got.groups {
		a, b := got.groups[gi], want.groups[gi]
		if a.typeIdx != b.typeIdx || a.msb != b.msb || a.dc != b.dc || a.rack != b.rack ||
			a.cur != b.cur || a.inUse != b.inUse || a.wear != b.wear {
			t.Fatalf("round %d: group %d metadata diverged: %+v vs %+v", round, gi, a, b)
		}
		if len(a.servers) != len(b.servers) {
			t.Fatalf("round %d: group %d has %d servers, cold %d", round, gi, len(a.servers), len(b.servers))
		}
		for k := range a.servers {
			if a.servers[k] != b.servers[k] {
				t.Fatalf("round %d: group %d member %d: %d vs %d", round, gi, k, a.servers[k], b.servers[k])
			}
		}
		for si := range got.specs {
			if !floats.ExactEqual(got.initCount[gi][si], want.initCount[gi][si]) {
				t.Fatalf("round %d: initCount[%d][%d] = %v, cold %v",
					round, gi, si, got.initCount[gi][si], want.initCount[gi][si])
			}
		}
	}
}

// TestIncrementalSolveEquivalence runs two full SolveWarm sequences over the
// same mutation stream — one handing the solver deltas (patching), one not
// (rebuilding every round) — and requires identical targets and move
// accounting and equal objectives every round at Workers=1, plus at least one
// patched and one fallback round so both paths are actually exercised. The
// objectives are compared to 1e-9 relative: a patched round's root LP re-enters
// the factorization the last round left, a rebuilt round's refactorizes, and
// the two can differ in the last bit of a sum.
func TestIncrementalSolveEquivalence(t *testing.T) {
	region := testRegion(t, 2, 2, 3, 5, 43)
	mA := newMutator(t, region, 45, 5)
	mB := newMutator(t, region, 45, 5)

	cfg := fastCfg()
	cfg.Workers = 1

	var dtA, dtB deltaTracker
	var warmA, warmB *WarmState

	patchedRounds, fallbackRounds := 0, 0
	for round := 0; round < 12; round++ {
		if round > 0 {
			mA.step(round == 6)
			mB.step(round == 6)
		}
		inA, commitA := dtA.input(mA, true)
		inB, commitB := dtB.input(mB, false)

		resA, err := SolveWarm(context.Background(), inA, cfg, warmA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := SolveWarm(context.Background(), inB, cfg, warmB)
		if err != nil {
			t.Fatal(err)
		}
		commitA()
		commitB()
		warmA, warmB = resA.Warm, resB.Warm

		if resA.Phase1.ModelPatched {
			patchedRounds++
		}
		if resA.Phase1.Rebuild > RebuildNoCache {
			fallbackRounds++
		}
		if resB.Phase1.ModelPatched || resB.Phase1.Rebuild != RebuildNone {
			t.Fatalf("round %d: the delta-less sequence reports patched=%v rebuild=%v",
				round, resB.Phase1.ModelPatched, resB.Phase1.Rebuild)
		}
		for k, obj := range [2][2]float64{{resA.Phase1.Objective, resB.Phase1.Objective}, {resA.Phase2.Objective, resB.Phase2.Objective}} {
			if d := math.Abs(obj[0] - obj[1]); d > 1e-9*(1+math.Abs(obj[1])) {
				t.Fatalf("round %d: phase-%d objective %v (delta) != %v (cold)", round, k+1, obj[0], obj[1])
			}
		}
		if resA.Moves != resB.Moves {
			t.Fatalf("round %d: moves %+v (delta) != %+v (cold)", round, resA.Moves, resB.Moves)
		}
		for i := range resA.Targets {
			if resA.Targets[i] != resB.Targets[i] {
				t.Fatalf("round %d: target[%d] = %d (delta) != %d (cold)",
					round, i, resA.Targets[i], resB.Targets[i])
			}
		}
		// Both sequences must apply their targets the same way so the next
		// round's Current matches.
		for i, tgt := range resA.Targets {
			if mA.b.State(topology.ServerID(i)).Current != tgt && !unusable(ptrState(mA.b, i)) {
				mA.b.SetCurrent(topology.ServerID(i), tgt)
			}
			if mB.b.State(topology.ServerID(i)).Current != resB.Targets[i] && !unusable(ptrState(mB.b, i)) {
				mB.b.SetCurrent(topology.ServerID(i), resB.Targets[i])
			}
		}
	}
	if patchedRounds == 0 {
		t.Fatal("no round used the patch path")
	}
	if fallbackRounds == 0 {
		t.Fatal("no round fell back to a rebuild (structural round missing)")
	}
	t.Logf("patched rounds: %d, fallback rounds: %d", patchedRounds, fallbackRounds)
}

func ptrState(b *broker.Broker, i int) *broker.ServerState {
	st := b.State(topology.ServerID(i))
	return &st
}

// TestParallelColdBuildDeterministic: the cold build is a pure function of
// its inputs — the same input produces fingerprint-identical models at every
// worker count.
func TestParallelColdBuildDeterministic(t *testing.T) {
	region := testRegion(t, 2, 2, 8, 16, 45)
	m := newMutator(t, region, 46, 8)
	states, v := m.b.SnapshotAt()
	in := Input{Region: region, Reservations: m.st.All(), States: states, StatesVersion: v}

	base := fastCfg()
	targetsFor := func() []reservation.ID {
		targets := make([]reservation.ID, len(region.Servers))
		for i := range targets {
			targets[i] = reservation.Unassigned
		}
		return targets
	}

	var fp1 uint64
	for _, workers := range []int{1, 2, 4} {
		cfg := base
		cfg.Workers = workers
		cfg = cfg.withDefaults(region)
		specs := buildSpecs(in, cfg)
		pool := usableServers(in)
		var stats PhaseStats
		bp := buildPhase(in, cfg, specs, pool, targetsFor(), false, &stats)
		fp := bp.m.Fingerprint()
		if workers == 1 {
			fp1 = fp
		} else if fp != fp1 {
			t.Fatalf("workers=%d fingerprint %x != workers=1 %x", workers, fp, fp1)
		}
	}
}

// TestPatchRepeatDeterministic re-runs an identical patch sequence and
// requires bitwise-identical fingerprints run over run.
func TestPatchRepeatDeterministic(t *testing.T) {
	run := func() []uint64 {
		region := testRegion(t, 1, 2, 4, 6, 47)
		m := newMutator(t, region, 48, 5)
		cfg := fastCfg().withDefaults(region)
		var fps []uint64
		var cached *builtPhase
		for round := 0; round < 15; round++ {
			if round > 0 {
				m.step(false)
			}
			states, v := m.b.SnapshotAt()
			in := Input{Region: region, Reservations: m.st.All(), States: states, StatesVersion: v}
			specs := buildSpecs(in, cfg)
			pool := usableServers(in)
			targets := make([]reservation.ID, len(region.Servers))
			for i := range targets {
				targets[i] = reservation.Unassigned
			}
			if cached == nil || cached.patch(in, cfg, specs, pool, targets) != RebuildNone {
				var stats PhaseStats
				cached = buildPhase(in, cfg, specs, pool, targets, false, &stats)
			}
			fps = append(fps, cached.m.Fingerprint())
		}
		return fps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d fingerprint differs across runs: %x vs %x", i, a[i], b[i])
		}
	}
}

// TestPatchedModelSolves sanity-checks that a patched model actually solves
// and realizes a consistent assignment (capacity served, no overcounting).
func TestPatchedModelSolves(t *testing.T) {
	region := testRegion(t, 1, 2, 4, 8, 49)
	m := newMutator(t, region, 50, 4)
	cfg := fastCfg()
	cfg.Workers = 1
	var dt deltaTracker
	var warm *WarmState
	for round := 0; round < 6; round++ {
		if round > 0 {
			m.step(false)
		}
		in, commit := dt.input(m, true)
		res, err := SolveWarm(context.Background(), in, cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		commit()
		warm = res.Warm
		for _, r := range in.Reservations {
			got := rruOf(region, res.Targets, &r)
			if got+res.Phase1.SoftSlack+math.SmallestNonzeroFloat64 < r.RRUs &&
				res.Phase1.SoftSlack == 0 {
				t.Fatalf("round %d: reservation %d got %.1f of %.1f RRUs with no slack",
					round, r.ID, got, r.RRUs)
			}
		}
	}
}

// TestRebuildReasonsForced fires, on purpose, the rebuild reasons a mutation
// stream over one phase's patch cannot reach: a changed config or scope, a
// corrupted cache, a rack-level hinge flip (phase 1 groups by Current, so
// there a cell's X only reaches zero with its group), and the two reasons
// solvePhase decides before patch runs.
func TestRebuildReasonsForced(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 12, 51)
	m := newMutator(t, region, 52, 6)
	cfg := fastCfg().withDefaults(region)
	states, v := m.b.SnapshotAt()
	in := Input{Region: region, Reservations: m.st.All(), States: states, StatesVersion: v}
	specs := buildSpecs(in, cfg)
	pool := usableServers(in)
	unassigned := fixtureTargets(states, false)
	build := func(rackLevel bool) *builtPhase {
		var stats PhaseStats
		return buildPhase(in, cfg, specs, pool, unassigned, rackLevel, &stats)
	}
	expect := func(name string, got, want RebuildReason) {
		t.Helper()
		if got != want {
			t.Errorf("%s: rebuild reason %v, want %v", name, got, want)
		}
	}

	expect("unchanged input", build(false).patch(in, cfg, specs, pool, unassigned), RebuildNone)

	cfg2 := cfg
	cfg2.Beta++
	expect("config", build(false).patch(in, cfg2, buildSpecs(in, cfg2), pool, unassigned), RebuildConfig)

	in2 := in
	in2.Subset = pool[:len(pool)/2]
	expect("scope", build(false).patch(in2, cfg, specs, in2.Subset, unassigned), RebuildScope)

	// A pooled server whose state changed but whose group the cache forgot.
	moved := pool[0]
	in3 := in
	in3.States = append([]broker.ServerState(nil), states...)
	in3.States[moved].Containers++
	bp := build(false)
	bp.serverGroup[moved] = -1
	expect("corrupt cache", bp.patch(in3, cfg, specs, pool, unassigned), RebuildCacheCorrupt)

	// Rack level: every X is zero under all-Unassigned targets, so targeting
	// one bound server at its own reservation makes a hinge appear.
	targets := append([]reservation.ID(nil), unassigned...)
	for _, id := range pool {
		if cur := states[id].Current; cur != reservation.Unassigned {
			targets[id] = cur
			break
		}
	}
	expect("hinge", build(true).patch(in, cfg, specs, pool, targets), RebuildHinge)

	// solvePhase's own reasons, through the public entry point.
	cfg.SetupOnly = true
	var dt deltaTracker
	in0, commit := dt.input(m, true)
	res0, err := SolveWarm(context.Background(), in0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	commit()
	expect("no delta", res0.Phase1.Rebuild, RebuildNone)
	m.step(true)
	in1, _ := dt.input(m, true)
	res1, err := SolveWarm(context.Background(), in1, cfg, res0.Warm)
	if err != nil {
		t.Fatal(err)
	}
	expect("create/delete", res1.Phase1.Rebuild, RebuildReservationSet)
	res2, err := SolveWarm(context.Background(), in1, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	expect("delta without a cache", res2.Phase1.Rebuild, RebuildNoCache)
}

// TestPhaseWarmCarriesModel pins what a phase's warm state holds across the
// rounds that export no basis: a SetupOnly round keeps its model (the next
// round patches it), a round that skips the rack phase hands the rack
// model on untouched, and a hand-assembled PhaseWarm with a basis but no
// model builds cold and offers the basis without keeping it.
func TestPhaseWarmCarriesModel(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 12, 61)
	m := newMutator(t, region, 62, 5)
	var dt deltaTracker
	solve := func(cfg Config, warm *WarmState) *Result {
		t.Helper()
		in, commit := dt.input(m, true)
		res, err := SolveWarm(context.Background(), in, cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		commit()
		return res
	}

	setup := fastCfg()
	setup.SetupOnly = true
	res0 := solve(setup, nil)
	if res0.Warm.Phase1.Basis != nil || res0.Warm.Phase1.model == nil {
		t.Fatalf("SetupOnly round exported basis %v, model %v; want no basis and its model", res0.Warm.Phase1.Basis, res0.Warm.Phase1.model)
	}
	m.step(false)
	if res := solve(setup, res0.Warm); !res.Phase1.ModelPatched {
		t.Fatalf("round after a SetupOnly round rebuilt phase 1 (%v), want the kept model patched", res.Phase1.Rebuild)
	}
	res1 := solve(fastCfg(), nil)
	if !res1.RanPhase2 {
		t.Skip("the rack phase did not run on this region")
	}

	noRack := fastCfg()
	noRack.DisableRackPhase = true
	res2 := solve(noRack, res1.Warm)
	if res2.RanPhase2 || res2.Warm.Phase2.model != res1.Warm.Phase2.model || res2.Warm.Phase2.Basis != nil {
		t.Fatal("a round without the rack phase must hand the rack model on, without a basis")
	}

	m.step(false)
	in, _ := dt.input(m, true)
	hand, err := SolveWarm(context.Background(), in, fastCfg(), &WarmState{Phase1: PhaseWarm{Basis: res1.Warm.Phase1.Basis}})
	if err != nil {
		t.Fatal(err)
	}
	if p := hand.Phase1; p.Rebuild != RebuildNoCache || p.RootBasisOffered == 0 || p.RootBasisKept != 0 {
		t.Fatalf("hand-assembled PhaseWarm: rebuild %v, basis offered %d kept %d; want no-cache, offered, none kept",
			p.Rebuild, p.RootBasisOffered, p.RootBasisKept)
	}
}

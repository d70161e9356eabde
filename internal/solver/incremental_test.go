package solver

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ras/internal/broker"
	"ras/internal/floats"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// buildPhase runs the cold path into new storage, as a first round does.
func buildPhase(in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID, rackLevel bool, stats *PhaseStats) *builtPhase {
	return new(builtPhase).rebuild(in, cfg, specs, pool, targets, rackLevel, stats)
}

// mutator drives a seeded random change stream through a real broker and
// reservation store — the same write paths production rounds see — so the
// snapshots and deltas the tests consume come from those write paths, not
// hand-built fixtures.
type mutator struct {
	rng    *rand.Rand
	unread *rand.Rand // drives the writes the model does not read
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
		unread: rand.New(rand.NewSource(^seed)),
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
// now and then to zero, container churn, rebinding, flash wear, and writes
// the model does not read: one more container on a busy server, a target,
// a failure re-reported with a later end). When structural is true it also
// creates and/or deletes a reservation, which must force a fallback rebuild.
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
	// The unread writes draw from their own stream, so they leave the
	// mutations above — and the cold models of every fixture built on
	// them — as they were.
	id := topology.ServerID(m.unread.Intn(len(m.region.Servers)))
	switch m.unread.Intn(3) {
	case 0:
		if j, ok := m.find(id, func(st broker.ServerState) bool { return st.Containers == 2 }); ok {
			m.b.SetContainers(j, 3)
		}
	case 1:
		m.b.SetTarget(id, m.live[m.unread.Intn(len(m.live))])
	case 2:
		if j, ok := m.find(id, func(st broker.ServerState) bool { return st.Unavail != broker.Available }); ok {
			st := m.b.State(j)
			m.b.SetUnavailable(j, st.Unavail, m.now, st.UnavailEnd+1)
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

// find returns the first server from id on, wrapping around, whose state
// pick accepts.
func (m *mutator) find(id topology.ServerID, pick func(broker.ServerState) bool) (topology.ServerID, bool) {
	n := len(m.region.Servers)
	for k := 0; k < n; k++ {
		j := topology.ServerID((int(id) + k) % n)
		if pick(m.b.State(j)) {
			return j, true
		}
	}
	return 0, false
}

// input snapshots the broker and the store into the next round's input.
func (m *mutator) input() Input {
	return Input{Region: m.region, Reservations: m.st.All(), States: m.b.Snapshot()}
}

// forceRebuild spoils the config every model warm holds recorded, so the
// next solve rebuilds each phase (RebuildConfig) where it would patch — and
// carries the basis and workspace over as any rebuild does.
func forceRebuild(warm *WarmState) {
	for _, pw := range []*PhaseWarm{&warm.Phase1, &warm.Phase2} {
		if pw.model != nil {
			pw.model.cfg = Config{}
		}
	}
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

// patchRounds runs rounds of m's mutation stream through cached models of
// kind pk — a round is structural (a reservation created and/or deleted) when
// structural says so — and requires every patch that succeeds to be
// bit-for-bit identical to a cold rebuild of the same input: model
// fingerprint, group structure, and initial counts. Two caches follow the
// stream: one brought forward every round, and one after one, two and three
// skipped rounds in turn, as a rack phase's is after rounds that ran without
// it. It tallies why the other patches fell back into reasons and returns
// both counts.
func patchRounds(t *testing.T, region *topology.Region, m *mutator, pk patchPhase, rounds int,
	structural func(round int) bool, reasons *[NumRebuildReasons]int) (patches, fallbacks int) {
	t.Helper()
	cfg := fastCfg()
	cfg.SharedBufferFraction = pk.buffer
	cfg.WearPenalty = pk.wear
	cfg = cfg.withDefaults(region)

	forward := func(cached *builtPhase, round int, in Input) *builtPhase {
		specs := buildSpecs(in, cfg)
		pool := usableServers(in)
		targets := fixtureTargets(in.States, pk.rackLevel)
		var cold PhaseStats
		want := buildPhase(in, cfg, specs, pool, targets, pk.rackLevel, &cold)
		if cached == nil {
			return want
		}
		why := cached.patch(in, cfg, specs, pool, targets)
		reasons[why]++
		if why != RebuildNone {
			fallbacks++
			return want
		}
		patches++
		if got, w := cached.m.Fingerprint(), want.m.Fingerprint(); got != w {
			t.Fatalf("round %d: patched fingerprint %x != cold %x", round, got, w)
		}
		compareStructure(t, round, cached, want)
		return cached
	}
	var fresh, stale *builtPhase
	next, skips := 0, 0 // the round the stale cache is brought forward at
	for round := 0; round < rounds; round++ {
		if round > 0 {
			m.step(structural(round))
		}
		in := m.input()
		fresh = forward(fresh, round, in)
		if round == next {
			stale = forward(stale, round, in)
			next = round + 2 + skips%3
			skips++
		}
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
		if rackLevel && i%2 == 0 && states[i].Usable() {
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
		if a.key != b.key || a.msb != b.msb || a.dc != b.dc || a.rack != b.rack {
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
// same mutation stream — one patching whatever model its warm state holds,
// one forced to rebuild every phase every round (forceRebuild) — and
// requires identical targets and move accounting and equal objectives every
// round at Workers=1, plus at least one patched and one fallback round so
// both paths are actually exercised. Every phase that ran must report
// ModelPatched exactly when its rebuild reason is RebuildNone. The
// objectives are compared to 1e-9 relative: a patched round's root LP
// re-enters the factorization the last round left, a rebuilt round's
// refactorizes, and the two can differ in the last bit of a sum.
func TestIncrementalSolveEquivalence(t *testing.T) {
	region := testRegion(t, 2, 2, 3, 5, 43)
	mA := newMutator(t, region, 45, 5)
	mB := newMutator(t, region, 45, 5)

	cfg := fastCfg()
	cfg.Workers = 1

	var warmA, warmB *WarmState
	patchedRounds, fallbackRounds := 0, 0
	for round := 0; round < 12; round++ {
		if round > 0 {
			mA.step(round == 6)
			mB.step(round == 6)
			forceRebuild(warmB)
		}
		inA, inB := mA.input(), mB.input()

		resA, err := SolveWarm(context.Background(), inA, cfg, warmA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := SolveWarm(context.Background(), inB, cfg, warmB)
		if err != nil {
			t.Fatal(err)
		}
		warmA, warmB = resA.Warm, resB.Warm

		for _, res := range []*Result{resA, resB} {
			phases := []*PhaseStats{&res.Phase1}
			if res.RanPhase2 {
				phases = append(phases, &res.Phase2)
			}
			for k, ph := range phases {
				if ph.ModelPatched != (ph.Rebuild == RebuildNone) {
					t.Fatalf("round %d phase %d: patched %v with rebuild reason %v", round, k+1, ph.ModelPatched, ph.Rebuild)
				}
			}
		}
		if resB.Phase1.ModelPatched || resB.Phase2.ModelPatched {
			t.Fatalf("round %d: the forced-rebuild sequence patched", round)
		}
		if resA.Phase1.ModelPatched {
			patchedRounds++
		}
		if resA.Phase1.Rebuild > RebuildNoCache {
			fallbackRounds++
		}
		for k, obj := range [2][2]float64{{resA.Phase1.Objective, resB.Phase1.Objective}, {resA.Phase2.Objective, resB.Phase2.Objective}} {
			if d := math.Abs(obj[0] - obj[1]); d > 1e-9*(1+math.Abs(obj[1])) {
				t.Fatalf("round %d: phase-%d objective %v (patched) != %v (rebuilt)", round, k+1, obj[0], obj[1])
			}
		}
		if resA.Moves != resB.Moves {
			t.Fatalf("round %d: moves %+v (patched) != %+v (rebuilt)", round, resA.Moves, resB.Moves)
		}
		for i := range resA.Targets {
			if resA.Targets[i] != resB.Targets[i] {
				t.Fatalf("round %d: target[%d] = %d (patched) != %d (rebuilt)",
					round, i, resA.Targets[i], resB.Targets[i])
			}
		}
		// Both sequences must apply their targets the same way so the next
		// round's Current matches.
		for i, tgt := range resA.Targets {
			if mA.b.State(topology.ServerID(i)).Current != tgt && ptrState(mA.b, i).Usable() {
				mA.b.SetCurrent(topology.ServerID(i), tgt)
			}
			if mB.b.State(topology.ServerID(i)).Current != resB.Targets[i] && ptrState(mB.b, i).Usable() {
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
	in := m.input()

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
			in := m.input()
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
	var warm *WarmState
	for round := 0; round < 6; round++ {
		if round > 0 {
			m.step(false)
		}
		in := m.input()
		res, err := SolveWarm(context.Background(), in, cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
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
// there a cell's X only reaches zero with its group), the one reason
// solvePhase decides before patch runs, and what a reservation created or
// deleted reports through it.
func TestRebuildReasonsForced(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 12, 51)
	m := newMutator(t, region, 52, 6)
	cfg := fastCfg().withDefaults(region)
	in := m.input()
	states := in.States
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

	// Through the public entry point: no model to patch, then a reservation
	// created (one spec more) and one deleted as another is created (as
	// many specs, one of them another reservation).
	cfg.SetupOnly = true
	solve := func(warm *WarmState) *Result {
		t.Helper()
		res, err := SolveWarm(context.Background(), m.input(), cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := solve(nil)
	expect("no cache", res.Phase1.Rebuild, RebuildNoCache)
	grown, err := m.st.Create(m.reservationOfKind(0))
	if err != nil {
		t.Fatal(err)
	}
	res = solve(res.Warm)
	expect("create", res.Phase1.Rebuild, RebuildSpecCount)
	if err := m.st.Delete(m.live[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.st.Create(m.reservationOfKind(1)); err != nil {
		t.Fatal(err)
	}
	res = solve(res.Warm)
	expect("delete and create", res.Phase1.Rebuild, RebuildSpecShape)
	if err := m.st.Delete(grown); err != nil {
		t.Fatal(err)
	}
	res = solve(res.Warm)
	expect("delete", res.Phase1.Rebuild, RebuildSpecCount)
}

// TestPhaseWarmCarriesModel pins what a phase's warm state holds across the
// rounds that export no basis: a SetupOnly round keeps its model (the next
// round patches it), a round that skips the rack phase hands the rack model
// on untouched — and the next rack round patches that model, a round stale,
// into what a forced rebuild decides — and a hand-assembled PhaseWarm with a
// basis but no model builds cold and offers the basis without keeping it.
func TestPhaseWarmCarriesModel(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 12, 61)
	solve := func(m *mutator, cfg Config, warm *WarmState) *Result {
		t.Helper()
		res, err := SolveWarm(context.Background(), m.input(), cfg, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	m := newMutator(t, region, 62, 5)
	setup := fastCfg()
	setup.SetupOnly = true
	res0 := solve(m, setup, nil)
	if res0.Warm.Phase1.Basis != nil || res0.Warm.Phase1.model == nil {
		t.Fatalf("SetupOnly round exported basis %v, model %v; want no basis and its model", res0.Warm.Phase1.Basis, res0.Warm.Phase1.model)
	}
	m.step(false)
	if res := solve(m, setup, res0.Warm); !res.Phase1.ModelPatched {
		t.Fatalf("round after a SetupOnly round rebuilt phase 1 (%v), want the kept model patched", res.Phase1.Rebuild)
	}

	// Rack round, a round without the rack phase, then a rack round again:
	// patched, or (force) with every cached model rebuilt.
	noRack := fastCfg()
	noRack.DisableRackPhase = true
	staleRack := func(force bool) (res1, res2, res3 *Result) {
		m := newMutator(t, region, 62, 5)
		res1 = solve(m, fastCfg(), nil)
		m.step(false)
		res2 = solve(m, noRack, res1.Warm)
		m.step(false)
		if force {
			forceRebuild(res2.Warm)
		}
		return res1, res2, solve(m, fastCfg(), res2.Warm)
	}
	res1, res2, patched := staleRack(false)
	if !res1.RanPhase2 {
		t.Skip("the rack phase did not run on this region")
	}
	if res2.RanPhase2 || res2.Warm.Phase2.model != res1.Warm.Phase2.model || res2.Warm.Phase2.Basis != nil {
		t.Fatal("a round without the rack phase must hand the rack model on, without a basis")
	}
	_, _, rebuilt := staleRack(true)
	if !patched.RanPhase2 || !patched.Phase2.ModelPatched || rebuilt.Phase2.Rebuild != RebuildConfig {
		t.Fatalf("rack round after a skipped one: ran %v, patched %v (%v); forced: %v",
			patched.RanPhase2, patched.Phase2.ModelPatched, patched.Phase2.Rebuild, rebuilt.Phase2.Rebuild)
	}
	if !slices.Equal(patched.Targets, rebuilt.Targets) || patched.Moves != rebuilt.Moves ||
		math.Abs(patched.Phase2.Objective-rebuilt.Phase2.Objective) > 1e-9*(1+math.Abs(rebuilt.Phase2.Objective)) {
		t.Fatalf("the stale rack model patched decides objective %v, moves %+v; rebuilt %v, %+v",
			patched.Phase2.Objective, patched.Moves, rebuilt.Phase2.Objective, rebuilt.Moves)
	}

	m.step(false)
	hand, err := SolveWarm(context.Background(), m.input(), fastCfg(), &WarmState{Phase1: PhaseWarm{Basis: res1.Warm.Phase1.Basis}})
	if err != nil {
		t.Fatal(err)
	}
	if p := hand.Phase1; p.Rebuild != RebuildNoCache || p.RootBasisOffered == 0 || p.RootBasisKept != 0 {
		t.Fatalf("hand-assembled PhaseWarm: rebuild %v, basis offered %d kept %d; want no-cache, offered, none kept",
			p.Rebuild, p.RootBasisOffered, p.RootBasisKept)
	}
}

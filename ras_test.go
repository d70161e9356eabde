package ras_test

import (
	"context"
	"hash/fnv"
	"testing"

	"ras"
	"ras/internal/broker"
	"ras/internal/mip"
	"ras/internal/sim"
	"ras/internal/solver"
)

func testSystem(t testing.TB) *ras.System {
	t.Helper()
	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "api-test", DCs: 2, MSBsPerDC: 2,
		RacksPerMSB: 4, ServersPerRack: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ras.NewSystem(region, ras.Options{})
}

func TestSystemEndToEnd(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "web", Class: ras.Web, RRUs: 30, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Solve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MIP == nil || res.MIP.Phase1.AssignVars == 0 {
		t.Fatal("no assignment variables")
	}
	if res.Backend != "mip" || res.Status == ras.SolveNoSolution {
		t.Fatalf("unexpected solve result: backend=%q status=%v", res.Backend, res.Status)
	}
	if sys.LastSolve() != res {
		t.Fatal("LastSolve mismatch")
	}
	total, surviving, err := sys.GuaranteedRRUs(id)
	if err != nil {
		t.Fatal(err)
	}
	if surviving < 30 {
		t.Fatalf("capacity guarantee broken: %.1f total, %.1f surviving vs 30 requested",
			total, surviving)
	}
	cid, err := sys.PlaceContainer(id, "job", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StopContainer(cid); err != nil {
		t.Fatal(err)
	}
}

func TestSystemResizeAndDelete(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.FleetAvg, RRUs: 10, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.ResizeReservation(id, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), sim.Hour); err != nil {
		t.Fatal(err)
	}
	total, _, _ := sys.GuaranteedRRUs(id)
	if total < 20 {
		t.Fatalf("resize not materialized: %.1f < 20", total)
	}
	if err := sys.DeleteReservation(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 2*sim.Hour); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Broker().ServersIn(id)); n != 0 {
		t.Fatalf("%d servers still bound after delete+solve", n)
	}
}

// TestFailedServerOfDeletedReservationIsFreed: a failed server keeps its
// reservation as target so it returns home on recovery — unless that
// reservation was deleted, in which case it has no home and is freed.
func TestFailedServerOfDeletedReservationIsFreed(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.FleetAvg, RRUs: 10, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	bound := sys.Broker().ServersIn(id)
	if len(bound) == 0 {
		t.Fatal("no server bound after the first solve")
	}
	if err := sys.DeleteReservation(id); err != nil {
		t.Fatal(err)
	}
	failed := bound[0]
	sys.Broker().SetUnavailable(failed, broker.RandomFailure, int64(sim.Hour), int64(2*sim.Hour))
	if _, err := sys.Solve(context.Background(), sim.Hour); err != nil {
		t.Fatal(err)
	}
	if tgt := sys.Broker().State(failed).Target; tgt != ras.Unassigned {
		t.Fatalf("failed server %d of deleted reservation %d has target %d, want the free pool", failed, id, tgt)
	}
}

func TestSystemGreedyBaseline(t *testing.T) {
	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "greedy", DCs: 1, MSBsPerDC: 3, RacksPerMSB: 4, ServersPerRack: 6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := ras.NewSystem(region, ras.Options{Greedy: true})
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.Web, RRUs: 8, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy materializes capacity immediately, on the critical path.
	if got := len(sys.Broker().ServersIn(id)); got < 8 {
		t.Fatalf("greedy assigned %d servers, want ≥ 8", got)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatalf("greedy Solve: %v", err)
	}
}

func TestSystemElasticLoans(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.CreateReservation(ras.Reservation{
		Name: "web", Class: ras.Web, RRUs: 20, Policy: ras.DefaultPolicy(),
	}); err != nil {
		t.Fatal(err)
	}
	el, err := sys.CreateReservation(ras.Reservation{
		Name: "batch", Class: ras.FleetAvg, Elastic: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if loans := sys.LoanBuffersToElastic(); loans == 0 {
		t.Fatal("no buffer servers loaned to the elastic reservation")
	}
	if _, err := sys.PlaceContainer(el, "batch-job", 1); err != nil {
		t.Fatalf("elastic placement on borrowed server: %v", err)
	}
}

func TestMSBFailureSurvival(t *testing.T) {
	sys := testSystem(t)
	region := sys.Region()
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.Web, RRUs: float64(len(region.Servers)) * 0.3,
		CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := sys.Reservations().Get(id)
	// Fail every MSB in turn; the embedded buffer must cover each.
	for msb := 0; msb < region.NumMSBs; msb++ {
		sys.Health().FailMSB(msb, sim.Hour, sim.Hour)
		usable := 0
		for _, sid := range sys.Broker().ServersIn(id) {
			if sys.Broker().State(sid).Unavail == 0 {
				usable++
			}
		}
		sys.Health().RecoverMSB(msb, 2*sim.Hour)
		if float64(usable) < r.RRUs {
			t.Fatalf("MSB %d failure leaves %d usable servers vs %.0f requested", msb, usable, r.RRUs)
		}
	}
}

func TestSolveLocalSearchBackend(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.Web, RRUs: 20, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SolveWith(context.Background(), 0, "localsearch")
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "localsearch" || res.LocalSearch == nil {
		t.Fatalf("expected local-search detail, got backend=%q", res.Backend)
	}
	if res.LocalSearch.Seed.Moves()+res.LocalSearch.Repair.Moves() == 0 {
		t.Fatal("local-search backend made no moves")
	}
	_, surviving, err := sys.GuaranteedRRUs(id)
	if err != nil {
		t.Fatal(err)
	}
	if surviving < 20 {
		t.Fatalf("local-search backend broke the capacity guarantee: %.1f surviving", surviving)
	}
}

// churnSystem is a system with two reservations, solved until a round patches
// its model: the state the failure drills and repeatability checks start from.
func churnSystem(t *testing.T) (*ras.System, []ras.ReservationID) {
	t.Helper()
	return settledSystem(t, ras.RegionSpec{
		Name: "api-test", DCs: 2, MSBsPerDC: 2,
		RacksPerMSB: 4, ServersPerRack: 6, Seed: 5,
	}, ras.SolverConfig{MaxNodes: 100}, []ras.Reservation{
		{Name: "web", Class: ras.Web, RRUs: 24, CountBased: true, Policy: ras.DefaultPolicy()},
		{Name: "feed", Class: ras.Feed1, RRUs: 18, CountBased: true, Policy: ras.DefaultPolicy()},
	})
}

// settledSystem is a serial-solver system over the region and reservations
// given, solved until a round patches its model.
func settledSystem(t *testing.T, spec ras.RegionSpec, cfg ras.SolverConfig, rsvs []ras.Reservation) (*ras.System, []ras.ReservationID) {
	t.Helper()
	region, err := ras.NewRegion(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys := ras.NewSystem(region, ras.Options{Workers: 1, Solver: cfg})
	var ids []ras.ReservationID
	for _, r := range rsvs {
		id, err := sys.CreateReservation(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for round := 0; ; round++ {
		res, err := sys.Solve(context.Background(), ras.Clock(round))
		if err != nil {
			t.Fatal(err)
		}
		if res.MIP.Phase1.ModelPatched {
			return sys, ids
		}
		if round == 8 {
			t.Fatal("no round patched its model within 8 rounds: the assignment never settled")
		}
	}
}

// serversWhere lists the available servers whose current binding pick accepts.
func serversWhere(sys *ras.System, pick func(ras.ReservationID) bool) []ras.ServerID {
	var out []ras.ServerID
	for _, st := range sys.Broker().Snapshot() {
		if st.Unavail == broker.Available && pick(st.Current) {
			out = append(out, st.ID)
		}
	}
	return out
}

// TestJournalGapRebuildsWarm drives a journal gap on purpose: between two
// rounds, more broker writes than the journal holds. The round after the gap
// cannot know what changed, so it rebuilds its model and says why — and,
// because the previous round's basis is carried over by identity rather than
// matched by shape, its root LP still completes from that basis. The rounds
// after that are back on the delta protocol, and patch once the moves settle.
func TestJournalGapRebuildsWarm(t *testing.T) {
	sys, ids := churnSystem(t)
	b := sys.Broker()
	const now = ras.Clock(100)

	// A real change, so the rebuilt model is not last round's: one of web's
	// servers fails (its group shrinks, the mover takes a replacement from
	// the free pool into a group of its own).
	web := serversWhere(sys, func(cur ras.ReservationID) bool { return cur == ids[0] })
	b.SetUnavailable(web[0], broker.RandomFailure, now, now+1000)
	// Then write past the journal's cap: one free-pool server flaps.
	free := serversWhere(sys, func(cur ras.ReservationID) bool { return cur == ras.Unassigned })
	since := b.Version()
	for i := 0; ; i++ {
		if _, ok := b.ChangedSince(since - 1); !ok {
			break
		}
		if i > 1<<16 {
			t.Fatal("the journal never dropped an entry")
		}
		b.SetUnavailable(free[0], broker.RandomFailure, now, now+1000)
		b.ClearUnavailable(free[0], now)
	}

	res, err := sys.Solve(context.Background(), now)
	if err != nil {
		t.Fatal(err)
	}
	p := res.MIP.Phase1
	if p.Rebuild != solver.RebuildJournalGap || p.ModelPatched {
		t.Fatalf("round after the gap: rebuild=%v patched=%v, want %v", p.Rebuild, p.ModelPatched, solver.RebuildJournalGap)
	}
	if !p.WarmRoot || p.RootBasisOffered == 0 || p.RootBasisMismatch {
		t.Fatalf("round after the gap: warm=%v (cold reason %v), basis kept %d of %d columns, mismatch=%v",
			p.WarmRoot, p.RootCold, p.RootBasisKept, p.RootBasisOffered, p.RootBasisMismatch)
	}
	if _, surviving, err := sys.GuaranteedRRUs(ids[0]); err != nil || surviving < 24 {
		t.Fatalf("web after the gap round: %.1f RRUs survive its worst MSB, want 24 (%v)", surviving, err)
	}

	for round := 1; ; round++ {
		res, err = sys.Solve(context.Background(), now+ras.Clock(round))
		if err != nil {
			t.Fatal(err)
		}
		p := res.MIP.Phase1
		if p.Rebuild == solver.RebuildJournalGap || p.Rebuild == solver.RebuildNoCache {
			t.Fatalf("round %d after the gap round: rebuild=%v, want the delta back", round, p.Rebuild)
		}
		if p.ModelPatched {
			break
		}
		if round == 6 {
			t.Fatal("no round patched its model within 6 rounds of the gap")
		}
	}
}

// TestSolveSequenceRepeatable: at Workers = 1 two systems fed the same twenty
// rounds of failures, recoveries and resizes — rounds that patch, rounds that
// rebuild and carry their bases over — return the same targets round for
// round.
func TestSolveSequenceRepeatable(t *testing.T) {
	run := func() (sums []uint64, rebuilt, warm int) {
		sys, ids := churnSystem(t)
		b := sys.Broker()
		var down []ras.ServerID
		for round := 0; round < 20; round++ {
			now := ras.Clock(100 + round)
			for _, id := range down {
				b.ClearUnavailable(id, now)
			}
			held := serversWhere(sys, func(cur ras.ReservationID) bool { return cur == ids[round%2] })
			down = []ras.ServerID{held[round%len(held)], held[(3*round+1)%len(held)]}
			for _, id := range down {
				b.SetUnavailable(id, broker.RandomFailure, now, now+1000)
			}
			if round%5 == 4 {
				if err := sys.ResizeReservation(ids[1], float64(18+round%3)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sys.Solve(context.Background(), now)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, tgt := range res.Targets {
				h.Write([]byte{byte(tgt), byte(tgt >> 8), byte(tgt >> 16), byte(tgt >> 24)})
			}
			sums = append(sums, h.Sum64())
			if !res.MIP.Phase1.ModelPatched {
				rebuilt++
				if res.MIP.Phase1.WarmRoot {
					warm++
				}
			}
		}
		return sums, rebuilt, warm
	}
	first, rebuilt, warm := run()
	second, _, _ := run()
	for round := range first {
		if first[round] != second[round] {
			t.Fatalf("round %d: targets checksum %x, then %x", round, first[round], second[round])
		}
	}
	if rebuilt == 0 || warm == 0 {
		t.Fatalf("%d rounds rebuilt their model, %d of them from a carried basis: the sequence no longer covers the transfer", rebuilt, warm)
	}
	t.Logf("20 rounds: %d rebuilt, %d of those with a warm root", rebuilt, warm)
}

// TestQuietRoundProvesRackPhase: on a settled system, a round in which only
// free-pool servers fail is a sliver of a solve. Over 30 such rounds, every
// round that patched both its models proves the rack phase at the root —
// Optimal in at most one node — most of them re-enter the region phase's root
// factorization without rebuilding it (the rest are the eta file's own
// periodic refresh), and each phase's objective agrees with a cold solve of
// the same snapshot within the gaps the two report: nothing is carried over
// but a place to start.
func TestQuietRoundProvesRackPhase(t *testing.T) {
	// Three reservations over half the region, every capacity met and a free
	// pool of 48: some rack always holds more than α_K·C of one reservation,
	// so the rack phase runs every round. No shared buffer: its per-type
	// sizes follow the usable fleet, so a failure would reshape its specs.
	cfg := solver.Config{MaxNodes: 100, Workers: 1, SharedBufferFraction: -1}
	sys, _ := settledSystem(t, ras.RegionSpec{
		Name: "quiet", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 6, ServersPerRack: 8, Seed: 1,
	}, cfg, []ras.Reservation{
		{Name: "web", Class: ras.Web, RRUs: 30, CountBased: true, Policy: ras.DefaultPolicy()},
		{Name: "feed1", Class: ras.Feed1, RRUs: 32, CountBased: true, Policy: ras.DefaultPolicy()},
		{Name: "feed2", Class: ras.Feed2, RRUs: 34, CountBased: true, Policy: ras.DefaultPolicy()},
	})
	b := sys.Broker()
	var down []ras.ServerID
	patched, reentered := 0, 0
	for round := 0; round < 30; round++ {
		now := ras.Clock(100 + round)
		for _, id := range down {
			b.ClearUnavailable(id, now)
		}
		free := serversWhere(sys, func(cur ras.ReservationID) bool { return cur == ras.Unassigned })
		down = []ras.ServerID{free[round%len(free)], free[(5*round+2)%len(free)]}
		for _, id := range down {
			b.SetUnavailable(id, broker.RandomFailure, now, now+1000)
		}
		in := solver.Input{Region: sys.Region(), Reservations: sys.Reservations().All(), States: b.Snapshot()}
		res, err := sys.Solve(context.Background(), now)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := solver.Solve(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.MIP
		if !r.RanPhase2 || !cold.RanPhase2 {
			t.Fatalf("round %d: rack phase ran = %v, cold %v: the fixture lost its point", round, r.RanPhase2, cold.RanPhase2)
		}
		for k, ph := range [2][2]*solver.PhaseStats{{&r.Phase1, &cold.Phase1}, {&r.Phase2, &cold.Phase2}} {
			warm, cold := ph[0], ph[1]
			gaps := (warm.Objective - warm.Bound) + (cold.Objective - cold.Bound)
			if d := warm.Objective - cold.Objective; d > gaps+1e-6 || -d > gaps+1e-6 {
				t.Fatalf("round %d phase %d: objective %.6f (bound %.6f), cold %.6f (bound %.6f)",
					round, k+1, warm.Objective, warm.Bound, cold.Objective, cold.Bound)
			}
		}
		if !r.Phase1.ModelPatched || !r.Phase2.ModelPatched {
			continue
		}
		patched++
		if r.Phase2.Status != mip.Optimal || r.Phase2.Nodes > 1 {
			t.Fatalf("round %d: rack phase %v in %d nodes (root bound %.4f, objective %.4f, %d cut rows)",
				round, r.Phase2.Status, r.Phase2.Nodes, r.Phase2.RootBound, r.Phase2.Objective, r.Phase2.CutRows)
		}
		if r.Phase2.CutRows == 0 {
			t.Fatalf("round %d: the rack-level model has no cut rows", round)
		}
		if r.Phase1.LP.Refactorizations == 0 {
			reentered++
		}
	}
	if patched < 20 || 10*reentered < 8*patched {
		t.Fatalf("%d of 30 rounds patched both models, %d of them without refactorizing the region phase's basis", patched, reentered)
	}
	t.Logf("30 rounds: %d patched both models, %d of them re-entered the region phase's factorization", patched, reentered)
}

package ras_test

import (
	"context"
	"hash/fnv"
	"math"
	"strings"
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

// TestWorkersOptionReachesEveryPhase: Options.Workers is the one worker
// count a round runs on. Every phase that ran reports it, and under pop the
// sub-solves share it: at two partitions each runs serial, two at a time
// when the budget is two.
func TestWorkersOptionReachesEveryPhase(t *testing.T) {
	for _, tc := range []struct {
		backend    string
		partitions int
	}{{"mip", 0}, {"pop", 2}} {
		for _, workers := range []int{1, 2} {
			region, err := ras.NewRegion(ras.RegionSpec{
				Name: "workers", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 4, ServersPerRack: 6, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys := ras.NewSystem(region, ras.Options{Backend: tc.backend, Partitions: tc.partitions,
				Workers: workers, Solver: ras.SolverConfig{MaxNodes: 100}})
			for _, r := range []ras.Reservation{
				{Name: "web", Class: ras.Web, RRUs: 24, CountBased: true, Policy: ras.DefaultPolicy()},
				{Name: "feed", Class: ras.Feed1, RRUs: 18, CountBased: true, Policy: ras.DefaultPolicy()},
			} {
				if _, err := sys.CreateReservation(r); err != nil {
					t.Fatal(err)
				}
			}
			perPhase := workers
			if tc.backend == "pop" {
				perPhase = 1
			}
			phases := 0
			for round := 0; round < 2; round++ {
				res, err := sys.Solve(context.Background(), ras.Clock(round))
				if err != nil {
					t.Fatal(err)
				}
				if res.POP != nil && (res.POP.SubWorkers != 1 || res.POP.Concurrent != workers) {
					t.Errorf("pop at Workers %d: sub-solves ran %d×%d", workers, res.POP.SubWorkers, res.POP.Concurrent)
				}
				for _, r := range res.SolverResults() {
					ran := []solver.PhaseStats{r.Phase1}
					if r.RanPhase2 {
						ran = append(ran, r.Phase2)
					}
					for i, ph := range ran {
						phases++
						if ph.Workers != perPhase {
							t.Errorf("%s at Workers %d, round %d: phase %d ran on %d workers, want %d",
								tc.backend, workers, round, i+1, ph.Workers, perPhase)
						}
					}
				}
			}
			if phases == 0 {
				t.Fatalf("%s: no phase ran", tc.backend)
			}
		}
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
	cfg := solver.Config{MaxNodes: 100, SharedBufferFraction: -1}
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

// TestUnserviceableRequestIsExplained drills §5.3's rejection message through
// the façade: a reservation whose SingleDC policy names a datacenter with no
// eligible usable server. The round still solves, the phase holding the
// request names it and the DC it asked for, prices its whole demand as
// softened slack, and every other reservation's capacity row still holds —
// checked on the phase's residual rows and recounted from the targets.
func TestUnserviceableRequestIsExplained(t *testing.T) {
	for _, tc := range []struct {
		backend    string
		partitions int
	}{{"mip", 0}, {"pop", 2}} {
		t.Run(tc.backend, func(t *testing.T) {
			region, err := ras.NewRegion(ras.RegionSpec{
				Name: "unserviceable", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 4, ServersPerRack: 6, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			sys := ras.NewSystem(region, ras.Options{Backend: tc.backend, Partitions: tc.partitions,
				Workers: 1, Solver: ras.SolverConfig{MaxNodes: 100}})
			// ml may run on one hardware type in DC 1 only, and every such
			// server has failed.
			var mlType int
			for _, srv := range region.Servers {
				if srv.DC == 1 {
					mlType = srv.Type
					break
				}
			}
			ml := ras.Reservation{Name: "ml", Class: ras.BatchML, RRUs: 8, CountBased: true,
				EligibleTypes: []int{mlType}, Policy: ras.DefaultPolicy()}
			ml.Policy.SingleDC = 1
			for _, srv := range region.Servers {
				if srv.DC == 1 && ml.Value(region.Catalog, srv.Type, srv.DC) > 0 {
					sys.Broker().SetUnavailable(srv.ID, broker.RandomFailure, 0, 1000)
				}
			}
			others := []ras.Reservation{
				{Name: "web", Class: ras.Web, RRUs: 20, CountBased: true, Policy: ras.DefaultPolicy()},
				{Name: "feed", Class: ras.Feed1, RRUs: 16, CountBased: true, Policy: ras.DefaultPolicy()},
			}
			for i, r := range append(others, ml) {
				id, err := sys.CreateReservation(r)
				if err != nil {
					t.Fatal(err)
				}
				if i < len(others) {
					others[i].ID = id
				}
			}
			states := sys.Broker().Snapshot()
			res, err := sys.Solve(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == ras.SolveNoSolution {
				t.Fatalf("round status %v", res.Status)
			}

			var holder *solver.PhaseStats
			for _, r := range res.SolverResults() {
				for _, ph := range [2]*solver.PhaseStats{&r.Phase1, &r.Phase2} {
					if len(ph.Unserviceable) > 0 {
						if holder != nil {
							t.Fatalf("two phases report an unserviceable request: %q and %q", holder.Unserviceable, ph.Unserviceable)
						}
						holder = ph
					}
					for _, rs := range ph.ResidualSlack {
						for _, o := range others {
							if rs.Row == "capacity["+o.Name+"]" {
								t.Errorf("capacity row of %s left violated by %.3f", o.Name, rs.Amount)
							}
						}
					}
				}
			}
			if holder == nil {
				t.Fatal("no phase reports the unserviceable request")
			}
			if u := holder.Unserviceable; len(u) != 1 || !strings.HasPrefix(u[0], "ml: ") || !strings.Contains(u[0], "singleDC 1") {
				t.Fatalf("Unserviceable = %q, want one entry naming ml and singleDC 1", u)
			}
			if len(holder.ResidualSlack) != 0 || math.Abs(holder.SoftSlack-ml.RRUs) > 1e-6 {
				t.Fatalf("SoftSlack %.6f with residual rows %v, want ml's %v RRUs alone",
					holder.SoftSlack, holder.ResidualSlack, ml.RRUs)
			}

			// Recount expression 6 from the targets: Σ V − max over MSBs ≥ C.
			for _, o := range others {
				perMSB := make([]float64, region.NumMSBs)
				total, worst := 0.0, 0.0
				for i, tgt := range res.Targets {
					if tgt != o.ID || !states[i].Usable() {
						continue
					}
					srv := &region.Servers[i]
					v := o.Value(region.Catalog, srv.Type, srv.DC)
					total += v
					perMSB[srv.MSB] += v
					worst = math.Max(worst, perMSB[srv.MSB])
				}
				if total-worst < o.RRUs-1e-6 {
					t.Errorf("%s: %.1f RRUs assigned, %.1f beyond the worst MSB, want %.1f", o.Name, total, total-worst, o.RRUs)
				}
			}
		})
	}
}

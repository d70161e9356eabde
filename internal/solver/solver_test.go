package solver

import (
	"context"
	"math"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// testRegion builds a small region: dcs × msbsPerDC MSBs, racksPerMSB racks
// of serversPerRack servers.
func testRegion(t testing.TB, dcs, msbsPerDC, racksPerMSB, serversPerRack int, seed int64) *topology.Region {
	t.Helper()
	r, err := topology.Generate(topology.GenSpec{
		Name: "test", DCs: dcs, MSBsPerDC: msbsPerDC,
		RacksPerMSB: racksPerMSB, ServersPerRack: serversPerRack, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// usableServers lists the usable servers in scope, ascending.
func usableServers(in Input) []topology.ServerID { return appendUsable(nil, in) }

func freshInput(region *topology.Region, rsvs []reservation.Reservation) Input {
	b := broker.New(region)
	return Input{Region: region, Reservations: rsvs, States: b.Snapshot()}
}

func fastCfg() Config {
	return Config{
		Phase1TimeLimit:      2 * time.Second,
		Phase2TimeLimit:      2 * time.Second,
		MaxNodes:             100,
		SharedBufferFraction: -1, // off unless a test wants it
	}
}

// rruOf computes the RRU capacity a set of targets delivers to reservation r.
func rruOf(region *topology.Region, targets []reservation.ID, r *reservation.Reservation) float64 {
	total := 0.0
	for i := range region.Servers {
		if targets[i] != r.ID {
			continue
		}
		v := hardware.RRU(region.Catalog.Type(region.Servers[i].Type), r.Class)
		if r.CountBased {
			v = 1
		}
		total += v
	}
	return total
}

// maxMSBShare computes the largest per-MSB RRU share of a reservation.
func maxMSBShare(region *topology.Region, targets []reservation.ID, r *reservation.Reservation) float64 {
	perMSB := make([]float64, region.NumMSBs)
	total := 0.0
	for i := range region.Servers {
		if targets[i] != r.ID {
			continue
		}
		v := hardware.RRU(region.Catalog.Type(region.Servers[i].Type), r.Class)
		if r.CountBased {
			v = 1
		}
		perMSB[region.Servers[i].MSB] += v
		total += v
	}
	if total == 0 {
		return 0
	}
	m := 0.0
	for _, v := range perMSB {
		if v > m {
			m = v
		}
	}
	return m / total
}

func TestSolveFulfillsCapacityWithBuffer(t *testing.T) {
	region := testRegion(t, 2, 3, 4, 6, 1) // 6 MSBs, 144 servers
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 30, Policy: reservation.DefaultPolicy()},
		{ID: 1, Name: "feed", Class: hardware.Feed1, RRUs: 20, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rsvs {
		r := &rsvs[i]
		got := rruOf(region, res.Targets, r)
		// Expression 6: capacity must survive the loss of any one MSB.
		worstLoss := 0.0
		perMSB := make([]float64, region.NumMSBs)
		for s := range region.Servers {
			if res.Targets[s] == r.ID {
				v := hardware.RRU(region.Catalog.Type(region.Servers[s].Type), r.Class)
				perMSB[region.Servers[s].MSB] += v
			}
		}
		for _, v := range perMSB {
			if v > worstLoss {
				worstLoss = v
			}
		}
		if got-worstLoss < r.RRUs-1e-6 {
			t.Errorf("%s: post-failure capacity %.2f < requested %.2f (total %.2f, worst MSB %.2f)",
				r.Name, got-worstLoss, r.RRUs, got, worstLoss)
		}
	}
	if res.Phase1.SoftSlack > 1e-6 {
		t.Errorf("capacity slack remained: %v", res.Phase1.SoftSlack)
	}
}

func TestSolveStability(t *testing.T) {
	// Solve once, apply targets as current, solve again: second solve must
	// produce zero moves.
	region := testRegion(t, 1, 4, 4, 6, 2)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 25, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	res1, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.States {
		in.States[i].Current = res1.Targets[i]
		if res1.Targets[i] == 0 {
			in.States[i].Containers = 3 // now in use
		}
	}
	res2, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Moves.InUse != 0 {
		t.Errorf("re-solve preempted %d in-use servers, want 0", res2.Moves.InUse)
	}
}

func TestSolveExcludesUnavailable(t *testing.T) {
	region := testRegion(t, 1, 3, 3, 4, 3)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 10, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	// Fail a third of the servers (unplanned).
	for i := 0; i < len(in.States); i += 3 {
		in.States[i].Unavail = broker.RandomFailure
	}
	res, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.States {
		if in.States[i].Unavail == broker.RandomFailure && res.Targets[i] != reservation.Unassigned {
			t.Fatalf("unavailable server %d was assigned to %d", i, res.Targets[i])
		}
	}
}

func TestSolveTreatsMaintenanceAsUsable(t *testing.T) {
	region := testRegion(t, 1, 2, 3, 4, 4)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 8, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	for i := range in.States {
		in.States[i].Unavail = broker.PlannedMaintenance
	}
	res, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	assigned := 0
	for i := range res.Targets {
		if res.Targets[i] == 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("maintenance servers must remain usable capacity (§3.3.1)")
	}
}

func TestSolveSpreadBeatsGreedyConcentration(t *testing.T) {
	// Start from a worst-case concentration (everything in MSB 0) and check
	// the solver spreads it out.
	region := testRegion(t, 1, 4, 4, 8, 5) // 4 MSBs, 128 servers
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 25, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	in := freshInput(region, rsvs)
	// Concentrate: bind every server of MSB 0 to the reservation (idle).
	for i := range region.Servers {
		if region.Servers[i].MSB == 0 {
			in.States[i].Current = 0
		}
	}
	res, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	share := maxMSBShare(region, res.Targets, &rsvs[0])
	if share > 0.55 {
		t.Errorf("max MSB share %.2f, want meaningful spread (≤0.55)", share)
	}
}

func TestSolveSingleDCPolicy(t *testing.T) {
	region := testRegion(t, 3, 2, 3, 4, 6)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "ml", Class: hardware.Web, RRUs: 6, CountBased: true,
			Policy: reservation.Policy{SingleDC: 1}},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range region.Servers {
		if res.Targets[i] == 0 {
			if region.Servers[i].DC != 1 {
				t.Fatalf("server %d in DC %d assigned despite SingleDC=1", i, region.Servers[i].DC)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no servers assigned under SingleDC policy")
	}
}

func TestSolveDCAffinity(t *testing.T) {
	region := testRegion(t, 2, 2, 4, 8, 7)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "presto", Class: hardware.Web, RRUs: 20, CountBased: true,
			Policy: reservation.Policy{
				SingleDC:      -1,
				DCAffinity:    map[int]float64{0: 0.75, 1: 0.25},
				AffinityTheta: 0.1,
			}},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	perDC := make([]float64, region.NumDCs)
	total := 0.0
	for i := range region.Servers {
		if res.Targets[i] == 0 {
			perDC[region.Servers[i].DC]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("nothing assigned")
	}
	// Affinity is measured against requested capacity C_r (expression 7).
	cr := rsvs[0].RRUs
	if math.Abs(perDC[0]/cr-0.75) > 0.25 {
		t.Errorf("DC0 share %.2f of C_r, want ≈0.75±θ (soft)", perDC[0]/cr)
	}
}

func TestSolveElasticIgnored(t *testing.T) {
	region := testRegion(t, 1, 2, 2, 4, 8)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "batch", Class: hardware.FleetAvg, RRUs: 5, Elastic: true, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Targets {
		if res.Targets[i] == 0 {
			t.Fatal("elastic reservation must not receive solver capacity")
		}
	}
}

func TestSolveSharedBuffer(t *testing.T) {
	region := testRegion(t, 1, 3, 4, 6, 9)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 10, Policy: reservation.DefaultPolicy()},
	}
	cfg := fastCfg()
	cfg.SharedBufferFraction = 0.02
	res, err := Solve(context.Background(), freshInput(region, rsvs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := 0
	for _, tgt := range res.Targets {
		if tgt == reservation.SharedBuffer {
			buf++
		}
	}
	want := int(0.02 * float64(len(region.Servers)))
	if buf < want {
		t.Errorf("shared buffer has %d servers, want ≥ %d (2%% of fleet)", buf, want)
	}
}

func TestSolveInfeasibleSoftens(t *testing.T) {
	// Request far more than the region holds: solver must not fail, and
	// must report remaining soft slack.
	region := testRegion(t, 1, 2, 2, 3, 10) // 24 servers
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "huge", Class: hardware.Web, RRUs: 10000, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase1.SoftSlack <= 0 {
		t.Errorf("soft slack = %v, want > 0 for an unfulfillable request", res.Phase1.SoftSlack)
	}
	// The shortfall is reported by value, against the row that carries it.
	rs := res.Phase1.ResidualSlack
	if len(rs) != 1 || rs[0].Row != "capacity[huge]" || rs[0].Amount != res.Phase1.SoftSlack {
		t.Errorf("residual slack = %+v, want one capacity[huge] entry of %v", rs, res.Phase1.SoftSlack)
	}
	// Everything assignable should still be assigned.
	n := 0
	for _, tgt := range res.Targets {
		if tgt == 0 {
			n++
		}
	}
	if n < len(region.Servers)/2 {
		t.Errorf("only %d servers assigned to the starving reservation", n)
	}
}

func TestSolveEmptyReservations(t *testing.T) {
	region := testRegion(t, 1, 2, 2, 2, 11)
	res, err := Solve(context.Background(), freshInput(region, nil), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range res.Targets {
		if tgt != reservation.Unassigned {
			t.Fatal("no reservations, but servers were assigned")
		}
	}
}

// TestSolveInputValidation: a nil region, a state count that does not match
// the servers, and a Subset with a duplicate, a descending or an
// out-of-range server ID are refused before anything is built — the last
// with validateSubset's own error.
func TestSolveInputValidation(t *testing.T) {
	if _, err := Solve(context.Background(), Input{}, Config{}); err == nil {
		t.Fatal("nil region must error")
	}
	region := testRegion(t, 1, 1, 1, 2, 12)
	if _, err := Solve(context.Background(), Input{Region: region, States: make([]broker.ServerState, 1)}, Config{}); err == nil {
		t.Fatal("state/server count mismatch must error")
	}
	region = testRegion(t, 1, 2, 2, 3, 12)
	in := freshInput(region, []reservation.Reservation{{
		ID: 0, Name: "svc", Class: hardware.FleetAvg, RRUs: 2, CountBased: true, Policy: reservation.DefaultPolicy(),
	}})
	n := topology.ServerID(len(region.Servers))
	for _, subset := range [][]topology.ServerID{{1, 3, 3, 5}, {4, 2}, {0, 1, n}, {-1, 2}} {
		in.Subset = subset
		want := in.validateSubset()
		if want == nil {
			t.Fatalf("subset %v: validateSubset accepts it", subset)
		}
		if res, err := SolveWarm(context.Background(), in, Config{}, nil, 1); err == nil || err.Error() != want.Error() {
			t.Errorf("subset %v: SolveWarm = (%v, %v), want validateSubset's error %q", subset, res, err, want)
		}
	}
}

func TestSolveSetupOnly(t *testing.T) {
	region := testRegion(t, 1, 3, 3, 4, 13)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 10, Policy: reservation.DefaultPolicy()},
	}
	cfg := fastCfg()
	cfg.SetupOnly = true
	res, err := Solve(context.Background(), freshInput(region, rsvs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase1.MIP != 0 {
		t.Errorf("SetupOnly ran the MIP step (%v)", res.Phase1.MIP)
	}
	if res.Phase1.AssignVars == 0 {
		t.Error("SetupOnly must still report assignment variables")
	}
}

func TestSolveBreakdownPopulated(t *testing.T) {
	region := testRegion(t, 1, 3, 3, 4, 14)
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 10, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Phase1
	if st.Total() <= 0 || st.MIP <= 0 {
		t.Errorf("breakdown not populated: %+v", st)
	}
	if st.Groups == 0 || st.ModelVars < st.AssignVars {
		t.Errorf("model stats inconsistent: %+v", st)
	}
}

func TestGroupSymmetryReduction(t *testing.T) {
	// A uniform region collapses to few groups: one per (type, MSB).
	region := testRegion(t, 1, 2, 10, 10, 15)
	in := freshInput(region, nil)
	pool := usableServers(in)
	groups, _ := new(groupStore).groupServers(in, pool, false, nil, nil)
	if len(groups) >= len(region.Servers)/2 {
		t.Fatalf("grouping achieved no reduction: %d groups for %d servers",
			len(groups), len(region.Servers))
	}
	total := 0
	for _, g := range groups {
		total += len(g.servers)
	}
	if total != len(pool) {
		t.Fatalf("groups cover %d servers, want %d", total, len(pool))
	}
}

func TestGroupRackLevelFinerThanMSB(t *testing.T) {
	region := testRegion(t, 1, 2, 6, 4, 16)
	in := freshInput(region, nil)
	pool := usableServers(in)
	coarse, _ := new(groupStore).groupServers(in, pool, false, nil, nil)
	fine, _ := new(groupStore).groupServers(in, pool, true, nil, nil)
	if len(fine) < len(coarse) {
		t.Fatalf("rack-level grouping (%d) must be at least as fine as MSB-level (%d)",
			len(fine), len(coarse))
	}
}

func TestRealizeKeepsCurrentMembers(t *testing.T) {
	region := testRegion(t, 1, 1, 1, 6, 17)
	in := freshInput(region, nil)
	// All 6 servers in one group; 3 currently in reservation 5.
	for i := 0; i < 3; i++ {
		in.States[i].Current = 5
	}
	pool := usableServers(in)
	groups, _ := new(groupStore).groupServers(in, pool, false, nil, nil)
	specs := []resSpec{{
		res: reservation.Reservation{ID: 5, Name: "r", Class: hardware.Web, RRUs: 3, CountBased: true},
	}}
	// groupServers splits by current reservation: find the group with cur=5.
	counts := make([][]float64, len(groups))
	for gi, g := range groups {
		counts[gi] = make([]float64, 1)
		if g.key.cur == 5 {
			counts[gi][0] = 2 // shrink from 3 to 2
		}
	}
	targets := make([]reservation.ID, len(region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	realize(specs, &phaseOutput{groups: groups, specs: specs, counts: counts}, targets)
	kept := 0
	for i := 0; i < 3; i++ {
		if targets[i] == 5 {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("kept %d current members, want 2", kept)
	}
	for i := 3; i < 6; i++ {
		if targets[i] == 5 {
			t.Fatal("realize preferred a non-member over a current member")
		}
	}
}

func TestPhase2RunsAndImprovesRackSpread(t *testing.T) {
	region := testRegion(t, 1, 2, 8, 8, 18) // 16 racks
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 30, CountBased: true, Policy: reservation.DefaultPolicy()},
	}
	rsvs[0].Policy.SpreadRack = 0.10 // forces rack goals to matter
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	_ = res // phase 2 runs only when phase-1 leaves rack excess; both are valid
	if res.RanPhase2 && res.Phase2.AssignVars == 0 {
		t.Error("phase 2 ran with zero assignment variables")
	}
}

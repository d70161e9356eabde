package solver

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
)

// TestRRUvsCountSemantics: an RRU-based Web reservation needs fewer GenIII
// servers than GenI servers for the same capacity; a count-based one treats
// all eligible servers equally.
func TestRRUvsCountSemantics(t *testing.T) {
	region := testRegion(t, 1, 2, 6, 8, 21)
	rruRes := []reservation.Reservation{
		{ID: 0, Name: "rru", Class: hardware.Web, RRUs: 20, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rruRes), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Check the RRU sum meets the requirement even though the server count
	// may be below 20 (new-generation servers are worth > 1 RRU each).
	servers, rrus := 0, 0.0
	for i, tgt := range res.Targets {
		if tgt == 0 {
			servers++
			rrus += hardware.RRU(region.Catalog.Type(region.Servers[i].Type), hardware.Web)
		}
	}
	if rrus < 20 {
		t.Fatalf("RRU capacity %f < 20", rrus)
	}
	if float64(servers) >= rrus*1.5 {
		t.Fatalf("server count %d implausibly high for %f RRUs", servers, rrus)
	}
}

// TestEligibleTypesRestriction: a reservation restricted to one hardware
// type only ever receives that type.
func TestEligibleTypesRestriction(t *testing.T) {
	region := testRegion(t, 1, 3, 6, 6, 22)
	// Pick the Web-eligible type most common in this region so the request
	// is trivially satisfiable.
	counts := make(map[int]int)
	for i := range region.Servers {
		counts[region.Servers[i].Type]++
	}
	want, best := -1, 0
	for _, tt := range region.Catalog.EligibleTypes(hardware.Web) {
		if counts[tt] > best {
			want, best = tt, counts[tt]
		}
	}
	if best < 10 {
		t.Skip("region lacks a well-populated Web-eligible type")
	}
	rsvs := []reservation.Reservation{
		{ID: 0, Name: "narrow", Class: hardware.Web, RRUs: 3, CountBased: true,
			EligibleTypes: []int{want}, Policy: reservation.DefaultPolicy()},
	}
	res, err := Solve(context.Background(), freshInput(region, rsvs), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, tgt := range res.Targets {
		if tgt == 0 {
			if region.Servers[i].Type != want {
				t.Fatalf("server %d of type %d assigned; only type %d eligible",
					i, region.Servers[i].Type, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("nothing assigned under type restriction")
	}
}

// TestLoanedServersAreCheapToMove: servers loaned to elastic reservations
// count as unused moves even with containers running.
func TestLoanedServersAreCheapToMove(t *testing.T) {
	region := testRegion(t, 1, 2, 3, 4, 23)
	in := freshInput(region, []reservation.Reservation{
		{ID: 0, Name: "web", Class: hardware.Web, RRUs: 6, CountBased: true, Policy: reservation.DefaultPolicy()},
	})
	// One server currently in reservation 7 (absent from input → will be
	// reclaimed), loaned out with containers.
	in.States[0].Current = 7
	in.States[0].LoanedTo = 9
	in.States[0].Containers = 4
	res, err := Solve(context.Background(), in, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves.InUse != 0 {
		t.Fatalf("loaned server move counted as in-use: %+v", res.Moves)
	}
}

// TestSolverConfigDefaults: the zero config and the default policy resolve
// to documented values, and the objective's weights keep the paper's
// relations.
func TestSolverConfigDefaults(t *testing.T) {
	region := testRegion(t, 1, 2, 2, 2, 24)
	cfg := Config{}.withDefaults(region)
	if moveCostInUse != 10*moveCostIdle {
		t.Fatalf("move costs %v/%v, want the paper's 10x ratio", moveCostInUse, moveCostIdle)
	}
	if cfg.SharedBufferFraction != 0.02 {
		t.Fatalf("shared buffer fraction %v, want 0.02", cfg.SharedBufferFraction)
	}
	// 2 MSBs and 4 racks: αF = 1.5/2, αK = 4/4.
	s := newSpec(reservation.Reservation{Policy: reservation.DefaultPolicy()}, cfg, false)
	if s.alphaF != 0.75 || s.alphaK != 1 || s.theta != 0.05 {
		t.Fatalf("policy defaults αF %v, αK %v, θ %v; want 0.75, 1, 0.05", s.alphaF, s.alphaK, s.theta)
	}
	if softPenalty <= moveCostInUse {
		t.Fatal("soft penalty must dominate move costs")
	}
}

// TestConfigShare: k sub-solves, concurrent at a time, split one solve's
// budget — the node budgets sum to the resolved MaxNodes, the remainder on
// the lowest indices, each at least one node, and the ⌈k/concurrent⌉ waves'
// phase limits sum to at most the resolved limits. Zero budgets resolve to
// their defaults before the split, and nothing else in the config moves.
func TestConfigShare(t *testing.T) {
	for _, tc := range []struct {
		cfg           Config
		k, concurrent int
		nodes         []int // per sub-solve
		waves         int
	}{
		{Config{MaxNodes: 100}, 2, 1, []int{50, 50}, 2},
		{Config{MaxNodes: 100}, 4, 4, []int{25, 25, 25, 25}, 1},
		{Config{MaxNodes: 100}, 3, 2, []int{34, 33, 33}, 2},
		{Config{MaxNodes: 100}, 6, 4, []int{17, 17, 17, 17, 16, 16}, 2},
		{Config{MaxNodes: 7, Phase1TimeLimit: time.Second, Phase2TimeLimit: 3 * time.Nanosecond}, 4, 1, []int{2, 2, 2, 1}, 4},
		{Config{}, 3, 1, []int{134, 133, 133}, 3}, // 400 nodes, 10 s a phase
		{Config{MaxNodes: 100}, 1, 1, []int{100}, 1},
		{Config{MaxNodes: 2}, 4, 2, []int{1, 1, 1, 1}, 2}, // below k: one node each
	} {
		resolved := tc.cfg.withBudget()
		sum := 0
		for p := 0; p < tc.k; p++ {
			sub := tc.cfg.Share(p, tc.k, tc.concurrent)
			if sub.MaxNodes != tc.nodes[p] {
				t.Errorf("%+v k %d: sub-solve %d gets %d nodes, want %d", tc.cfg, tc.k, p, sub.MaxNodes, tc.nodes[p])
			}
			sum += sub.MaxNodes
			waves := time.Duration(tc.waves)
			for _, l := range []struct{ sub, whole time.Duration }{
				{sub.Phase1TimeLimit, resolved.Phase1TimeLimit}, {sub.Phase2TimeLimit, resolved.Phase2TimeLimit},
			} {
				// A limit shorter than the waves floors at 1 ns each.
				if l.sub != max(l.whole/waves, 1) || (l.whole >= waves && waves*l.sub > l.whole) {
					t.Errorf("%+v k %d concurrent %d: phase limit %v of %v over %d waves", tc.cfg, tc.k, tc.concurrent, l.sub, l.whole, tc.waves)
				}
			}
			rest := sub
			rest.MaxNodes, rest.Phase1TimeLimit, rest.Phase2TimeLimit = resolved.MaxNodes, resolved.Phase1TimeLimit, resolved.Phase2TimeLimit
			if rest != resolved {
				t.Errorf("%+v: Share changed more than the budget: %+v", tc.cfg, sub)
			}
		}
		if want := max(resolved.MaxNodes, tc.k); sum != want {
			t.Errorf("%+v k %d: node budgets sum to %d, want %d", tc.cfg, tc.k, sum, want)
		}
	}
}

// TestPhase2Selection: pickPhase2 prefers reservations with the worst
// rack-level concentration.
func TestPhase2Selection(t *testing.T) {
	region := testRegion(t, 1, 2, 6, 6, 25)
	in := freshInput(region, nil)
	cfg := Config{}.withDefaults(region)
	specs := []resSpec{
		newSpec(reservation.Reservation{ID: 0, Name: "concentrated", Class: hardware.Web, RRUs: 10, CountBased: true}, cfg, false),
		newSpec(reservation.Reservation{ID: 1, Name: "spread", Class: hardware.Web, RRUs: 10, CountBased: true}, cfg, false),
	}
	targets := make([]reservation.ID, len(region.Servers))
	for i := range targets {
		targets[i] = reservation.Unassigned
	}
	// Reservation 0: all in one rack. Reservation 1: one per rack.
	rack0 := 0
	placed0, lastRack := 0, -1
	for i := range region.Servers {
		if region.Servers[i].Rack == rack0 && placed0 < 10 {
			targets[i] = 0
			placed0++
		} else if region.Servers[i].Rack != lastRack && region.Servers[i].Rack != rack0 {
			targets[i] = 1
			lastRack = region.Servers[i].Rack
		}
	}
	subset := new(roundTables).pickPhase2(in, specs, targets)
	if !subset[0] {
		t.Fatalf("phase 2 did not select the rack-concentrated reservation: %v", subset)
	}
}

// TestUnusableClassification verifies the §3.3.1 rule: unplanned events are
// filtered, planned maintenance stays usable.
func TestUnusableClassification(t *testing.T) {
	cases := map[broker.UnavailKind]bool{
		broker.Available:          false,
		broker.PlannedMaintenance: false,
		broker.RandomFailure:      true,
		broker.ToRFailure:         true,
		broker.CorrelatedFailure:  true,
	}
	for kind, want := range cases {
		st := broker.ServerState{Unavail: kind}
		if got := !st.Usable(); got != want {
			t.Errorf("%v: unusable = %v, want %v", kind, got, want)
		}
	}
}

// TestSharedBufferSizedByLargestRemainder: the per-type buffer totals match
// the configured fraction without per-type ceil inflation.
func TestSharedBufferSizedByLargestRemainder(t *testing.T) {
	region := testRegion(t, 1, 3, 6, 6, 26)
	in := freshInput(region, nil)
	cfg := Config{SharedBufferFraction: 0.02}.withDefaults(region)
	specs := buildSpecs(in, cfg)
	total := 0.0
	for _, s := range specs {
		if s.isBuffer {
			total += s.res.RRUs
		}
	}
	want := float64(len(region.Servers)) * 0.02
	if total < want-1 || total > want+1 {
		t.Fatalf("buffer total %v, want ≈ %v (2%% of %d servers)", total, want, len(region.Servers))
	}
}

// TestPhase2SelectionDeterministic: two equal-sized reservations hold
// mirror-image rack loads, so their rack excesses are the same seven numbers
// and differ at most by the rounding of the order they are added in (two
// outcomes are reachable: 12.399999999999997 and …95). Which one phase 2
// refines must be the same on every call — summing in map-iteration order
// made it change from run to run.
func TestPhase2SelectionDeterministic(t *testing.T) {
	region := testRegion(t, 1, 4, 6, 8, 31)
	in := freshInput(region, nil)
	cfg := Config{}.withDefaults(region)
	var specs []resSpec
	for id := reservation.ID(0); id < 2; id++ {
		specs = append(specs, newSpec(reservation.Reservation{ID: id, Name: "svc", Class: hardware.Web, RRUs: 40,
			CountBased: true, Policy: reservation.Policy{SpreadRack: 0.07}}, cfg, false)) // limit 2.8 servers per rack
	}
	// Per MSB, reservation 0 loads racks 0-2 and reservation 1 racks 5-3 with
	// the same counts.
	loads := [4][3]int{{5, 3, 2}, {6, 3, 1}, {4, 4, 2}, {7, 2, 1}}
	targets := make([]reservation.ID, len(region.Servers))
	placed := make(map[int]int) // rack → servers targeted so far
	for i := range region.Servers {
		srv := &region.Servers[i]
		inMSB := srv.Rack % 6
		id, want := reservation.ID(0), 0
		if inMSB < 3 {
			want = loads[srv.MSB][inMSB]
		} else {
			id, want = 1, loads[srv.MSB][5-inMSB]
		}
		targets[i] = reservation.Unassigned
		if placed[srv.Rack] < want {
			placed[srv.Rack]++
			targets[i] = id
		}
	}
	first := new(roundTables).pickPhase2(in, specs, targets)
	if len(first) != 1 {
		t.Fatalf("phase 2 selected %v, want exactly one of the two tied reservations", first)
	}
	for run := 1; run < 20; run++ {
		if got := new(roundTables).pickPhase2(in, specs, targets); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d selected %v, call 0 selected %v", run, got, first)
		}
	}
}

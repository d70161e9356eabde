package broker

import (
	"slices"
	"sync"
	"testing"

	"ras/internal/reservation"
	"ras/internal/topology"
)

func testBroker(t testing.TB) *Broker {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		DCs: 1, MSBsPerDC: 2, RacksPerMSB: 2, ServersPerRack: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(region)
}

func TestNewStartsUnassigned(t *testing.T) {
	b := testBroker(t)
	st := b.State(0)
	if st.Current != reservation.Unassigned || st.Target != reservation.Unassigned {
		t.Fatalf("fresh server bound: %+v", st)
	}
	if st.Unavail != Available {
		t.Fatalf("fresh server unavailable: %v", st.Unavail)
	}
}

func TestSetCurrentClearsLoan(t *testing.T) {
	b := testBroker(t)
	b.SetLoan(1, 42)
	if b.State(1).LoanedTo != 42 {
		t.Fatal("loan not recorded")
	}
	b.SetCurrent(1, 7)
	st := b.State(1)
	if st.Current != 7 || st.LoanedTo != reservation.Unassigned {
		t.Fatalf("SetCurrent: %+v", st)
	}
}

func TestSetTargetsAtomicVersion(t *testing.T) {
	b := testBroker(t)
	v0 := b.Version()
	b.SetTargets(map[topology.ServerID]reservation.ID{0: 1, 1: 1, 2: 2})
	if b.Version() != v0+1 {
		t.Fatalf("bulk target write must bump version once: %d → %d", v0, b.Version())
	}
	if b.State(2).Target != 2 {
		t.Fatal("target not written")
	}
}

func TestUnavailabilityEventsAndSubscription(t *testing.T) {
	b := testBroker(t)
	var events []Event
	b.Subscribe(func(ev Event) { events = append(events, ev) })

	b.SetUnavailable(3, RandomFailure, 100, 200)
	if got := b.State(3).Unavail; got != RandomFailure {
		t.Fatalf("unavail = %v", got)
	}
	b.ClearUnavailable(3, 150)
	if got := b.State(3).Unavail; got != Available {
		t.Fatalf("after clear: %v", got)
	}
	if len(events) != 2 || events[0].Kind != RandomFailure || events[1].Kind != Available {
		t.Fatalf("events: %+v", events)
	}
	if events[1].Prev != RandomFailure {
		t.Fatalf("recovery event must carry previous kind, got %v", events[1].Prev)
	}

	// Clearing an already-available server must not notify.
	b.ClearUnavailable(3, 160)
	if len(events) != 2 {
		t.Fatal("spurious event on double clear")
	}
}

func TestSetUnavailableAvailableKindClears(t *testing.T) {
	b := testBroker(t)
	b.SetUnavailable(0, ToRFailure, 1, 10)
	b.SetUnavailable(0, Available, 2, 0)
	if b.State(0).Unavail != Available {
		t.Fatal("Available kind must clear")
	}
}

func TestExpireUnavailability(t *testing.T) {
	b := testBroker(t)
	b.SetUnavailable(0, RandomFailure, 0, 100)
	b.SetUnavailable(1, PlannedMaintenance, 0, 300)
	recovered := b.ExpireUnavailability(200)
	if len(recovered) != 1 || recovered[0] != 0 {
		t.Fatalf("recovered = %v", recovered)
	}
	if b.State(1).Unavail != PlannedMaintenance {
		t.Fatal("unexpired event was cleared")
	}
}

func TestUnavailableCount(t *testing.T) {
	b := testBroker(t)
	b.SetUnavailable(0, RandomFailure, 0, 0)
	b.SetUnavailable(1, PlannedMaintenance, 0, 0)
	b.SetUnavailable(2, CorrelatedFailure, 0, 0)
	planned, unplanned := b.UnavailableCount()
	if planned != 1 || unplanned != 2 {
		t.Fatalf("planned=%d unplanned=%d", planned, unplanned)
	}
}

func TestServersInAndCounts(t *testing.T) {
	b := testBroker(t)
	b.SetCurrent(0, 5)
	b.SetCurrent(1, 5)
	b.SetCurrent(2, 6)
	if got := b.ServersIn(5); len(got) != 2 {
		t.Fatalf("ServersIn(5) = %v", got)
	}
	counts := b.CountByReservation()
	if counts[5] != 2 || counts[6] != 1 {
		t.Fatalf("counts: %v", counts)
	}
}

func TestContainersPanicOnNegative(t *testing.T) {
	b := testBroker(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative container count must panic")
		}
	}()
	b.SetContainers(0, -1)
}

func TestSnapshotIsCopy(t *testing.T) {
	b := testBroker(t)
	snap := b.Snapshot()
	snap[0].Current = 99
	if b.State(0).Current == 99 {
		t.Fatal("snapshot aliases broker state")
	}
}

func TestConcurrentMutation(t *testing.T) {
	b := testBroker(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := topology.ServerID(g % len(b.Snapshot()))
			for i := 0; i < 100; i++ {
				b.SetCurrent(id, reservation.ID(i%3))
				b.SetTarget(id, reservation.ID(i%3))
				b.SetUnavailable(id, RandomFailure, int64(i), int64(i+10))
				b.ExpireUnavailability(int64(i + 5))
				b.Snapshot()
				b.CountByReservation()
			}
		}(g)
	}
	wg.Wait()
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[UnavailKind]string{
		Available: "available", RandomFailure: "random-failure",
		ToRFailure: "tor-failure", CorrelatedFailure: "correlated-failure",
		PlannedMaintenance: "planned-maintenance",
	} {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
	if !PlannedMaintenance.Planned() || RandomFailure.Planned() {
		t.Error("Planned()")
	}
	if UnavailKind(9).String() == "" {
		t.Error("unknown kind must stringify")
	}
}

// TestScanInPlace checks both in-place reads: Scan visits every record in
// ascending ID order, ScanReservation exactly the servers a reservation owns
// or borrows, and neither allocates.
func TestScanInPlace(t *testing.T) {
	b := testBroker(t)
	b.SetCurrent(2, 5)
	b.SetCurrent(7, 5)
	b.SetLoan(7, 9) // owned by 5, lent to 9
	b.SetCurrent(4, reservation.SharedBuffer)
	b.SetLoan(4, 5) // borrowed by 5
	var all, in5 []topology.ServerID
	b.Scan(func(st *ServerState) { all = append(all, st.ID) })
	b.ScanReservation(5, func(st *ServerState) { in5 = append(in5, st.ID) })
	if len(all) != len(b.Region().Servers) {
		t.Fatalf("Scan visited %d of %d servers", len(all), len(b.Region().Servers))
	}
	for i, id := range all {
		if id != topology.ServerID(i) {
			t.Fatalf("Scan visited %v, want ascending IDs", all)
		}
	}
	if want := []topology.ServerID{2, 4, 7}; !slices.Equal(in5, want) {
		t.Fatalf("ScanReservation(5) visited %v, want %v", in5, want)
	}
	n := 0
	count := func(*ServerState) { n++ }
	if allocs := testing.AllocsPerRun(10, func() { b.Scan(count); b.ScanReservation(5, count) }); allocs != 0 {
		t.Fatalf("scans allocate %v objects, want 0", allocs)
	}
}

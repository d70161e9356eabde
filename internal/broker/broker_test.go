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

// FuzzChangedSinceCoversWrites applies a fuzzed interleaving of every broker
// write between two snapshots and checks ChangedSince against them: the list
// is ascending and duplicate-free, holds every server whose state differs
// in any field but Target, and holds no server that only target writes
// touched. A version the broker has not reached reports ok == false.
func FuzzChangedSinceCoversWrites(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 1, 2, 4, 3, 6, 4, 8, 0})
	f.Add(byte(2), []byte{6, 5, 4, 5, 1, 5, 2, 7, 7, 5, 8, 9, 3, 3})
	f.Add(byte(1), []byte{1, 0, 2, 4, 1, 8, 6, 10, 5, 11, 8, 200})
	f.Fuzz(func(t *testing.T, before byte, ops []byte) {
		b := testBroker(t)
		n := len(b.Region().Servers)
		var now int64
		touched := make([]bool, n) // by a write other than a target write
		apply := func(op, arg byte) {
			now++
			id := topology.ServerID(int(arg) % n)
			res := reservation.ID(int(arg)%4) - 1 // Unassigned and 0–2
			switch op % 9 {
			case 0:
				b.SetCurrent(id, res)
			case 1:
				b.SetTarget(id, res)
				return
			case 2:
				b.SetTargets(map[topology.ServerID]reservation.ID{id: res, (id + 1) % topology.ServerID(n): res})
				return
			case 3:
				b.SetLoan(id, res)
			case 4:
				b.SetContainers(id, int(arg)%4)
			case 5:
				b.SetFlashWear(id, float64(arg%5)/4)
			case 6:
				b.SetUnavailable(id, UnavailKind(arg%5), now, now+int64(arg%3))
			case 7:
				b.ClearUnavailable(id, now)
			case 8:
				for _, r := range b.ExpireUnavailability(now) {
					touched[r] = true
				}
				return
			}
			touched[id] = true
		}
		split := min(2*int(before), len(ops)&^1)
		for k := 0; k+1 < split; k += 2 {
			apply(ops[k], ops[k+1])
		}
		s0, v0 := b.SnapshotAt()
		clear(touched)
		for k := split; k+1 < len(ops); k += 2 {
			apply(ops[k], ops[k+1])
		}
		s1, v1 := b.SnapshotAt()

		ids, ok := b.ChangedSince(v0)
		if !ok {
			t.Fatalf("ChangedSince(%d) at version %d: ok == false", v0, v1)
		}
		in := make([]bool, n)
		for k, id := range ids {
			if k > 0 && id <= ids[k-1] {
				t.Fatalf("ChangedSince(%d) = %v: not ascending and duplicate-free", v0, ids)
			}
			if !touched[id] {
				t.Fatalf("ChangedSince(%d) lists server %d, which no write but a target write touched", v0, id)
			}
			in[id] = true
		}
		for i := range s1 {
			a, c := s0[i], s1[i]
			a.Target, c.Target = 0, 0
			if a != c && !in[i] {
				t.Fatalf("server %d changed (%+v → %+v) but ChangedSince(%d) = %v", i, s0[i], s1[i], v0, ids)
			}
		}
		if _, ok := b.ChangedSince(v1 + 1); ok {
			t.Fatalf("ChangedSince(%d) at version %d: ok == true for an unreached version", v1+1, v1)
		}
		if ids, ok := b.ChangedSince(v1); !ok || len(ids) != 0 {
			t.Fatalf("ChangedSince(Version()) = %v, %v; want empty, true", ids, ok)
		}
	})
}

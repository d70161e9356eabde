package allocator

import (
	"errors"
	"testing"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
	"ras/internal/workload"
)

func setup(t testing.TB) (*broker.Broker, *Allocator) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		DCs: 1, MSBsPerDC: 1, RacksPerMSB: 2, ServersPerRack: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(region)
	return b, New(b, 8)
}

func bind(b *broker.Broker, res reservation.ID, ids ...topology.ServerID) {
	for _, id := range ids {
		b.SetCurrent(id, res)
	}
}

func TestPlaceWithinReservationOnly(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0, 1)
	bind(b, 2, 2)
	id, err := a.Place(1, "job", 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if c.Server != 0 && c.Server != 1 {
		t.Fatalf("container landed on server %d outside reservation 1", c.Server)
	}
	if _, err := a.Place(3, "job", 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("empty reservation: %v", err)
	}
}

func TestPlaceUpdatesBrokerContainers(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0)
	id, _ := a.Place(1, "job", 1)
	c, _ := a.Get(id)
	if b.State(c.Server).Containers != 1 {
		t.Fatal("broker container count not updated")
	}
	a.Stop(id)
	if b.State(c.Server).Containers != 0 {
		t.Fatal("broker container count not cleared")
	}
}

func TestStackingLimit(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0) // one server, 8 units
	for i := 0; i < 8; i++ {
		if _, err := a.Place(1, "j", 1); err != nil {
			t.Fatalf("placement %d failed: %v", i, err)
		}
	}
	if _, err := a.Place(1, "j", 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("9th unit on an 8-unit server: %v", err)
	}
}

func TestPlaceSizeValidation(t *testing.T) {
	_, a := setup(t)
	if _, err := a.Place(1, "j", 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := a.Place(1, "j", 9); err == nil {
		t.Fatal("oversized container accepted")
	}
}

func TestBestFitPacking(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0, 1)
	// Load server A with 6 units, B empty. A 2-unit container must go to A
	// (most loaded that fits), preserving B's large hole.
	first, _ := a.Place(1, "j", 6)
	fc, _ := a.Get(first)
	second, _ := a.Place(1, "j", 2)
	sc, _ := a.Get(second)
	if sc.Server != fc.Server {
		t.Fatalf("best-fit broke: 2-unit container on %d, want %d", sc.Server, fc.Server)
	}
}

func TestUnavailableServersSkipped(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0)
	b.SetUnavailable(0, broker.RandomFailure, 0, 0)
	if _, err := a.Place(1, "j", 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("placed on failed server: %v", err)
	}
}

func TestLoanedServersServeBorrowerOnly(t *testing.T) {
	b, a := setup(t)
	bind(b, reservation.SharedBuffer, 0)
	b.SetLoan(0, 9) // elastic reservation 9 borrows it
	if _, err := a.Place(reservation.SharedBuffer, "j", 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatal("owner must not use a loaned-out server")
	}
	if _, err := a.Place(9, "j", 1); err != nil {
		t.Fatalf("borrower cannot use the loan: %v", err)
	}
}

func TestEvictAndReschedule(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0, 1)
	ids := make([]ContainerID, 3)
	for i := range ids {
		ids[i], _ = a.Place(1, "j", 2)
	}
	// Find the server with containers and evict it.
	var victim topology.ServerID = -1
	for _, cid := range ids {
		c, _ := a.Get(cid)
		victim = c.Server
		break
	}
	failed := a.Reschedule(victim)
	if len(failed) != 0 {
		t.Fatalf("reschedule failed for %d containers", len(failed))
	}
	if len(a.ContainersOn(victim)) != 0 {
		t.Fatal("containers remain on evicted server")
	}
	if got := len(a.ContainersIn(1)); got != 3 {
		t.Fatalf("reservation has %d containers after reschedule, want 3", got)
	}
}

func TestRescheduleReportsFailures(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0) // single server
	a.Place(1, "j", 8)
	b.SetUnavailable(0, broker.RandomFailure, 0, 0)
	failed := a.Reschedule(0)
	if len(failed) != 1 {
		t.Fatalf("expected 1 unplaceable container, got %d", len(failed))
	}
}

func TestStatsAndFreeUnits(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0, 1)
	a.Place(1, "j", 3)
	p, e, r := a.Stats()
	if p != 1 || e != 0 || r != 1 {
		t.Fatalf("stats: %d %d %d", p, e, r)
	}
	if got := a.FreeUnits(1); got != 13 { // 2×8 − 3
		t.Fatalf("FreeUnits = %d, want 13", got)
	}
	a.Evict(0)
	a.Evict(1)
	_, e, _ = a.Stats()
	if e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}
}

func TestStopMissing(t *testing.T) {
	_, a := setup(t)
	if err := a.Stop(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stop missing: %v", err)
	}
	if _, err := a.Get(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
}

// benchSpec is the round benchmark's region: 3×4×6×24, 1,728 servers.
var benchSpec = topology.GenSpec{DCs: 3, MSBsPerDC: 4, RacksPerMSB: 6, ServersPerRack: 24, Seed: 9}

// filledRegion binds 70 % of the region's servers to eight reservations in
// ID blocks, puts every 50th server in the shared buffer, leaves the rest
// free, and fills every reservation to 60 % of its stacking units with the
// round benchmark's container sizes, the way its set-up does.
func filledRegion(tb testing.TB, spec topology.GenSpec) (*Allocator, []reservation.ID) {
	tb.Helper()
	region, err := topology.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	b := broker.New(region)
	n := len(region.Servers)
	for i := 0; i < n; i++ {
		switch {
		case i%50 == 7:
			b.SetCurrent(topology.ServerID(i), reservation.SharedBuffer)
		case i%10 < 7:
			b.SetCurrent(topology.ServerID(i), reservation.ID(i*8/n))
		}
	}
	a := New(b, 8)
	gen := workload.NewContainerGen(8, 9)
	ids := make([]reservation.ID, 8)
	for r := range ids {
		ids[r] = reservation.ID(r)
		want := len(b.ServersIn(ids[r])) * 8 * 6 / 10
		for used := 0; used < want; {
			units := gen.Next()
			if _, err := a.Place(ids[r], "job", units); err != nil {
				break
			}
			used += units
		}
	}
	return a, ids
}

// TestPlaceAllocs pins a placement to the one container it creates, on a
// 48-server region and on the 1,728-server one alike: Place reads the
// broker in place and never copies the region.
func TestPlaceAllocs(t *testing.T) {
	for _, spec := range []topology.GenSpec{{DCs: 1, MSBsPerDC: 2, RacksPerMSB: 3, ServersPerRack: 8, Seed: 9}, benchSpec} {
		a, ids := filledRegion(t, spec)
		place := func() {
			id, err := a.Place(ids[1], "job", 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Stop(id); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, place); n != 1 {
			t.Fatalf("%d servers: Place and Stop allocate %v objects, want 1 (the container)", len(a.used), n)
		}
	}
}

// BenchmarkPlace places one container of the round benchmark's sizes in
// each reservation in turn on the filled 1,728-server region, and stops it
// again so that the region stays at 60 %.
func BenchmarkPlace(b *testing.B) {
	a, ids := filledRegion(b, benchSpec)
	gen := workload.NewContainerGen(8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := a.Place(ids[i%len(ids)], "job", gen.Next())
		if err == nil {
			err = a.Stop(id)
		}
		if err != nil && !errors.Is(err, ErrNoCapacity) {
			b.Fatal(err)
		}
	}
}

// TestEvictReleasesTheLock: Evict unlocks by hand, before it writes the
// broker, so a path that keeps a.mu fails here at once instead of hanging
// the next allocator call.
func TestEvictReleasesTheLock(t *testing.T) {
	b, a := setup(t)
	bind(b, 1, 0)
	if _, err := a.Place(1, "j", 2); err != nil {
		t.Fatal(err)
	}
	for _, id := range []topology.ServerID{0, 1} { // with and without containers
		if got := a.Evict(id); id == 1 && len(got) != 0 {
			t.Fatalf("Evict(1) returned %d containers from an empty server", len(got))
		}
		if !a.mu.TryLock() {
			t.Fatalf("Evict(%d) returned with the allocator's lock held", id)
		}
		a.mu.Unlock()
	}
}

package mover

import (
	"testing"

	"ras/internal/allocator"
	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

func setup(t testing.TB) (*broker.Broker, *reservation.Store, *allocator.Allocator, *Mover) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		DCs: 1, MSBsPerDC: 2, RacksPerMSB: 2, ServersPerRack: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(region)
	store := reservation.NewStore()
	al := allocator.New(b, 8)
	return b, store, al, New(b, store, al)
}

func TestApplyTargetsMovesServers(t *testing.T) {
	b, _, _, m := setup(t)
	b.SetTarget(0, 5)
	b.SetTarget(1, 5)
	if moved := m.ApplyTargets(0); moved != 2 {
		t.Fatalf("moved %d, want 2", moved)
	}
	if b.State(0).Current != 5 || b.State(1).Current != 5 {
		t.Fatal("current binding not updated")
	}
	if m.ApplyTargets(0) != 0 {
		t.Fatal("idempotent re-apply moved servers")
	}
}

func TestApplyTargetsCountsInUseMoves(t *testing.T) {
	b, _, al, m := setup(t)
	b.SetCurrent(0, 1)
	if _, err := al.Place(1, "job", 2); err != nil {
		t.Fatal(err)
	}
	b.SetCurrent(1, 1) // give the container somewhere to land after eviction
	b.SetTarget(0, 2)
	b.SetTarget(1, 1)
	m.ApplyTargets(0)
	st := m.Stats()
	if st.MovesInUse != 1 {
		t.Fatalf("in-use moves = %d, want 1", st.MovesInUse)
	}
	// The preempted container must have been rescheduled inside res 1.
	if got := len(al.ContainersIn(1)); got != 1 {
		t.Fatalf("container lost during move: %d in reservation", got)
	}
}

func TestProfileSwitchCounting(t *testing.T) {
	b, store, _, m := setup(t)
	idA, _ := store.Create(reservation.Reservation{Name: "a", HostProfile: "kernelA", Policy: reservation.DefaultPolicy()})
	idB, _ := store.Create(reservation.Reservation{Name: "b", HostProfile: "kernelB", Policy: reservation.DefaultPolicy()})
	b.SetCurrent(0, idA)
	b.SetTarget(0, idB)
	m.ApplyTargets(0)
	if m.Stats().ProfileSwitches != 1 {
		t.Fatalf("profile switches = %d, want 1", m.Stats().ProfileSwitches)
	}
}

func TestRandomFailureReplacedFromBuffer(t *testing.T) {
	b, store, _, m := setup(t)
	id, _ := store.Create(reservation.Reservation{Name: "svc", Policy: reservation.DefaultPolicy()})
	// Same hardware type for server 0 and a buffer server.
	victim := topology.ServerID(0)
	victimType := b.Region().Servers[victim].Type
	var buf topology.ServerID = -1
	for i := 1; i < len(b.Region().Servers); i++ {
		if b.Region().Servers[i].Type == victimType {
			buf = topology.ServerID(i)
			break
		}
	}
	if buf < 0 {
		t.Skip("no same-type server in tiny region")
	}
	b.SetCurrent(victim, id)
	b.SetCurrent(buf, reservation.SharedBuffer)

	ev := broker.Event{Server: victim, Kind: broker.RandomFailure, Time: 10}
	b.SetUnavailable(victim, broker.RandomFailure, 10, 1000)
	m.HandleFailure(ev, 10)

	if b.State(buf).Current != id {
		t.Fatalf("buffer server not moved into reservation: %+v", b.State(buf))
	}
	if m.Stats().Replacements != 1 {
		t.Fatalf("replacements = %d", m.Stats().Replacements)
	}
}

func TestReplacementMissRecorded(t *testing.T) {
	b, store, _, m := setup(t)
	id, _ := store.Create(reservation.Reservation{Name: "svc", Policy: reservation.DefaultPolicy()})
	b.SetCurrent(0, id)
	// No buffer servers at all.
	m.HandleFailure(broker.Event{Server: 0, Kind: broker.RandomFailure, Time: 1}, 1)
	if m.Stats().ReplacementMiss != 1 {
		t.Fatalf("miss = %d, want 1", m.Stats().ReplacementMiss)
	}
}

// TestNoReplacementForDeletedReservation: a failed server of a reservation
// the store no longer holds is not replaced — the next solve frees it — so
// the buffer server stays in the buffer.
func TestNoReplacementForDeletedReservation(t *testing.T) {
	b, store, _, m := setup(t)
	id, err := store.Create(reservation.Reservation{Name: "gone", Policy: reservation.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	b.SetCurrent(0, id)
	b.SetCurrent(1, reservation.SharedBuffer)
	if err := store.Delete(id); err != nil {
		t.Fatal(err)
	}

	b.SetUnavailable(0, broker.RandomFailure, 10, 1000)
	m.HandleFailure(broker.Event{Server: 0, Kind: broker.RandomFailure, Time: 10}, 10)

	if got := b.State(1).Current; got != reservation.SharedBuffer {
		t.Fatalf("buffer server 1 bound to %d, the deleted reservation %d", got, id)
	}
	if st := m.Stats(); st.Replacements != 0 {
		t.Fatalf("replacements = %d, want 0", st.Replacements)
	}
}

// TestReplacementHonoursEligibilityOfUnnamedReservation: a reservation's
// eligibility applies whether or not it has a name. The shared buffer holds
// one server, of a type the reservation does not accept, so the failure is a
// miss and the buffer server stays where it is.
func TestReplacementHonoursEligibilityOfUnnamedReservation(t *testing.T) {
	b, store, _, m := setup(t)
	servers := b.Region().Servers
	victim := topology.ServerID(0)
	typeA := servers[victim].Type
	var buf topology.ServerID = -1
	for i := range servers {
		if servers[i].Type != typeA {
			buf = topology.ServerID(i)
			break
		}
	}
	if buf < 0 {
		t.Fatal("the region has a single hardware type")
	}
	id, err := store.Create(reservation.Reservation{EligibleTypes: []int{typeA}, Policy: reservation.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	b.SetCurrent(victim, id)
	b.SetCurrent(buf, reservation.SharedBuffer)

	b.SetUnavailable(victim, broker.RandomFailure, 10, 1000)
	m.HandleFailure(broker.Event{Server: victim, Kind: broker.RandomFailure, Time: 10}, 10)

	if got := b.State(buf).Current; got != reservation.SharedBuffer {
		t.Fatalf("ineligible buffer server %d (type %d) moved into %d (eligible: type %d)", buf, servers[buf].Type, got, typeA)
	}
	if st := m.Stats(); st.ReplacementMiss != 1 || st.Replacements != 0 {
		t.Fatalf("replacements = %d, misses = %d; want 0 and 1", st.Replacements, st.ReplacementMiss)
	}
}

// TestReplacementKeepsSingleDC: a reservation pinned to datacenter 1 is
// never replaced from datacenter 0, whatever the buffer holds there. With
// only a datacenter-0 buffer server the failure is a miss; once datacenter 1
// has one too, that server is taken.
func TestReplacementKeepsSingleDC(t *testing.T) {
	region, err := topology.Generate(topology.GenSpec{DCs: 2, MSBsPerDC: 1, RacksPerMSB: 2, ServersPerRack: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(region)
	store := reservation.NewStore()
	m := New(b, store, allocator.New(b, 8))
	b.Subscribe(func(ev broker.Event) { m.HandleFailure(ev, ev.Time) })
	rsv := reservation.Reservation{Name: "ml", Policy: reservation.Policy{SingleDC: 1}}
	id, err := store.Create(rsv)
	if err != nil {
		t.Fatal(err)
	}
	// Servers the reservation could use by type, in each datacenter.
	var byDC [2][]topology.ServerID
	for _, srv := range region.Servers {
		if rsv.Value(region.Catalog, srv.Type, 1) > 0 {
			byDC[srv.DC] = append(byDC[srv.DC], srv.ID)
		}
	}
	if len(byDC[0]) < 1 || len(byDC[1]) < 3 {
		t.Fatalf("too few servers of an eligible type: %v", byDC)
	}
	outside, inside := byDC[0][0], byDC[1][2]
	victims := byDC[1][:2]
	for _, v := range victims {
		b.SetCurrent(v, id)
	}
	b.SetCurrent(outside, reservation.SharedBuffer)

	b.SetUnavailable(victims[0], broker.RandomFailure, 10, 1000)
	if got := b.State(outside).Current; got != reservation.SharedBuffer {
		t.Fatalf("datacenter-0 buffer server %d moved into %d, which is pinned to datacenter 1", outside, got)
	}
	if st := m.Stats(); st.ReplacementMiss != 1 || st.Replacements != 0 {
		t.Fatalf("replacements = %d, misses = %d; want 0 and 1", st.Replacements, st.ReplacementMiss)
	}

	b.SetCurrent(inside, reservation.SharedBuffer)
	b.SetUnavailable(victims[1], broker.RandomFailure, 20, 1000)
	if b.State(inside).Current != id || b.State(outside).Current != reservation.SharedBuffer {
		t.Fatalf("servers %d (datacenter 1) and %d (datacenter 0) are bound to %d and %d; want %d and the buffer",
			inside, outside, b.State(inside).Current, b.State(outside).Current, id)
	}
	if st := m.Stats(); st.ReplacementMiss != 1 || st.Replacements != 1 {
		t.Fatalf("replacements = %d, misses = %d; want 1 and 1", st.Replacements, st.ReplacementMiss)
	}
}

func TestCorrelatedFailureNoMoverAction(t *testing.T) {
	b, store, _, m := setup(t)
	id, _ := store.Create(reservation.Reservation{Name: "svc", Policy: reservation.DefaultPolicy()})
	b.SetCurrent(0, id)
	b.SetCurrent(1, reservation.SharedBuffer)
	m.HandleFailure(broker.Event{Server: 0, Kind: broker.CorrelatedFailure, Time: 1}, 1)
	if m.Stats().Replacements != 0 {
		t.Fatal("correlated failures must not consume the shared buffer (§3.3.1)")
	}
	if b.State(1).Current != reservation.SharedBuffer {
		t.Fatal("buffer server moved on a correlated failure")
	}
}

func TestFreePoolFailureIgnored(t *testing.T) {
	b, _, _, m := setup(t)
	b.SetCurrent(1, reservation.SharedBuffer)
	m.HandleFailure(broker.Event{Server: 0, Kind: broker.RandomFailure, Time: 1}, 1)
	if m.Stats().Replacements != 0 {
		t.Fatal("free-pool server failure must not trigger replacement")
	}
}

func TestLoanAndRevoke(t *testing.T) {
	b, _, _, m := setup(t)
	b.SetCurrent(0, reservation.SharedBuffer)
	b.SetCurrent(1, reservation.SharedBuffer)
	n := m.LoanIdleBuffers([]reservation.ID{20, 21})
	if n != 2 {
		t.Fatalf("loans = %d, want 2", n)
	}
	if b.State(0).LoanedTo == reservation.Unassigned {
		t.Fatal("loan not recorded")
	}
	// Round-robin across elastic reservations.
	if b.State(0).LoanedTo == b.State(1).LoanedTo {
		t.Fatal("loans not distributed round-robin")
	}
	if got := m.RevokeAllLoans(); got != 2 {
		t.Fatalf("revoked %d, want 2", got)
	}
	if b.State(0).LoanedTo != reservation.Unassigned {
		t.Fatal("loan not revoked")
	}
}

func TestLoanNothingWithoutElastic(t *testing.T) {
	b, _, _, m := setup(t)
	b.SetCurrent(0, reservation.SharedBuffer)
	if m.LoanIdleBuffers(nil) != 0 {
		t.Fatal("loaned without elastic reservations")
	}
}

func TestReplacementPrefersSameTypeAndRevokesLoans(t *testing.T) {
	b, store, _, m := setup(t)
	id, _ := store.Create(reservation.Reservation{Name: "svc", Policy: reservation.DefaultPolicy()})
	victim := topology.ServerID(0)
	victimType := b.Region().Servers[victim].Type
	var same topology.ServerID = -1
	for i := 1; i < len(b.Region().Servers); i++ {
		if b.Region().Servers[i].Type == victimType {
			same = topology.ServerID(i)
			break
		}
	}
	if same < 0 {
		t.Skip("no same-type server")
	}
	b.SetCurrent(victim, id)
	b.SetCurrent(same, reservation.SharedBuffer)
	b.SetLoan(same, 30) // loaned out; must be revoked for failure handling
	b.SetUnavailable(victim, broker.RandomFailure, 5, 50)
	m.HandleFailure(broker.Event{Server: victim, Kind: broker.RandomFailure, Time: 5}, 5)
	if b.State(same).Current != id {
		t.Fatal("loaned buffer server not reclaimed for replacement")
	}
	if m.Stats().Revocations != 1 {
		t.Fatalf("revocations = %d, want 1", m.Stats().Revocations)
	}
}

func TestResetStats(t *testing.T) {
	b, _, _, m := setup(t)
	b.SetTarget(0, 3)
	m.ApplyTargets(0)
	m.ResetStats()
	st := m.Stats()
	if st != (Stats{}) {
		t.Fatalf("ResetStats did not clear: %+v", st)
	}
}

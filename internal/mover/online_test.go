package mover

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ras/internal/allocator"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/topology"
	"ras/internal/workload"
)

// twin wires one deployment twice over the same region and reservation
// store: the allocator and mover on one broker, their references
// (allocator_ref_test.go, mover_ref_test.go) on another. Every op goes to
// both sides, and check requires that they agree on everything observable.
type twin struct {
	t       testing.TB
	region  *topology.Region
	store   *reservation.Store
	res     []reservation.ID // guaranteed reservations
	elastic []reservation.ID
	b, rb   *broker.Broker
	a       *allocator.Allocator
	ra      *refAllocator
	m       *Mover
	rm      *refMover
	ids     []allocator.ContainerID // containers that may still run
	now     int64
	seen    map[string]int // how often each interesting case occurred
}

// newTwin builds the seeded deployment: a small region, three guaranteed
// reservations (one restricted to a single hardware type), two elastic ones,
// and every server free, in the shared buffer or bound at random.
func newTwin(t testing.TB, seed int64) *twin {
	rng := rand.New(rand.NewSource(seed))
	region, err := topology.Generate(topology.GenSpec{
		DCs: 1 + int(seed%2), MSBsPerDC: 2, RacksPerMSB: 2 + int(seed%3), ServersPerRack: 3 + int(seed%4), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{t: t, region: region, store: reservation.NewStore(), seen: map[string]int{}}
	classes := []hardware.Class{hardware.Web, hardware.DataStore, hardware.Feed1}
	for i, class := range classes {
		r := reservation.Reservation{Name: fmt.Sprintf("svc%d", i), Class: class, Policy: reservation.DefaultPolicy()}
		if i == 2 {
			r.EligibleTypes = []int{region.Servers[rng.Intn(len(region.Servers))].Type}
		}
		tw.res = append(tw.res, tw.create(r))
	}
	for i := 0; i < 2; i++ {
		tw.elastic = append(tw.elastic, tw.create(reservation.Reservation{
			Name: fmt.Sprintf("elastic%d", i), Elastic: true, Policy: reservation.DefaultPolicy(),
		}))
	}
	tw.b, tw.rb = broker.New(region), broker.New(region)
	tw.a, tw.ra = allocator.New(tw.b, 8), newRefAllocator(tw.rb, 8)
	tw.m = New(tw.b, tw.store, tw.a)
	tw.rm = &refMover{broker: tw.rb, region: region, store: tw.store, alloc: tw.ra}
	tw.b.Subscribe(func(ev broker.Event) { tw.m.HandleFailure(ev, ev.Time) })
	tw.rb.Subscribe(func(ev broker.Event) { tw.rm.HandleFailure(ev, ev.Time) })
	for i := range region.Servers {
		if x := rng.Intn(10); x >= 2 {
			tw.setCurrent(topology.ServerID(i), tw.binding(byte(x)))
		}
	}
	return tw
}

func (tw *twin) create(r reservation.Reservation) reservation.ID {
	id, err := tw.store.Create(r)
	if err != nil {
		tw.t.Fatal(err)
	}
	return id
}

// binding maps a byte to a server binding: a guaranteed reservation, the
// shared buffer or the free pool.
func (tw *twin) binding(y byte) reservation.ID {
	switch i := int(y) % (len(tw.res) + 2); i {
	case len(tw.res):
		return reservation.SharedBuffer
	case len(tw.res) + 1:
		return reservation.Unassigned
	default:
		return tw.res[i]
	}
}

func (tw *twin) setCurrent(id topology.ServerID, res reservation.ID) {
	tw.b.SetCurrent(id, res)
	tw.rb.SetCurrent(id, res)
}

// apply runs one op, chosen by op, on both sides; x and y pick its operands.
func (tw *twin) apply(op, x, y byte) {
	t := tw.t
	server := topology.ServerID(int(x) % len(tw.region.Servers))
	switch op % 12 {
	case 0, 1, 2: // place any size, 0 and 9 included, in any reservation
		res := tw.binding(x)
		if x%8 == 0 {
			res = tw.elastic[int(x/8)%len(tw.elastic)]
		}
		units := int(y) % 10
		id, err := tw.a.Place(res, "job", units)
		rid, rerr := tw.ra.Place(res, "job", units)
		if id != rid || fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("Place(%d, %d) = %d, %v; reference %d, %v", res, units, id, err, rid, rerr)
		}
		if errors.Is(err, allocator.ErrNoCapacity) {
			tw.seen["no capacity"]++
		}
		if err != nil {
			break
		}
		tw.ids = append(tw.ids, id)
		if c, err := tw.a.Get(id); err == nil && tw.b.State(c.Server).LoanedTo == res {
			tw.seen["borrowed placement"]++
		}
	case 3: // stop a container, or one that does not exist
		id := allocator.ContainerID(1 << 40)
		if len(tw.ids) > 0 && y%8 != 0 {
			id = tw.ids[int(x)%len(tw.ids)]
		}
		if err, rerr := tw.a.Stop(id), tw.ra.Stop(id); err != rerr {
			t.Fatalf("Stop(%d) = %v; reference %v", id, err, rerr)
		}
	case 4:
		if got, want := tw.a.Evict(server), tw.ra.Evict(server); !reflect.DeepEqual(got, want) {
			t.Fatalf("Evict(%d) = %v; reference %v", server, got, want)
		}
	case 5:
		if got, want := tw.a.Reschedule(server), tw.ra.Reschedule(server); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reschedule(%d) failed %v; reference %v", server, got, want)
		}
	case 6:
		tw.setCurrent(server, tw.binding(y))
	case 7: // lend the server to an elastic reservation, or end its loan
		to := reservation.Unassigned
		if y%3 != 0 {
			to = tw.elastic[int(y)%len(tw.elastic)]
		}
		tw.b.SetLoan(server, to)
		tw.rb.SetLoan(server, to)
	case 8:
		elastic := tw.elastic[:int(y)%(len(tw.elastic)+1)]
		if got, want := tw.m.LoanIdleBuffers(elastic), tw.rm.LoanIdleBuffers(elastic); got != want {
			t.Fatalf("LoanIdleBuffers = %d; reference %d", got, want)
		}
	case 9:
		if y%2 == 0 {
			tw.m.RevokeAllLoansFor(server)
			tw.rm.RevokeAllLoansFor(server)
		} else if got, want := tw.m.RevokeAllLoans(), tw.rm.RevokeAllLoans(); got != want {
			t.Fatalf("RevokeAllLoans = %d; reference %d", got, want)
		}
	case 10: // any kind of failure, lasting one to four hours
		kind := broker.UnavailKind(1 + int(y)%4)
		until := tw.now + 3600*int64(1+int(y/4)%4)
		tw.b.SetUnavailable(server, kind, tw.now, until)
		tw.rb.SetUnavailable(server, kind, tw.now, until)
	case 11: // one server recovers, or an hour passes and expired events clear
		if y%2 == 0 {
			tw.b.ClearUnavailable(server, tw.now)
			tw.rb.ClearUnavailable(server, tw.now)
			break
		}
		tw.now += 3600
		if got, want := tw.b.ExpireUnavailability(tw.now), tw.rb.ExpireUnavailability(tw.now); !reflect.DeepEqual(got, want) {
			t.Fatalf("ExpireUnavailability = %v; reference %v", got, want)
		}
	}
}

// check requires both sides to agree on every server record and broker
// version, the mover's and the allocator's counters, every container and
// every reservation's free units. Containers gone on both sides are dropped
// from the list.
func (tw *twin) check(step int) {
	t := tw.t
	if got, want := tw.b.Snapshot(), tw.rb.Snapshot(); !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: server %d is %+v; reference %+v", step, i, got[i], want[i])
			}
		}
	}
	if got, want := tw.b.Version(), tw.rb.Version(); got != want {
		t.Fatalf("step %d: broker version %d; reference %d", step, got, want)
	}
	if got, want := tw.m.Stats(), tw.rm.stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: mover stats %+v; reference %+v", step, got, want)
	}
	p, e, r := tw.a.Stats()
	rp, re, rr := tw.ra.Stats()
	if p != rp || e != re || r != rr {
		t.Fatalf("step %d: allocator stats %d %d %d; reference %d %d %d", step, p, e, r, rp, re, rr)
	}
	live := tw.ids[:0]
	for _, id := range tw.ids {
		c, err := tw.a.Get(id)
		rc, rerr := tw.ra.Get(id)
		if c != rc || err != rerr {
			t.Fatalf("step %d: container %d is %+v, %v; reference %+v, %v", step, id, c, err, rc, rerr)
		}
		if err == nil {
			live = append(live, id)
		}
	}
	tw.ids = live
	for _, res := range append(append([]reservation.ID(nil), tw.res...), tw.elastic...) {
		if got, want := tw.a.FreeUnits(res), tw.ra.FreeUnits(res); got != want {
			t.Fatalf("step %d: FreeUnits(%d) = %d; reference %d", step, res, got, want)
		}
	}
}

// TestAllocatorMatchesReference drives the allocator and the mover's
// failure and loan paths, and the references they replaced, through the same
// seeded op sequences on 32 regions: placements of every size (invalid ones
// included) in guaranteed, elastic, buffer and free-pool reservations,
// stops, evictions, reschedules, rebinding, loans and revocations, failures
// of every kind and recoveries. Both sides must return the same container
// IDs, servers, errors and counters, and leave the brokers identical.
func TestAllocatorMatchesReference(t *testing.T) {
	seen := map[string]int{}
	var stats Stats
	for seed := int64(1); seed <= 32; seed++ {
		tw := newTwin(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 600; step++ {
			tw.apply(byte(rng.Intn(12)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			tw.check(step)
		}
		for k, n := range tw.seen {
			seen[k] += n
		}
		st := tw.m.Stats()
		stats.Replacements += st.Replacements
		stats.ReplacementMiss += st.ReplacementMiss
		stats.Loans += st.Loans
		stats.Revocations += st.Revocations
		stats.Unplaced += st.Unplaced
	}
	t.Logf("cases: %v; mover: %+v", seen, stats)
	if seen["borrowed placement"] == 0 || seen["no capacity"] == 0 || stats.Replacements == 0 || stats.ReplacementMiss == 0 ||
		stats.Loans == 0 || stats.Revocations == 0 || stats.Unplaced == 0 {
		t.Fatalf("the sequences exercise too little: %v, %+v", seen, stats)
	}
}

// FuzzAllocatorMatchesReference is TestAllocatorMatchesReference for any op
// stream: ops is read three bytes at a time (op, x, y) on one of the test's
// 32 regions.
func FuzzAllocatorMatchesReference(f *testing.F) {
	f.Add(uint8(1), []byte{0, 9, 4, 0, 17, 6, 10, 9, 0, 3, 0, 1})              // place, fail a busy server, stop
	f.Add(uint8(2), []byte{6, 3, 3, 7, 3, 1, 0, 8, 2, 0, 8, 8, 9, 0, 1})       // buffer server lent, borrowed, revoked
	f.Add(uint8(3), []byte{0, 1, 8, 0, 2, 8, 0, 3, 8, 10, 1, 2, 11, 0, 1})     // full servers, a correlated failure, expiry
	f.Add(uint8(4), []byte{8, 0, 2, 10, 5, 0, 10, 6, 4, 9, 0, 1, 5, 2, 0})     // loans, then failures reclaim the buffer
	f.Add(uint8(5), []byte{0, 5, 0, 0, 5, 9, 4, 5, 0, 3, 0, 0, 6, 5, 3})       // invalid sizes, eviction, missing stop
	f.Add(uint8(6), []byte{2, 0, 1, 1, 4, 2, 5, 7, 0, 10, 7, 1, 11, 7, 0})     // reschedule, ToR failure, recovery
	f.Add(uint8(7), []byte{0, 16, 3, 0, 24, 3, 7, 9, 1, 0, 8, 3, 10, 9, 2, 9}) // elastic placements on borrowed servers
	f.Fuzz(func(t *testing.T, region uint8, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		tw := newTwin(t, 1+int64(region)%32)
		for i := 0; i+2 < len(ops); i += 3 {
			tw.apply(ops[i], ops[i+1], ops[i+2])
			tw.check(i / 3)
		}
	})
}

// strandedContainers lists the containers of the reservations that sit on a
// server the reservation neither owns nor borrows.
func strandedContainers(b *broker.Broker, al *allocator.Allocator, res ...reservation.ID) []allocator.Container {
	var out []allocator.Container
	for _, r := range res {
		for _, c := range al.ContainersIn(r) {
			st := b.State(c.Server)
			if !(st.Current == r && st.LoanedTo == reservation.Unassigned || st.LoanedTo == r) {
				out = append(out, c)
			}
		}
	}
	return out
}

// TestApplyTargetsNeverStrandsContainers moves two servers out of one
// reservation in one pass. Best fit reschedules the first one's container
// onto the second (both are empty, the lower ID wins), which leaves later in
// the same pass: it must be drained in turn, not carried into the other
// reservation with the container. When nothing is left to take the
// container, it is counted as unplaced.
func TestApplyTargetsNeverStrandsContainers(t *testing.T) {
	b, _, al, m := setup(t)
	const from, to = 1, 2
	for _, id := range []topology.ServerID{0, 1, 2} {
		b.SetCurrent(id, from)
		b.SetTarget(id, from)
	}
	if _, err := al.Place(from, "job", 6); err != nil {
		t.Fatal(err)
	}
	b.SetTarget(0, to)
	b.SetTarget(1, to)
	if moved := m.ApplyTargets(0); moved != 2 {
		t.Fatalf("moved %d servers, want 2", moved)
	}
	if s := strandedContainers(b, al, from, to); len(s) > 0 {
		t.Fatalf("containers stranded outside their reservation: %+v", s)
	}
	if cs := al.ContainersOn(2); len(cs) != 1 {
		t.Fatalf("server 2 runs %d containers, want the one rescheduled twice", len(cs))
	}
	if st := m.Stats(); st.MovesInUse != 2 || st.MovesUnused != 0 || st.Unplaced != 0 {
		t.Fatalf("stats %+v: want 2 in-use moves and nothing unplaced", st)
	}

	// Servers 3 and 4 are all of reservation 3, and both leave.
	b.SetCurrent(3, 3)
	b.SetCurrent(4, 3)
	if _, err := al.Place(3, "job", 4); err != nil {
		t.Fatal(err)
	}
	b.SetTarget(3, to)
	b.SetTarget(4, to)
	m.ApplyTargets(0)
	if s := strandedContainers(b, al, 3, to); len(s) > 0 {
		t.Fatalf("containers stranded outside their reservation: %+v", s)
	}
	if got := m.Stats().Unplaced; got != 1 {
		t.Fatalf("unplaced = %d, want 1", got)
	}
}

// benchDeployment is the round benchmark's region (3×4×6×24, seed 9) with
// 70 % of its servers bound to eight reservations in ID blocks, every 50th
// server in the shared buffer and the rest free, every reservation filled
// to 60 % of its stacking units with the benchmark's container sizes.
func benchDeployment(tb testing.TB) (*broker.Broker, *Mover, []topology.ServerID) {
	region, err := topology.Generate(topology.GenSpec{DCs: 3, MSBsPerDC: 4, RacksPerMSB: 6, ServersPerRack: 24, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	b := broker.New(region)
	al := allocator.New(b, 8)
	n := len(region.Servers)
	var free []topology.ServerID
	for i := 0; i < n; i++ {
		id := topology.ServerID(i)
		switch {
		case i%50 == 7:
			b.SetCurrent(id, reservation.SharedBuffer)
		case i%10 < 7:
			b.SetCurrent(id, reservation.ID(i*8/n))
		default:
			free = append(free, id)
		}
	}
	gen := workload.NewContainerGen(8, 9)
	for res := reservation.ID(0); res < 8; res++ {
		want := len(b.ServersIn(res)) * 8 * 6 / 10
		for used := 0; used < want; {
			units := gen.Next()
			if _, err := al.Place(res, "job", units); err != nil {
				break
			}
			used += units
		}
	}
	return b, New(b, nil, al), free
}

// TestApplyTargetsAllocs pins ApplyTargets with nothing pending to no
// allocation at all: the region is scanned in place, never copied.
func TestApplyTargetsAllocs(t *testing.T) {
	_, m, _ := benchDeployment(t)
	if n := testing.AllocsPerRun(20, func() { m.ApplyTargets(0) }); n != 0 {
		t.Fatalf("ApplyTargets with nothing pending allocates %v objects, want 0", n)
	}
}

// BenchmarkApplyTargets runs a quiet round's 0–4 pending moves on
// benchDeployment's region: each iteration retargets the next 0…4 free
// servers (into reservation 0, or back to the free pool) and applies them.
func BenchmarkApplyTargets(b *testing.B) {
	br, m, free := benchDeployment(b)
	in := make([]bool, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < i%5; j++ {
			in[j] = !in[j]
			to := reservation.Unassigned
			if in[j] {
				to = 0
			}
			br.SetTarget(free[j], to)
		}
		m.ApplyTargets(0)
	}
}

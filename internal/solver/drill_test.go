package solver_test

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ras"
	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/mip"
	"ras/internal/partition"
	"ras/internal/solver"
)

// seamDeadline is a context whose deadline passes at the at-th read of the
// clock seam it also serves, Now and Since alike: from that read on Err
// reports context.DeadlineExceeded, and every context derived from it (a
// solve phase's own deadline) expires with it, synchronously, through
// AfterFunc. It records which Now reads solvePhase took, so a drill can name
// the read that starts a phase's MIP.
type seamDeadline struct {
	clock.Clock
	at     int64
	reads  atomic.Int64
	phases []int64 // the reads solvePhase took, in order

	mu    sync.Mutex
	done  chan struct{}
	err   error
	after []*afterFunc
}

type afterFunc struct {
	f       func()
	stopped bool
}

func newSeamDeadline(at int64) *seamDeadline {
	return &seamDeadline{Clock: clock.System, at: at, done: make(chan struct{})}
}

func (c *seamDeadline) Now() time.Time {
	now, k := c.read()
	if pc, _, _, ok := runtime.Caller(2); ok && strings.HasSuffix(runtime.FuncForPC(pc).Name(), "solver.solvePhase") {
		c.phases = append(c.phases, k)
	}
	return now
}

func (c *seamDeadline) Since(t time.Time) time.Duration {
	now, _ := c.read()
	return now.Sub(t)
}

// read counts one read of the seam, expiring the deadline if it is due.
func (c *seamDeadline) read() (time.Time, int64) {
	now := c.Clock.Now()
	k := c.reads.Add(1)
	if k == c.at {
		c.expire()
	}
	return now, k
}

func (c *seamDeadline) expire() {
	c.mu.Lock()
	c.err = context.DeadlineExceeded
	close(c.done)
	var run []func()
	for _, a := range c.after {
		if !a.stopped {
			a.stopped = true
			run = append(run, a.f)
		}
	}
	c.mu.Unlock()
	for _, f := range run {
		f()
	}
}

func (c *seamDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *seamDeadline) Done() <-chan struct{}       { return c.done }
func (c *seamDeadline) Value(any) any               { return nil }

func (c *seamDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc arranges for f to run when the deadline passes; context.With*
// uses it to expire derived contexts at that same moment.
func (c *seamDeadline) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := &afterFunc{f: f}
	c.after = append(c.after, a)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		was := a.stopped
		a.stopped = true
		return !was
	}
}

// drillRig is a settled two-level deployment driven through ras.System.Solve
// with quiet rounds: two free-pool servers fail, last round's come back.
type drillRig struct {
	sys   *ras.System
	cfg   solver.Config
	k     int // the pop backend's partition count; 0 under mip
	now   ras.Clock
	down  []ras.ServerID
	round int
	// cold holds, per solver result of a round (one under mip, one per
	// partition under pop), the fingerprints of a cold build of each cached
	// phase model's input.
	cold [][2]uint64
}

// newDrillRig settles a deployment solved by the backend opts names; the
// rig sets opts.Solver.
func newDrillRig(t *testing.T, opts ras.Options) *drillRig {
	t.Helper()
	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "drill", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 6, ServersPerRack: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &drillRig{cfg: solver.Config{MaxNodes: 100, SharedBufferFraction: -1}, k: opts.Partitions}
	opts.Solver = d.cfg
	d.sys = ras.NewSystem(region, opts)
	for _, r := range []ras.Reservation{
		{Name: "web", Class: ras.Web, RRUs: 30, CountBased: true, Policy: ras.DefaultPolicy()},
		{Name: "feed1", Class: ras.Feed1, RRUs: 32, CountBased: true, Policy: ras.DefaultPolicy()},
		{Name: "feed2", Class: ras.Feed2, RRUs: 34, CountBased: true, Policy: ras.DefaultPolicy()},
	} {
		if _, err := d.sys.CreateReservation(r); err != nil {
			t.Fatal(err)
		}
	}
	for still := 0; still < 2 && d.round < 20; {
		res, _ := d.solve(t, context.Background(), nil)
		if res.Moves.InUse+res.Moves.Unused == 0 {
			still++
		} else {
			still = 0
		}
	}
	return d
}

// input is what the next round will solve: the broker as it stands.
func (d *drillRig) input() solver.Input {
	return solver.Input{Region: d.sys.Region(), Reservations: d.sys.Reservations().All(), States: d.sys.Broker().Snapshot()}
}

// quiet runs one round's events: last round's failures come back and two
// free-pool servers fail.
func (d *drillRig) quiet() {
	b := d.sys.Broker()
	for _, id := range d.down {
		b.ClearUnavailable(id, int64(d.now))
	}
	d.down = d.down[:0]
	var free []ras.ServerID
	b.Scan(func(st *broker.ServerState) {
		if st.Unavail == broker.Available && st.Current == ras.Unassigned {
			free = append(free, st.ID)
		}
	})
	for _, k := range []int{d.round, 5*d.round + 2} {
		id := free[k%len(free)]
		if len(d.down) == 0 || d.down[0] != id {
			d.down = append(d.down, id)
		}
	}
	for _, id := range d.down {
		b.SetUnavailable(id, broker.RandomFailure, int64(d.now), int64(d.now)+1000)
	}
}

// subInputs lists the solver inputs a round over in solves: in itself under
// mip, each partition's sub-problem under pop.
func (d *drillRig) subInputs(t *testing.T, in solver.Input) []solver.Input {
	t.Helper()
	if d.k == 0 {
		return []solver.Input{in}
	}
	plan, err := partition.Split(in.Region, in.States, d.k)
	if err != nil {
		t.Fatal(err)
	}
	demands := partition.SplitDemands(in.Region, in.States, in.Reservations, plan)
	subs := make([]solver.Input, plan.K)
	for p := range subs {
		subs[p] = solver.Input{Region: in.Region, Reservations: demands[p], States: in.States, Subset: plan.Subsets[p]}
	}
	return subs
}

// solve runs one round through ras.System.Solve, on seam's clock unless seam
// is nil, and returns it with the input it solved; it records the
// fingerprints of a cold build of that input (of each partition's, under
// pop) for every phase the round ran.
func (d *drillRig) solve(t *testing.T, ctx context.Context, seam clock.Clock) (*ras.SolveResult, solver.Input) {
	t.Helper()
	in := d.input()
	d.round++
	d.now++
	restore := func() {}
	if seam != nil {
		restore = clock.Override(seam)
	}
	res, err := d.sys.Solve(ctx, d.now)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == ras.SolveNoSolution {
		t.Fatalf("round %d: %v", d.round, res.Status)
	}
	cfg := d.cfg
	cfg.SetupOnly = true
	subs, ran := d.subInputs(t, in), res.SolverResults()
	if len(subs) != len(ran) {
		t.Fatalf("round %d solved %d sub-problems, the input splits into %d", d.round, len(ran), len(subs))
	}
	d.cold = slices.Grow(d.cold, len(subs))[:len(subs)]
	for p, sub := range subs {
		cold, err := solver.SolveWarm(context.Background(), sub, cfg, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		fp := solver.PhaseFingerprints(cold.Warm)
		d.cold[p][0] = fp[0]
		switch {
		case !ran[p].RanPhase2:
		case d.k > 0:
			// A pop sub-solve's phase 1 moves servers (its share of a
			// reservation is not what its partition holds), and a set-up-only
			// build's rack phase starts from where they are.
			d.cold[p][1] = solver.RackFingerprint(sub, d.cfg, ran[p].Warm)
		default:
			d.cold[p][1] = fp[1]
		}
	}
	return res, in
}

// checkModels requires every phase model the system caches (each
// partition's, under pop) to be the model a cold build of its input makes:
// an abandoned search leaves no bound and no warm-start point behind.
func (d *drillRig) checkModels(t *testing.T, what string) {
	t.Helper()
	for p, r := range d.sys.LastSolve().SolverResults() {
		got := solver.PhaseFingerprints(r.Warm)
		for k := range got {
			if got[k] != d.cold[p][k] {
				t.Fatalf("%s: sub-problem %d phase %d model fingerprint %x, a cold build of its input %x",
					what, p, k+1, got[k], d.cold[p][k])
			}
		}
	}
}

// checkCapacity recounts expression 6 from the round's targets: every
// reservation's usable servers, less its most-loaded MSB, cover its request.
func checkCapacity(t *testing.T, what string, in solver.Input, res *ras.SolveResult) {
	t.Helper()
	region := in.Region
	for _, r := range in.Reservations {
		perMSB := make([]float64, region.NumMSBs)
		total, worst := 0.0, 0.0
		for i, tgt := range res.Targets {
			if tgt != r.ID || !in.States[i].Usable() {
				continue
			}
			srv := &region.Servers[i]
			v := r.Value(region.Catalog, srv.Type, srv.DC)
			total += v
			perMSB[srv.MSB] += v
			worst = math.Max(worst, perMSB[srv.MSB])
		}
		if total-worst < r.RRUs-1e-6 {
			t.Errorf("%s: %s has %.1f RRUs, %.1f beyond its worst MSB, want %.1f", what, r.Name, total, total-worst, r.RRUs)
		}
	}
}

// TestDeadlineDrills runs a deadline into a quiet round through
// ras.System.Solve, once as phase 1's MIP starts and once as the rack phase's
// does — the read of the clock seam that times the MIP step, counted in an
// uncut quiet round — and then two quiet rounds. The cut round is not an
// error and its targets are never worse than where it started, by Evaluate;
// afterwards every model the system caches is the model a cold build of its
// input makes, and the rounds that follow complete and keep every capacity
// guarantee.
func TestDeadlineDrills(t *testing.T) {
	for _, phase := range []int{1, 2} {
		t.Run(map[int]string{1: "phase1", 2: "phase2"}[phase], func(t *testing.T) {
			d := newDrillRig(t, ras.Options{Workers: 1})

			// An uncut quiet round names the read: solvePhase reads the seam
			// once for the patch and once for the MIP step of each phase.
			d.quiet()
			probe := newSeamDeadline(-1)
			res, _ := d.solve(t, context.Background(), probe)
			if !res.MIP.Phase1.ModelPatched || !res.MIP.RanPhase2 || !res.MIP.Phase2.ModelPatched || len(probe.phases) != 4 {
				t.Fatalf("probe round: patched %v/%v, rack phase %v, solvePhase read the clock %d times, want a quiet round's 4",
					res.MIP.Phase1.ModelPatched, res.MIP.Phase2.ModelPatched, res.MIP.RanPhase2, len(probe.phases))
			}

			d.quiet()
			cut := newSeamDeadline(probe.phases[2*phase-1])
			res, in := d.solve(t, cut, cut)
			if cut.Err() == nil {
				t.Fatalf("the deadline never passed: %d clock reads, due at %d", cut.reads.Load(), cut.at)
			}
			r := res.MIP
			if r.Cancelled || res.Status == ras.SolveCancelled {
				t.Fatalf("a deadline reported as cancellation: %v", res.Status)
			}
			cutPhase, ranPhase2 := r.Phase1, false
			if phase == 2 {
				cutPhase, ranPhase2 = r.Phase2, true
				if r.Phase1.Status != mip.Optimal {
					t.Fatalf("phase 1 ended %v before a deadline due in the rack phase", r.Phase1.Status)
				}
			}
			if cutPhase.Status != mip.Feasible || r.RanPhase2 != ranPhase2 {
				t.Fatalf("cut phase ended %v, rack phase ran %v; want feasible, %v", cutPhase.Status, r.RanPhase2, ranPhase2)
			}
			start := make([]ras.ReservationID, len(in.States))
			for i := range in.States {
				start[i] = in.States[i].Current
			}
			if got, was := solver.Evaluate(in, d.cfg, res.Targets).Objective, solver.Evaluate(in, d.cfg, start).Objective; got > was+1e-9 {
				t.Fatalf("the cut round's targets score %.6f, its start %.6f", got, was)
			}
			d.checkAfterCut(t)
		})
	}
}

// checkAfterCut requires every model the system caches to be the model a
// cold build of its input makes, after the cut round and through two more
// quiet rounds that complete and keep every capacity guarantee.
func (d *drillRig) checkAfterCut(t *testing.T) {
	t.Helper()
	d.checkModels(t, "after the cut round")

	for k := 1; k <= 2; k++ {
		d.quiet()
		res, in := d.solve(t, context.Background(), nil)
		what := map[int]string{1: "first round after", 2: "second round after"}[k]
		if res.Status != ras.SolveOptimal && res.Status != ras.SolveFeasible {
			t.Fatalf("%s: %v", what, res.Status)
		}
		d.checkModels(t, what)
		checkCapacity(t, what, in, res)
	}
}

// TestPOPDeadlineDrill runs a deadline into a quiet pop round after every
// sub-solve's search has returned: at the clock-seam read that times the last
// sub-solve's last MIP step, counted in the same round of an identical rig
// left uncut (a pop round's partitions patch or rebuild as the plan moves, so
// the round before would not do). The merge is then recombined past the
// deadline — RecombineTargets polls neither the context nor the clock — and
// the round is neither an error nor a cancellation. Its targets are the
// uncut round's, so they score as that round's do by Evaluate, and keep
// every capacity guarantee; afterwards every partition model the system
// caches is the model a cold build of its input makes. (Scoring against the
// round's start, as TestDeadlineDrills does, would fail uncut as well: on
// this rig every quiet pop round moves four or five idle servers for
// nothing but their stability cost.)
func TestPOPDeadlineDrill(t *testing.T) {
	opts := ras.Options{Backend: "pop", Partitions: 2, Workers: 1}
	twin, d := newDrillRig(t, opts), newDrillRig(t, opts)

	// The uncut twin names the read: the last solvePhase read starts the
	// last sub-solve's last MIP step, the next one times it, and only the
	// round's Elapsed follows.
	twin.quiet()
	probe := newSeamDeadline(-1)
	uncut, _ := twin.solve(t, context.Background(), probe)
	last := probe.phases[len(probe.phases)-1]
	if uncut.POP == nil || uncut.POP.Partitions != 2 || probe.reads.Load() != last+2 {
		t.Fatalf("probe round: pop detail %v, %d clock reads after the last MIP step started, want 2",
			uncut.POP != nil, probe.reads.Load()-last)
	}

	d.quiet()
	cut := newSeamDeadline(last + 1)
	res, in := d.solve(t, cut, cut)
	if cut.Err() == nil || !slices.Equal(cut.phases, probe.phases) {
		t.Fatalf("the deadline passed %v at read %d of %d; solvePhase read the clock at %v, the probe at %v",
			cut.Err() != nil, cut.at, cut.reads.Load(), cut.phases, probe.phases)
	}
	if res.Status == ras.SolveCancelled {
		t.Fatalf("a deadline reported as cancellation: %v", res.Status)
	}
	for p, sub := range res.POP.Subs {
		was := uncut.POP.Subs[p]
		if sub.Cancelled || sub.Phase1.Status != was.Phase1.Status || sub.Phase2.Status != was.Phase2.Status {
			t.Fatalf("sub-solve %d: cancelled %v, phases ended %v/%v, uncut %v/%v; want searches that returned before the deadline",
				p, sub.Cancelled, sub.Phase1.Status, sub.Phase2.Status, was.Phase1.Status, was.Phase2.Status)
		}
	}
	if !slices.Equal(res.Targets, uncut.Targets) {
		got, want := solver.Evaluate(in, d.cfg, res.Targets), solver.Evaluate(in, d.cfg, uncut.Targets)
		t.Fatalf("the cut round's targets differ from the uncut round's: they score %+v, the uncut ones %+v", got, want)
	}
	checkCapacity(t, "the cut round", in, res)
	d.checkAfterCut(t)
}

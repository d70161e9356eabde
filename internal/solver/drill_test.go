package solver_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ras"
	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/mip"
	"ras/internal/solver"
)

// seamDeadline is a context whose deadline passes at the at-th read of the
// clock seam it also serves: from that read on Err reports
// context.DeadlineExceeded, and every context derived from it (a solve
// phase's own deadline) expires with it, synchronously, through AfterFunc.
// It records which reads solvePhase took, so a drill can name the read that
// starts a phase's MIP.
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
	now := c.Clock.Now()
	k := c.reads.Add(1)
	if pc, _, _, ok := runtime.Caller(2); ok && strings.HasSuffix(runtime.FuncForPC(pc).Name(), "solver.solvePhase") {
		c.phases = append(c.phases, k)
	}
	if k == c.at {
		c.expire()
	}
	return now
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
	now   ras.Clock
	down  []ras.ServerID
	round int
	cold  [2]uint64 // fingerprints of a cold build of each cached model's input
}

func newDrillRig(t *testing.T) *drillRig {
	t.Helper()
	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "drill", DCs: 2, MSBsPerDC: 2, RacksPerMSB: 6, ServersPerRack: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &drillRig{cfg: solver.Config{MaxNodes: 100, SharedBufferFraction: -1}}
	d.sys = ras.NewSystem(region, ras.Options{Solver: d.cfg, Workers: 1})
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
		res, _ := d.solve(t, context.Background())
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

// solve runs one round through ras.System.Solve and returns it with the input
// it solved; it records the fingerprints of a cold build of that input for
// every phase the round ran.
func (d *drillRig) solve(t *testing.T, ctx context.Context) (*ras.SolveResult, solver.Input) {
	t.Helper()
	in := d.input()
	d.round++
	d.now++
	res, err := d.sys.Solve(ctx, d.now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == ras.SolveNoSolution {
		t.Fatalf("round %d: %v", d.round, res.Status)
	}
	cfg := d.cfg
	cfg.SetupOnly = true
	cold, err := solver.SolveWarm(context.Background(), in, cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp := solver.PhaseFingerprints(cold.Warm)
	d.cold[0] = fp[0]
	if res.MIP.RanPhase2 {
		d.cold[1] = fp[1]
	}
	return res, in
}

// checkModels requires every phase model the system caches to be the model a
// cold build of its input makes: an abandoned search leaves no bound and no
// warm-start point behind.
func (d *drillRig) checkModels(t *testing.T, what string) {
	t.Helper()
	got := solver.PhaseFingerprints(d.sys.LastSolve().Warm.MIP)
	for k := range got {
		if got[k] != d.cold[k] {
			t.Fatalf("%s: phase %d model fingerprint %x, a cold build of its input %x", what, k+1, got[k], d.cold[k])
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
			v := r.ValueAt(region.Catalog, srv.Type, srv.DC)
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
			d := newDrillRig(t)

			// An uncut quiet round names the read: solvePhase reads the seam
			// once for the patch and once for the MIP step of each phase.
			d.quiet()
			probe := newSeamDeadline(-1)
			restore := clock.Override(probe)
			res, _ := d.solve(t, context.Background())
			restore()
			if !res.MIP.Phase1.ModelPatched || !res.MIP.RanPhase2 || !res.MIP.Phase2.ModelPatched || len(probe.phases) != 4 {
				t.Fatalf("probe round: patched %v/%v, rack phase %v, solvePhase read the clock %d times, want a quiet round's 4",
					res.MIP.Phase1.ModelPatched, res.MIP.Phase2.ModelPatched, res.MIP.RanPhase2, len(probe.phases))
			}

			d.quiet()
			cut := newSeamDeadline(probe.phases[2*phase-1])
			restore = clock.Override(cut)
			res, in := d.solve(t, cut)
			restore()
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
			d.checkModels(t, "after the cut round")

			for k := 1; k <= 2; k++ {
				d.quiet()
				res, in := d.solve(t, context.Background())
				what := map[int]string{1: "first round after", 2: "second round after"}[k]
				if res.Status != ras.SolveOptimal && res.Status != ras.SolveFeasible {
					t.Fatalf("%s: %v", what, res.Status)
				}
				d.checkModels(t, what)
				checkCapacity(t, what, in, res)
			}
		})
	}
}

// Package localsearch implements a local-search backend for the RAS
// placement objectives. The paper (§6) describes ReBalancer, Facebook's
// common optimization library, which "can choose different backend solvers
// to solve an optimization problem": a MIP solver for RAS (quality,
// minutes-scale) and a local-search solver for Shard Manager (near-realtime,
// seconds-scale). This package is that second backend, implemented over the
// same model as internal/solver — capacity with embedded MSB buffers,
// fault-domain spread, movement costs — so the two can be compared directly
// (see BenchmarkBackendLocalSearch).
//
// The algorithm is steepest-of-sample hill climbing over single-server
// moves: acquire from the free pool, release surplus, or reassign between
// reservations. All objective terms are maintained incrementally, so a step
// costs O(candidates) regardless of region size.
package localsearch

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// Config tunes the search. Zero values select defaults. The search prices
// moves with the solver's default weights (solver.Config.WithDefaults) and
// each reservation's resolved policy, so both backends score one objective.
type Config struct {
	// TimeLimit bounds the search. Zero means 2s.
	TimeLimit time.Duration
	// MaxSteps bounds accepted moves. Zero means 100000.
	MaxSteps int
	// Candidates is the sample size per step. Zero means 48.
	Candidates int
	// Seed drives candidate sampling. The search is deterministic given a
	// seed, a start count, and an input.
	Seed int64
	// Starts is the number of independent hill-climbing starts racing in
	// parallel; the best final assignment wins. Zero or one runs the exact
	// single-start search. Every start derives its RNG seed
	// deterministically from Seed and its start index, so results are
	// reproducible regardless of scheduling or GOMAXPROCS, and start 0
	// always equals the single-start search with the same Seed.
	Starts int
}

func (c Config) withDefaults() Config {
	if c.TimeLimit == 0 {
		c.TimeLimit = 2 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 100000
	}
	if c.Candidates == 0 {
		c.Candidates = 48
	}
	return c
}

// WarmState is the cross-round reuse seam of the local-search backend: the
// previous round's final assignment. SolveWarm seeds every climb's starting
// point from it instead of the broker's current bindings, so consecutive
// rounds of the continuous-optimization loop resume where the last one left
// off. State that no longer fits — a different server count, an assignment
// to a reservation that disappeared, a server that became ineligible — is
// ignored binding by binding, falling back to the broker's view.
type WarmState struct {
	Targets []reservation.ID
}

// Result is the outcome of a search.
type Result struct {
	// Targets maps every server to its assigned reservation.
	Targets []reservation.ID
	// Objective is the final internal objective value.
	Objective float64
	// Steps is the number of accepted moves.
	Steps int
	// Evaluated is the number of candidate moves scored.
	Evaluated int
	// Elapsed is the search wall-clock time.
	Elapsed time.Duration
	Moves   solver.MoveStats
	// Cancelled reports that the solve context was cancelled before the
	// search converged or exhausted its budget; Targets hold the best
	// assignment reached (every accepted move only ever improved it).
	Cancelled bool
	// Starts is the number of independent climbs that ran; BestStart is
	// the index of the one whose assignment won (ties go to the lowest
	// index, so the winner is deterministic). Steps and Evaluated are the
	// winning climb's own counts.
	Starts    int
	BestStart int
}

// state is the incremental evaluation state.
type state struct {
	w      solver.Config // the objective weights
	region *topology.Region
	in     solver.Input

	rsvs   []reservation.Reservation // non-elastic reservations, policies resolved
	resIdx map[reservation.ID]int

	assign  []reservation.ID // current assignment per server (-1 free)
	usable  []bool
	inUse   []bool
	value   [][]float64 // value[ri][server]
	loadMSB [][]float64 // loadMSB[ri][msb]
	total   []float64   // total[ri]

	moved []bool // server deviated from its original assignment
}

// Solve runs the local search and returns the assignment.
//
// ctx bounds the search together with Config.TimeLimit: the context is
// polled between steps (and during seeding), so cancellation aborts within
// one candidate-sampling round and returns the best assignment found, with
// Result.Cancelled set. A cancelled search is not an error.
func Solve(ctx context.Context, in solver.Input, cfg Config) (*Result, error) {
	return SolveWarm(ctx, in, cfg, nil)
}

// SolveWarm is Solve with a cross-round warm start: every climb begins from
// the previous round's assignment (see WarmState) instead of the broker's
// current bindings. nil warm — or warm state for a different server count —
// reproduces Solve exactly.
func SolveWarm(ctx context.Context, in solver.Input, cfg Config, warm *WarmState) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //raslint:allow ctxflow nil ctx defaults to Background at the public API boundary
	}
	if in.Region == nil {
		return nil, fmt.Errorf("localsearch: nil region")
	}
	if len(in.States) != len(in.Region.Servers) {
		return nil, fmt.Errorf("localsearch: %d states for %d servers", len(in.States), len(in.Region.Servers))
	}
	if warm != nil && len(warm.Targets) != len(in.Region.Servers) {
		warm = nil // shape drift: fall back to a cold start
	}
	cfg = cfg.withDefaults()
	start := clock.Now()

	// Independent climbs: start 0 on the calling goroutine, the others on
	// their own. Each start's RNG seed is a pure function of (Seed, index), so
	// any scheduling order produces the same per-start results and therefore
	// — with the lowest-index tie break below — the same winner.
	results := make([]*Result, max(cfg.Starts, 1))
	var wg sync.WaitGroup
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Start i owns results[i] exclusively; wg.Wait() orders the
			// writes before the winner scan reads them.
			results[i] = climb(ctx, in, cfg, startSeed(cfg.Seed, i), warm)
		}(i)
	}
	results[0] = climb(ctx, in, cfg, startSeed(cfg.Seed, 0), warm)
	wg.Wait()
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].Objective < results[best].Objective {
			best = i
		}
	}
	res := results[best]
	res.Starts = len(results)
	res.BestStart = best
	res.Elapsed = clock.Since(start)
	res.Cancelled = ctx.Err() == context.Canceled
	return res, nil
}

// startSeed derives the deterministic RNG seed of start i: a golden-ratio
// stride keeps consecutive starts' rand streams well separated, and start 0
// is the base seed itself so Starts=1 reproduces the single-start search.
func startSeed(base int64, i int) int64 {
	const stride = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	return base + int64(i)*stride
}

// climb runs one full hill-climbing search (seeding, steepest-of-sample
// loop, result assembly) with the given RNG seed. Each climb owns all of
// its state, so any number may run concurrently on one input.
func climb(ctx context.Context, in solver.Input, cfg Config, seed int64, warm *WarmState) *Result {
	start := clock.Now()
	s := newState(in)
	s.seedWarm(warm)
	rng := rand.New(rand.NewSource(seed))
	res := &Result{}

	// Greedy waterfill seeding: single-server hill climbing cannot escape
	// the plateau where a short reservation's only eligible free servers
	// sit in its own most-loaded MSB, so fill shortfalls upfront by always
	// acquiring into the least-loaded eligible MSB.
	res.Steps += s.waterfillSeed(ctx)

	deadline := start.Add(cfg.TimeLimit)
	nServers := len(in.Region.Servers)
	for res.Steps < cfg.MaxSteps {
		if ctx.Err() != nil {
			break
		}
		if clock.Now().After(deadline) {
			break
		}
		// Sample candidate moves, keep the steepest improvement.
		bestDelta := -1e-9
		bestServer, bestTo := -1, reservation.Unassigned
		for c := 0; c < cfg.Candidates; c++ {
			sid := topology.ServerID(rng.Intn(nServers))
			if !s.usable[sid] {
				continue
			}
			var to reservation.ID
			if rng.Intn(len(s.rsvs)+1) == len(s.rsvs) {
				to = reservation.Unassigned
			} else {
				to = s.rsvs[rng.Intn(len(s.rsvs))].ID
			}
			if to == s.assign[sid] {
				continue
			}
			res.Evaluated++
			if d := s.delta(sid, to); d < bestDelta {
				bestDelta, bestServer, bestTo = d, int(sid), to
			}
		}
		if bestServer < 0 {
			// Sample found nothing; occasionally that is just sampling
			// noise, so only give up after several consecutive dry rounds.
			if res.Evaluated > 0 && res.Steps == 0 && res.Evaluated > 20*cfg.Candidates {
				break
			}
			dry := true
			for c := 0; c < 4*cfg.Candidates && dry; c++ {
				sid := topology.ServerID(rng.Intn(nServers))
				if !s.usable[sid] {
					continue
				}
				for ri := range s.rsvs {
					to := s.rsvs[ri].ID
					if to != s.assign[sid] && s.delta(sid, to) < -1e-9 {
						dry = false
						break
					}
				}
			}
			if dry {
				break
			}
			continue
		}
		s.apply(topology.ServerID(bestServer), bestTo)
		res.Steps++
	}

	res.Targets = append([]reservation.ID(nil), s.assign...)
	res.Objective = s.objective()
	res.Elapsed = clock.Since(start)
	// Explicit cancellation only: a ctx deadline expiring is a time budget
	// running out, indistinguishable from Config.TimeLimit (Feasible).
	res.Cancelled = ctx.Err() == context.Canceled
	for i := range in.States {
		st := &in.States[i]
		if st.Current == res.Targets[i] || st.Current == reservation.Unassigned || !s.usable[i] {
			continue
		}
		if s.inUse[i] {
			res.Moves.InUse++
		} else {
			res.Moves.Unused++
		}
	}
	return res
}

func newState(in solver.Input) *state {
	s := &state{w: solver.Config{}.WithDefaults(), region: in.Region, in: in, resIdx: map[reservation.ID]int{}}
	for _, r := range in.Reservations {
		if r.Elastic {
			continue
		}
		r.Policy = r.Policy.Resolve(in.Region.NumMSBs, in.Region.NumRacks)
		s.resIdx[r.ID] = len(s.rsvs)
		s.rsvs = append(s.rsvs, r)
	}
	n := len(in.Region.Servers)
	s.assign = make([]reservation.ID, n)
	s.usable = make([]bool, n)
	s.inUse = make([]bool, n)
	s.moved = make([]bool, n)
	s.value = make([][]float64, len(s.rsvs))
	s.loadMSB = make([][]float64, len(s.rsvs))
	s.total = make([]float64, len(s.rsvs))
	for ri := range s.rsvs {
		s.value[ri] = make([]float64, n)
		s.loadMSB[ri] = make([]float64, in.Region.NumMSBs)
		for i := range in.Region.Servers {
			ty := in.Region.Servers[i].Type
			v := hardware.RRU(in.Region.Catalog.Type(ty), s.rsvs[ri].Class)
			if !s.rsvs[ri].Eligible(ty, v) {
				v = 0
			} else if s.rsvs[ri].CountBased {
				v = 1
			}
			if p := s.rsvs[ri].Policy; p.SingleDC >= 0 && in.Region.Servers[i].DC != p.SingleDC {
				v = 0
			}
			s.value[ri][i] = v
		}
	}
	for i := range in.States {
		st := &in.States[i]
		s.usable[i] = st.Unavail == broker.Available || st.Unavail == broker.PlannedMaintenance
		s.inUse[i] = st.Containers > 0 && st.LoanedTo == reservation.Unassigned
		s.assign[i] = reservation.Unassigned
		if !s.usable[i] {
			continue
		}
		if ri, ok := s.resIdx[st.Current]; ok {
			if v := s.value[ri][i]; v > 0 {
				s.assign[i] = st.Current
				s.loadMSB[ri][in.Region.Servers[i].MSB] += v
				s.total[ri] += v
			}
		}
	}
	return s
}

// seedWarm rebinds servers to the previous round's assignment (shape already
// validated by SolveWarm). Each binding is applied only where it is still
// legal — server usable, reservation still present, server still eligible —
// so arbitrary drift between rounds degrades gracefully toward the broker
// seeding of newState instead of poisoning the start point.
func (s *state) seedWarm(warm *WarmState) {
	if warm == nil {
		return
	}
	for i, want := range warm.Targets {
		sid := topology.ServerID(i)
		if !s.usable[i] || want == s.assign[sid] {
			continue
		}
		if want == reservation.Unassigned {
			s.apply(sid, want)
			continue
		}
		if ri, ok := s.resIdx[want]; ok && s.value[ri][sid] > 0 {
			s.apply(sid, want)
		}
	}
}

// waterfillSeed acquires free servers for every reservation whose
// buffer-adjusted capacity is short, always into the least-loaded MSB with
// eligible free servers, until the shortfall closes or the pool runs dry.
// Cancelling ctx stops seeding between acquisitions.
func (s *state) waterfillSeed(ctx context.Context) (acquired int) {
	// Free eligible servers per (reservation, MSB).
	freeByMSB := make([][]topology.ServerID, s.region.NumMSBs)
	for i := range s.assign {
		if s.usable[i] && s.assign[i] == reservation.Unassigned {
			msb := s.region.Servers[i].MSB
			freeByMSB[msb] = append(freeByMSB[msb], topology.ServerID(i))
		}
	}
	for ri := range s.rsvs {
		r := &s.rsvs[ri]
		for guard := 0; guard < len(s.assign); guard++ {
			if acquired&63 == 0 && ctx.Err() != nil {
				return acquired
			}
			maxMSB := 0.0
			for _, v := range s.loadMSB[ri] {
				if v > maxMSB {
					maxMSB = v
				}
			}
			if s.total[ri]-maxMSB >= r.RRUs {
				break
			}
			// Least-loaded MSB with an eligible free server.
			bestMSB, bestLoad := -1, 0.0
			var bestSrv topology.ServerID
			for msb := range freeByMSB {
				for _, sid := range freeByMSB[msb] {
					if s.value[ri][sid] <= 0 {
						continue // ineligible; keep scanning this MSB
					}
					if bestMSB == -1 || s.loadMSB[ri][msb] < bestLoad {
						bestMSB, bestLoad, bestSrv = msb, s.loadMSB[ri][msb], sid
					}
					break // first eligible server of the MSB is enough
				}
			}
			if bestMSB == -1 {
				break // pool dry for this reservation
			}
			s.apply(bestSrv, r.ID)
			acquired++
			// Drop the used server from the free index.
			lst := freeByMSB[bestMSB]
			for k, sid := range lst {
				if sid == bestSrv {
					freeByMSB[bestMSB] = append(lst[:k], lst[k+1:]...)
					break
				}
			}
		}
	}
	return acquired
}

// resObjective scores one reservation's terms from its load vector.
func (s *state) resObjective(ri int) float64 {
	r := &s.rsvs[ri]
	maxMSB := 0.0
	spread := 0.0
	for _, v := range s.loadMSB[ri] {
		if v > maxMSB {
			maxMSB = v
		}
		if over := v - r.Policy.SpreadMSB*r.RRUs; over > 0 {
			spread += over
		}
	}
	obj := s.w.Tau*maxMSB + s.w.Beta*spread
	if short := r.RRUs - (s.total[ri] - maxMSB); short > 0 {
		obj += s.w.SoftPenalty * short
	}
	// Shaping term: the buffer-adjusted shortfall above is blind to the
	// very first servers of a reservation (total and maxMSB rise together),
	// which strands hill climbing on a plateau. Penalizing the raw total
	// shortfall too — never larger than the real term — keeps downhill
	// gradient without changing the zero set.
	if shortT := r.RRUs - s.total[ri]; shortT > 0 {
		obj += s.w.SoftPenalty * shortT
	}
	return obj
}

// moveCost prices a server's deviation from its original assignment.
func (s *state) moveCost(sid topology.ServerID, to reservation.ID) float64 {
	orig := s.in.States[sid].Current
	if orig == reservation.Unassigned || orig == to {
		return 0
	}
	if s.inUse[sid] {
		return s.w.MoveCostInUse
	}
	return s.w.MoveCostIdle
}

// objective computes the full objective (used once at the end; the search
// itself uses deltas).
func (s *state) objective() float64 {
	obj := 0.0
	for ri := range s.rsvs {
		obj += s.resObjective(ri)
	}
	for i := range s.assign {
		obj += s.moveCost(topology.ServerID(i), s.assign[i])
	}
	return obj
}

// delta scores moving server sid to reservation `to` (or the free pool).
func (s *state) delta(sid topology.ServerID, to reservation.ID) float64 {
	from := s.assign[sid]
	if from == to {
		return 0
	}
	if to != reservation.Unassigned {
		ri, ok := s.resIdx[to]
		if !ok || s.value[ri][sid] <= 0 {
			return 1e18 // ineligible
		}
	}
	d := 0.0
	d -= s.moveCost(sid, from)
	d += s.moveCost(sid, to)
	msb := s.region.Servers[sid].MSB
	if from != reservation.Unassigned {
		ri := s.resIdx[from]
		before := s.resObjective(ri)
		v := s.value[ri][sid]
		s.loadMSB[ri][msb] -= v
		s.total[ri] -= v
		d += s.resObjective(ri) - before
		s.loadMSB[ri][msb] += v
		s.total[ri] += v
	}
	if to != reservation.Unassigned {
		ri := s.resIdx[to]
		before := s.resObjective(ri)
		v := s.value[ri][sid]
		s.loadMSB[ri][msb] += v
		s.total[ri] += v
		d += s.resObjective(ri) - before
		s.loadMSB[ri][msb] -= v
		s.total[ri] -= v
	}
	return d
}

// apply commits a move.
func (s *state) apply(sid topology.ServerID, to reservation.ID) {
	from := s.assign[sid]
	msb := s.region.Servers[sid].MSB
	if from != reservation.Unassigned {
		ri := s.resIdx[from]
		v := s.value[ri][sid]
		s.loadMSB[ri][msb] -= v
		s.total[ri] -= v
	}
	if to != reservation.Unassigned {
		ri := s.resIdx[to]
		v := s.value[ri][sid]
		s.loadMSB[ri][msb] += v
		s.total[ri] += v
	}
	s.assign[sid] = to
	s.moved[sid] = s.in.States[sid].Current != to
}

// Package solver implements the RAS Async Solver: the continuous,
// region-wide optimizer that assigns servers to reservations by solving a
// mixed-integer program (paper §3.5).
//
// The MIP model follows §3.5.3 exactly:
//
//	minimize  Σ M_s·max(0, X_{s,r} − x_{s,r})                    (1) stability
//	        + β·Σ max(0, Σ_G V·x − αK·C_r)  over racks G          (2) rack spread
//	        + β·Σ max(0, Σ_G V·x − αF·C_r)  over MSBs G           (3) MSB spread
//	        + τ·Σ_r max_G Σ_G V·x           over MSBs G           (4) buffer min
//	s.t.      Σ_r x_{s,r} ≤ 1                                     (5) assignment
//	          Σ V·x − max_G Σ_G V·x ≥ C_r                         (6) embedded buffer
//	          |Σ_G V·x − A_{r,G}·C_r| ≤ θ·C_r  over DCs G         (7) network affinity
//
// Two production techniques make the MIP tractable (§3.5.2):
//
//   - Symmetry exploitation: servers identical under the model (same
//     hardware type, same location scope, same current reservation, same
//     in-use state) are merged into a single integer count variable.
//   - Phased solving: phase 1 solves the whole region at MSB granularity;
//     phase 2 re-solves rack-level goals for the reservations with the worst
//     rack objectives, under an assignment-variable cap.
//
// Constraints 6 and 7 are softened with bounded slacks so that no constraint
// can regress below its violation in the incumbent assignment (§3.5.1), and
// unresolved slack carries a penalty far above every other objective.
package solver

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/floats"
	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Phase-2 selection limits (§3.5.2). Production refines 10% of reservations
// under a 5M-variable cap; nothing here has needed other values.
const (
	phase2MaxVars     = 20000 // cap on phase-2 assignment variables
	phase2ResFraction = 0.1   // share of reservations refined in phase 2
)

// Config tunes the solver. Zero values select documented defaults. The
// spread and affinity limits αF, αK and θ are per-reservation policy
// (reservation.Policy), not solver settings.
type Config struct {
	// Beta is β, the penalty per RRU beyond a spread threshold. Zero = 3.
	Beta float64
	// Tau is τ, the penalty per RRU of correlated-failure buffer. Zero = 3.
	Tau float64
	// MoveCostInUse is M_s for servers with running containers. Zero = 10.
	MoveCostInUse float64
	// MoveCostIdle is M_s for idle servers ("virtually free", 10× smaller
	// in production). Zero = 1.
	MoveCostIdle float64
	// SoftPenalty prices one unit of softened-constraint slack. Zero = 1000.
	SoftPenalty float64

	// Phase1TimeLimit / Phase2TimeLimit bound each phase's MIP step. Zero
	// means 10s each (production: a joint one-hour SLO).
	Phase1TimeLimit time.Duration
	Phase2TimeLimit time.Duration
	// MaxNodes bounds branch-and-bound nodes per phase. Zero = 400.
	MaxNodes int
	// StallNodes, when positive, stops a phase's search after that many
	// consecutive nodes with no incumbent or bound improvement while the
	// absolute gap is at most StallGap — cutting the long proving tail on
	// degenerate instances where the bound sits flat under a near-optimal
	// incumbent. Zero keeps the search running to MaxNodes. The stop is
	// keyed to node counts, so Workers=1 solves stay deterministic.
	StallNodes int
	// StallGap is the absolute-gap ceiling for the stall rule, in objective
	// units (one in-use preemption costs MoveCostInUse). Zero disables it.
	StallGap float64
	// DisableRackPhase skips phase 2 entirely.
	DisableRackPhase bool
	// Workers is the branch-and-bound worker count for each phase's MIP
	// solve, already resolved by the caller (backend.Options resolves zero
	// to runtime.NumCPU()). ≤ 1 keeps the exact serial search; values above
	// one enable the parallel engine (see mip.Options.Workers).
	Workers int
	// SetupOnly builds both phases (RAS build, solver build, initial state)
	// but skips the MIP step. Used by the Figure 10/11 scalability sweeps,
	// which measure exactly those three steps.
	SetupOnly bool

	// SharedBufferFraction sizes the shared random-failure buffer as a
	// fraction of total region capacity (§3.3.1; production: 2%).
	// Negative disables the buffer; zero means 0.02.
	SharedBufferFraction float64

	// WearPenalty enables IO-aware placement (paper §5.2, "SSD burnout
	// reduction through IO-aware server assignments"): assigning a flash
	// server to a flash-consuming reservation costs WearPenalty per wear
	// bucket (4 buckets over [0,1]), steering storage onto fresh drives.
	// Zero disables; wear buckets then do not split symmetry groups.
	WearPenalty float64

	// numMSBs and numRacks are the solved region's shape, recorded by
	// withDefaults: newSpec resolves each reservation's policy against them.
	numMSBs, numRacks int
}

// withDefaults returns c with every zero field set to its documented
// default, for a solve over region.
func (c Config) withDefaults(region *topology.Region) Config {
	c.numMSBs, c.numRacks = region.NumMSBs, region.NumRacks
	if floats.ExactZero(c.Beta) {
		c.Beta = 3
	}
	if floats.ExactZero(c.Tau) {
		c.Tau = 3
	}
	if floats.ExactZero(c.MoveCostInUse) {
		c.MoveCostInUse = 10
	}
	if floats.ExactZero(c.MoveCostIdle) {
		c.MoveCostIdle = 1
	}
	if floats.ExactZero(c.SoftPenalty) {
		c.SoftPenalty = 1000
	}
	if c.Phase1TimeLimit == 0 {
		c.Phase1TimeLimit = 10 * time.Second
	}
	if c.Phase2TimeLimit == 0 {
		c.Phase2TimeLimit = 10 * time.Second
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 400
	}
	if floats.ExactZero(c.SharedBufferFraction) {
		c.SharedBufferFraction = 0.02
	}
	return c
}

// moveCost is M_s of expression 1: what moving a server out of its current
// reservation costs, MoveCostInUse when the move preempts its containers
// (broker.ServerState.MovePreempts).
func (c *Config) moveCost(preempts bool) float64 {
	if preempts {
		return c.MoveCostInUse
	}
	return c.MoveCostIdle
}

// PhaseWarm is one phase's persisted cross-round warm-start state: the model
// round k built or patched, the root relaxation's optimal basis on it (nil
// when the MIP did not run), and the LP workspace that root ran on.
// Consecutive RAS rounds solve near-identical MIPs. When the next round
// arrives with a Delta whose Since matches the model's StatesVersion, the
// phase patches the model in place and hands the basis to its root LP as it
// is, with ws — which holds the simplex structure of the model and, while
// nothing was solved after the root, the factorization of Basis
// (mip.Options.RootWorkspace). A round that rebuilds the model — for
// whatever reason — rewrites the basis onto the new one by identity first
// (builtPhase.carryBasis: the model's layout names every column and row by
// what it is), and never sees ws. The model is mutated by the next solve, so
// a WarmState must feed at most one solve at a time.
type PhaseWarm struct {
	Basis *lp.Basis
	model *builtPhase
	ws    *lp.Workspace
}

// WarmState is the cross-round warm-start state of the two-phase solver.
// Feed a round's Result.Warm to the next round's SolveWarm; a nil WarmState
// solves cold. The zero value is ready to use.
type WarmState struct {
	Phase1 PhaseWarm
	Phase2 PhaseWarm
	// pools is the storage of the round's two server pools, phase 1's and
	// the rack phase's, which the next round refills.
	pools [2][]topology.ServerID
}

// Input is one solve's snapshot of the world (Figure 6 step 2).
type Input struct {
	Region *topology.Region
	// Reservations are the guaranteed reservations to satisfy. Elastic
	// reservations are ignored: they receive capacity from the online
	// mover's buffer loans, not from the solver.
	Reservations []reservation.Reservation
	// States is the broker snapshot, indexed by ServerID.
	States []broker.ServerState
	// Subset, when non-nil, restricts the solve to the listed servers (a
	// POP-style sub-region) without rebuilding Region or States: grouping,
	// buffer sizing, and move accounting consider only subset members, and
	// Targets outside the subset stay reservation.Unassigned. IDs must be
	// ascending and duplicate-free. nil solves the whole region.
	Subset []topology.ServerID
	// StatesVersion is the broker snapshot version States was taken at
	// (broker.SnapshotAt). Zero means "unversioned": the round solves fine
	// but its models cannot serve as a patch base for later deltas.
	StatesVersion uint64
	// Delta, when non-nil, names the earlier round whose StatesVersion
	// equals Delta.Since and the capacity requests logged since, opting
	// this round into the incremental model build: phases with a cached
	// model from that round patch it in place, finding the changed servers
	// by comparing each server's model inputs with the cache, and fall back
	// to a cold rebuild when the change breaks model structure. nil always
	// rebuilds. Region topology must be
	// unchanged between the rounds (the same *Region pointer).
	Delta *Delta
}

// subsetMask materializes Subset as a per-server bitmap (nil when the whole
// region is in scope).
func (in Input) subsetMask() []bool {
	if in.Subset == nil {
		return nil
	}
	mask := make([]bool, len(in.Region.Servers))
	for _, id := range in.Subset {
		mask[id] = true
	}
	return mask
}

// hasReservation reports whether id is one of the input's reservations.
func (in Input) hasReservation(id reservation.ID) bool {
	for i := range in.Reservations {
		if in.Reservations[i].ID == id {
			return true
		}
	}
	return false
}

// validateSubset checks Subset is ascending, duplicate-free, and in range.
func (in Input) validateSubset() error {
	prev := topology.ServerID(-1)
	for _, id := range in.Subset {
		if id < 0 || int(id) >= len(in.Region.Servers) {
			return fmt.Errorf("solver: subset server %d out of range [0,%d)", id, len(in.Region.Servers))
		}
		if id <= prev {
			return fmt.Errorf("solver: subset not ascending/duplicate-free at server %d", id)
		}
		prev = id
	}
	return nil
}

// PhaseStats instruments one solve phase, mirroring the paper's
// Figure 8 breakdown (RAS build / solver build / initial state / MIP) and
// the Figure 9/10/11 metrics.
type PhaseStats struct {
	AssignVars   int // n_{g,r} count variables (the paper's x-axis metric)
	ModelVars    int // total MIP variables incl. auxiliaries
	ModelRows    int
	Groups       int // symmetry equivalence classes
	RASBuild     time.Duration
	SolverBuild  time.Duration
	InitialState time.Duration
	MIP          time.Duration
	Status       mip.Status
	Objective    float64
	Bound        float64
	// RootBound is the root relaxation's optimum (mip.Result.RootObjective):
	// Objective − RootBound is the gap the search had to close. CutRows counts
	// the rounding cuts that tighten it (rack-level models only).
	RootBound float64
	CutRows   int
	// GapPreemptions expresses the optimality gap in units of in-use server
	// preemptions (Figure 9's "proven optimal within N preemptions").
	GapPreemptions float64
	// SoftSlack is the total remaining softened-constraint violation; zero
	// means all initially broken constraints were fixed. Unserviceable
	// requests contribute their full shortfall.
	SoftSlack float64
	// ResidualSlack names the softened rows the solution leaves violated by
	// more than 1e-6, capacity rows first, then affinity rows, each in spec
	// order (§5.3: explain capacity decisions to service owners).
	ResidualSlack []SlackResidual
	// Unserviceable lists reservations no usable server can serve at all
	// (e.g. a SingleDC policy pointing at a datacenter with no eligible
	// hardware). Surfacing the reason is a §5.3 operability requirement:
	// "when a capacity request gets rejected ... the rejection message
	// needs to explain the reason".
	Unserviceable []string
	Nodes         int
	// LP is everything the phase's LP workspaces did (mip.Result.LP): volume,
	// how warm starts fared, factorization work. LPSolves, LPIters and
	// LPLimited repeat LP.Solves, LP.Iterations and LP.IterLimited under the
	// names benchmark/driver.go reads.
	LP        lp.Stats
	LPSolves  int
	LPIters   int
	LPLimited int
	// RootLPIters counts the simplex iterations of the phase's root
	// relaxation alone, and WarmRoot reports that this root LP was completed
	// from the previous round's basis — together they quantify what the
	// cross-round warm start saved. When a basis was on offer,
	// RootBasisOffered is its column count and RootBasisKept how many of
	// those columns exist in this round's model (all of them when the model
	// was patched); RootBasisMismatch reports that fewer than half did, in
	// which case the basis is not used. RootCold is why the root LP abandoned
	// a basis it was given (lp.ColdNone when it held or none was given).
	RootLPIters       int
	WarmRoot          bool
	RootBasisKept     int
	RootBasisOffered  int
	RootBasisMismatch bool
	RootCold          lp.ColdReason
	// ModelPatched reports that this phase's model was patched in place
	// from the previous round's cache instead of rebuilt; RASBuild and
	// InitialState are then zero and SolverBuild is the patch time.
	ModelPatched bool
	// Rebuild says why a round that carried a Delta rebuilt this phase's
	// model all the same; RebuildNone when it was patched or no Delta asked.
	Rebuild RebuildReason
	// Workers is the resolved branch-and-bound worker count the phase ran
	// with; IncumbentUpdates and HeuristicWins break down where its
	// incumbents came from (see mip.Result).
	Workers          int
	IncumbentUpdates int
	HeuristicWins    int
}

// SlackResidual is one softened row's remaining violation.
type SlackResidual struct {
	Row    string // "capacity[<reservation>]" or "affinity[<reservation>,dc<k>]"
	Amount float64
}

// Total reports the phase's wall-clock total.
func (p PhaseStats) Total() time.Duration {
	return p.RASBuild + p.SolverBuild + p.InitialState + p.MIP
}

// MoveStats counts server moves produced by a solve (Figure 16).
type MoveStats struct {
	InUse  int // moves that preempt running containers
	Unused int // moves of idle or loaned-out servers
}

// Result is the output of one continuous-optimization round.
type Result struct {
	// Targets maps every server to its target reservation
	// (reservation.Unassigned for free-pool servers, reservation.SharedBuffer
	// for the shared random-failure buffer).
	Targets []reservation.ID
	Phase1  PhaseStats
	Phase2  PhaseStats
	Moves   MoveStats
	// RanPhase2 reports whether the rack phase executed.
	RanPhase2 bool
	// Phase2Reservations lists the reservations refined in phase 2.
	Phase2Reservations []reservation.ID
	// Cancelled reports that the solve context was cancelled before the
	// round completed. Targets still hold the best incumbent assignment
	// (falling back to the current assignment for phases that never produced
	// one), and the phase stats record how far the search got.
	Cancelled bool
	// Warm is the cross-round warm-start state to feed the next round's
	// SolveWarm (always non-nil; phases that exported no basis leave their
	// PhaseWarm basis nil, which the next round treats as a cold start).
	Warm *WarmState
}

// TotalTime reports the full allocation time across phases.
func (r *Result) TotalTime() time.Duration { return r.Phase1.Total() + r.Phase2.Total() }

// resSpec is an internal reservation: either a user reservation or one of
// the per-hardware-type shared-buffer reservations (§3.3.1, §3.5.3).
type resSpec struct {
	res      reservation.Reservation
	isBuffer bool
	// alphaF, alphaK and theta are αF, αK and θ as the model uses them: the
	// reservation's resolved policy (newSpec).
	alphaF, alphaK, theta float64
}

// group is one symmetry equivalence class: servers indistinguishable to the
// model, merged into a single integer count variable per reservation.
type group struct {
	key     groupKey // the class's identity, equal across rounds and rebuilds
	servers []topology.ServerID
	msb     int
	dc      int
	rack    int // -1 at MSB granularity (phase 1)
}

// wearBucket quantizes a wear level in [0,1] into 4 buckets.
func wearBucket(w float64) int {
	b := int(w * 4)
	if b > 3 {
		b = 3
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Solve runs one continuous-optimization round and returns target bindings
// for every server.
//
// ctx bounds the whole round: each phase derives its own deadline as the
// earlier of the phase time limit and the context deadline, and cancelling
// ctx aborts the running phase's branch-and-bound promptly. A cancelled
// round is not an error — the Result carries the best incumbent targets
// with Cancelled set.
func Solve(ctx context.Context, in Input, cfg Config) (*Result, error) {
	return SolveWarm(ctx, in, cfg, nil)
}

// SolveWarm is Solve with cross-round warm-start state: warm carries the
// previous round's root bases and models (pass Result.Warm from round k to
// round k+1; nil solves cold). Each phase starts its root relaxation from the
// previous round's basis — as it is when the model was patched, carried over
// by identity when it was rebuilt — so the continuous-optimization loop
// amortizes simplex work across rounds without changing what a round is
// allowed to return.
func SolveWarm(ctx context.Context, in Input, cfg Config, warm *WarmState) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //raslint:allow ctxflow nil ctx defaults to Background at the public API boundary
	}
	if in.Region == nil {
		return nil, fmt.Errorf("solver: nil region")
	}
	if len(in.States) != len(in.Region.Servers) {
		return nil, fmt.Errorf("solver: %d states for %d servers", len(in.States), len(in.Region.Servers))
	}
	if err := in.validateSubset(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(in.Region)

	res := &Result{Targets: make([]reservation.ID, len(in.Region.Servers))}
	for i := range res.Targets {
		res.Targets[i] = reservation.Unassigned
	}

	specs := buildSpecs(in, cfg)
	res.Warm = &WarmState{}
	var w1, w2 *PhaseWarm
	if warm != nil {
		w1, w2 = &warm.Phase1, &warm.Phase2
		// A round that skips the rack phase hands its model on untouched.
		res.Warm.Phase2.model = warm.Phase2.model
		res.Warm.pools = warm.pools
	}

	// ---- Phase 1: whole region, MSB granularity. ------------------------
	pool := appendUsable(res.Warm.pools[0][:0], in)
	res.Warm.pools[0] = pool
	p1 := solvePhase(ctx, in, cfg, specs, pool, res.Targets, false, cfg.Phase1TimeLimit, w1)
	res.Phase1 = p1.stats
	res.Warm.Phase1 = p1.warm
	realize(in, specs, p1, res.Targets)

	// ---- Phase 2: rack goals for the worst reservations. ----------------
	// A cancelled phase 1 skips it: the caller asked the whole round to stop.
	if !cfg.DisableRackPhase && ctx.Err() == nil {
		subset := pickPhase2(in, specs, res.Targets)
		if len(subset) > 0 {
			sub := make(map[reservation.ID]bool, len(subset))
			var specs2 []resSpec
			for _, s := range specs {
				if subset[s.res.ID] || (s.isBuffer && subset[reservation.SharedBuffer]) {
					sub[s.res.ID] = true
					specs2 = append(specs2, s)
				}
			}
			pool2 := res.Warm.pools[1][:0]
			for _, id := range pool {
				t := res.Targets[id]
				if t == reservation.Unassigned || sub[t] {
					pool2 = append(pool2, id)
				}
			}
			res.Warm.pools[1] = pool2
			p2 := solvePhase(ctx, in, cfg, specs2, pool2, res.Targets, true, cfg.Phase2TimeLimit, w2)
			res.Phase2 = p2.stats
			res.Warm.Phase2 = p2.warm
			res.RanPhase2 = true
			for id := range subset {
				res.Phase2Reservations = append(res.Phase2Reservations, id)
			}
			sort.Slice(res.Phase2Reservations, func(i, j int) bool {
				return res.Phase2Reservations[i] < res.Phase2Reservations[j]
			})
			realize(in, specs2, p2, res.Targets)
		}
	}

	// Only explicit cancellation is reported as Cancelled: a ctx *deadline*
	// expiring is a time budget running out, which is the paper's ordinary
	// early-timeout path (Feasible result, measured gap — Figure 9).
	res.Cancelled = ctx.Err() == context.Canceled

	// ---- Move accounting (expression 1 / Figure 16). --------------------
	res.Moves = accountMoves(in, in.subsetMask(), res.Targets)
	return res, nil
}

// accountMoves tallies the moves an assignment implies over the masked
// servers (nil mask = whole region), fixing unusable servers' bindings in
// place: a failed server leaving its reservation is a casualty, not a move
// the mover executes, so it keeps its previous binding intent and returns
// home on recovery — when that home is the shared buffer or a reservation of
// the input. A failed server of a deleted reservation is freed.
func accountMoves(in Input, mask []bool, targets []reservation.ID) MoveStats {
	var moves MoveStats
	for i := range in.States {
		if mask != nil && !mask[i] {
			continue
		}
		st := &in.States[i]
		if st.Current == targets[i] {
			continue
		}
		if st.Current == reservation.Unassigned {
			continue // acquiring a free server is not a move
		}
		if !st.Usable() {
			targets[i] = reservation.Unassigned
			if st.Current == reservation.SharedBuffer || in.hasReservation(st.Current) {
				targets[i] = st.Current
			}
			continue
		}
		if st.MovePreempts() {
			moves.InUse++
		} else {
			moves.Unused++
		}
	}
	return moves
}

// CountMoves recomputes the region-wide MoveStats for an externally
// assembled assignment (the pop backend's merged-and-repaired targets),
// applying the same unusable-server rule as a direct solve — targets is
// fixed up in place.
func CountMoves(in Input, targets []reservation.ID) MoveStats {
	return accountMoves(in, nil, targets)
}

// buildSpecs assembles the internal reservation list: user reservations
// (minus elastic ones) plus per-hardware-type shared-buffer reservations.
func buildSpecs(in Input, cfg Config) []resSpec {
	var specs []resSpec
	for _, r := range in.Reservations {
		if r.Elastic {
			continue
		}
		specs = append(specs, newSpec(r, cfg, false))
	}
	if cfg.SharedBufferFraction > 0 {
		// Size per-type buffers proportionally to the usable fleet mix,
		// using largest-remainder rounding so the total stays at the
		// configured fraction instead of inflating by one server per type.
		mask := in.subsetMask()
		counts := make([]int, in.Region.Catalog.Len())
		usableTotal := 0
		for i := range in.Region.Servers {
			if mask != nil && !mask[i] {
				continue
			}
			if !in.States[i].Usable() {
				continue
			}
			counts[in.Region.Servers[i].Type]++
			usableTotal++
		}
		wantTotal := int(math.Round(float64(usableTotal) * cfg.SharedBufferFraction))
		wants := make([]float64, len(counts))
		floorSum := 0
		for t, n := range counts {
			wants[t] = float64(n) * cfg.SharedBufferFraction
			floorSum += int(wants[t])
		}
		// Distribute the remainder to the largest fractional parts.
		type rem struct {
			t    int
			frac float64
		}
		var rems []rem
		for t := range wants {
			rems = append(rems, rem{t, wants[t] - math.Floor(wants[t])})
		}
		sort.Slice(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
		extra := wantTotal - floorSum
		bufCount := make([]int, len(counts))
		for t := range wants {
			bufCount[t] = int(wants[t])
		}
		for i := 0; i < extra && i < len(rems); i++ {
			bufCount[rems[i].t]++
		}
		for t := range counts {
			want := float64(bufCount[t])
			if want <= 0 {
				continue
			}
			specs = append(specs, newSpec(reservation.Reservation{
				ID:            reservation.SharedBuffer,
				Name:          "shared-buffer/" + in.Region.Catalog.Type(t).ID,
				Class:         hardware.FleetAvg,
				RRUs:          want,
				EligibleTypes: []int{t},
				CountBased:    true,
				Policy:        reservation.DefaultPolicy(),
			}, cfg, true))
		}
	}
	return specs
}

// newSpec wraps a reservation as a model spec, resolving its policy's αF, αK
// and θ against the region cfg was resolved for (withDefaults).
func newSpec(r reservation.Reservation, cfg Config, isBuffer bool) resSpec {
	p := r.Policy.Resolve(cfg.numMSBs, cfg.numRacks)
	return resSpec{
		res: r, isBuffer: isBuffer,
		alphaF: p.SpreadMSB, alphaK: p.SpreadRack, theta: p.AffinityTheta,
	}
}

// appendUsable appends the usable servers in scope to pool, ascending.
func appendUsable(pool []topology.ServerID, in Input) []topology.ServerID {
	mask := in.subsetMask()
	for i := range in.States {
		if mask != nil && !mask[i] {
			continue
		}
		if in.States[i].Usable() {
			pool = append(pool, topology.ServerID(i))
		}
	}
	return pool
}

// phaseOutput carries a solved phase back to realization.
type phaseOutput struct {
	stats  PhaseStats
	groups []*group
	specs  []resSpec
	// counts[g][si] is the solved server count of group g for spec si
	// (indices into groups/specs).
	counts [][]float64
	// warm is the phase's exported cross-round warm-start state: the patched
	// or freshly built model, and its root basis when the MIP ran.
	warm PhaseWarm
}

// solvePhase builds (or patches) and solves one phase's MIP over the given
// server pool. rackLevel selects the grouping granularity and enables
// expression 2. targets carries phase-1 intent (used for warm starts in
// phase 2). pw is the phase's warm state from an earlier round (nil, or a
// PhaseWarm without a model, builds cold).
//
// The phase deadline is derived from the parent context: the MIP stops at
// the earlier of now+limit and the parent's own deadline, and parent
// cancellation aborts the search immediately.
func solvePhase(ctx context.Context, in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID, rackLevel bool, limit time.Duration, pw *PhaseWarm) *phaseOutput {

	phaseCtx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()

	out := &phaseOutput{specs: specs}

	// ---------------- Incremental build: patch or rebuild. ----------------
	var bp *builtPhase
	if pw != nil {
		bp = pw.model
	}
	if in.Delta != nil {
		switch {
		case bp == nil || in.StatesVersion == 0 || bp.statesVersion != in.Delta.Since:
			out.stats.Rebuild = RebuildNoCache
		case in.Delta.structural():
			out.stats.Rebuild = RebuildReservationSet
		default:
			t0 := clock.Now()
			out.stats.Rebuild = bp.patch(in, cfg, specs, pool, targets)
			if out.stats.Rebuild == RebuildNone {
				out.stats.SolverBuild = clock.Since(t0)
				out.stats.ModelPatched = true
			}
		}
	}
	if !out.stats.ModelPatched {
		bp = buildPhase(in, cfg, specs, pool, targets, rackLevel, &out.stats)
	}
	bp.statesVersion = in.StatesVersion

	m := bp.m
	out.groups = bp.groups
	out.stats.AssignVars = bp.assignVars
	out.stats.Groups = len(bp.groups)
	out.stats.ModelVars = m.NumVars()
	out.stats.ModelRows = m.NumConstrs()
	out.stats.CutRows = bp.cutRows
	for si := range bp.sp {
		if bp.sp[si].unserviceable {
			out.stats.SoftSlack += bp.specs[si].res.RRUs
			out.stats.Unserviceable = append(out.stats.Unserviceable, bp.sp[si].unservMsg)
		}
	}

	// ---------------- MIP step. -------------------------------------------
	// Fall back to "no change" if the MIP is skipped. This aliases the
	// cache's live count matrix, which stays untouched until the next
	// round's patch — realize consumes it within the current round.
	out.counts = bp.initCount
	out.warm.model = bp
	if cfg.SetupOnly {
		out.stats.Status = mip.NoSolution
		return out
	}
	t0 := clock.Now()
	// Cross-round warm start: the root LP starts from the previous round's
	// optimal basis — the nearest solved problem. A patched model is the one
	// the basis belongs to; a rebuilt one gets it carried over by identity.
	var rootBasis *lp.Basis
	var rootWS *lp.Workspace
	if pw != nil && pw.Basis != nil {
		out.stats.RootBasisOffered = pw.Basis.NumCols()
		switch pw.model {
		case nil: // a hand-assembled PhaseWarm: nothing says what the columns were
		case bp:
			rootBasis, out.stats.RootBasisKept = pw.Basis, pw.Basis.NumCols()
			rootWS = pw.ws
		default:
			rootBasis, out.stats.RootBasisKept = bp.carryBasis(pw.model, pw.Basis)
		}
		if 2*out.stats.RootBasisKept < out.stats.RootBasisOffered {
			rootBasis, out.stats.RootBasisMismatch = nil, true
		}
	}
	// Gap tolerances: proving optimality below the cost of a single idle
	// move is pointless churn, so stop there (the paper likewise accepts
	// early timeouts and measures the remaining gap, Figure 9). The stall
	// rule passes through for callers with tight node budgets.
	r := m.Solve(phaseCtx, mip.Options{
		MaxNodes:      cfg.MaxNodes,
		AbsGap:        0.9 * cfg.MoveCostIdle,
		StallNodes:    cfg.StallNodes,
		StallGap:      cfg.StallGap,
		Workers:       cfg.Workers,
		RootBasis:     rootBasis,
		RootWorkspace: rootWS,
	})
	out.stats.MIP = clock.Since(t0)
	out.stats.Status = r.Status
	out.stats.Nodes = r.Nodes
	out.stats.LP = r.LP
	out.stats.LPSolves = r.LP.Solves
	out.stats.LPIters = r.LP.Iterations
	out.stats.LPLimited = r.LP.IterLimited
	out.stats.RootLPIters = r.RootLPIters
	out.stats.WarmRoot = r.RootWarm
	out.stats.RootCold = r.RootCold
	out.warm.Basis, out.warm.ws = r.RootBasis, r.RootWorkspace
	out.stats.Workers = r.Workers
	out.stats.IncumbentUpdates = r.IncumbentUpdates
	out.stats.HeuristicWins = r.HeuristicWins
	if r.Status == mip.Optimal || r.Status == mip.Feasible || r.Status == mip.Cancelled {
		out.stats.Objective = r.Objective
		out.stats.Bound = r.Bound
		out.stats.RootBound = r.RootObjective
		out.stats.GapPreemptions = r.Gap() / cfg.MoveCostInUse // nonzero: withDefaults floors MoveCostInUse at 10 when zero
		out.counts = bp.solvedCounts(r.X)
		residual := func(sv mip.Var, format string, args ...any) {
			out.stats.SoftSlack += r.X[sv]
			if r.X[sv] > 1e-6 {
				out.stats.ResidualSlack = append(out.stats.ResidualSlack,
					SlackResidual{Row: fmt.Sprintf(format, args...), Amount: r.X[sv]})
			}
		}
		for si := range bp.sp {
			if bp.sp[si].active {
				residual(bp.sp[si].capSlack, "capacity[%s]", specs[si].res.Name)
			}
		}
		for si := range bp.sp {
			for dc, sv := range bp.sp[si].affSlack {
				if sv >= 0 {
					residual(sv, "affinity[%s,dc%d]", specs[si].res.Name, dc)
				}
			}
		}
	}
	return out
}

// groupServers computes the symmetry equivalence classes of the pool,
// returning them in their deterministic model order plus the key → index
// map the incremental patch uses to route servers between classes.
func groupServers(in Input, pool []topology.ServerID, rackLevel, wearAware bool) ([]*group, map[groupKey]int) {
	byKey := make(map[groupKey]*group, 256)
	var order []groupKey
	for _, id := range pool {
		k := serverKey(in, id, rackLevel, wearAware)
		g, ok := byKey[k]
		if !ok {
			srv := &in.Region.Servers[id]
			g = &group{key: k, msb: srv.MSB, dc: srv.DC, rack: -1}
			if rackLevel {
				g.rack = srv.Rack
			}
			byKey[k] = g
			order = append(order, k)
		}
		g.servers = append(g.servers, id)
	}
	// The comparator is total over the key (wear breaks the remaining ties),
	// so the group order is a pure function of the key set: a patched cache
	// and a cold rebuild agree on group indices no matter what order the
	// pool produced the keys in.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.scope != b.scope {
			return a.scope < b.scope
		}
		if a.typeIdx != b.typeIdx {
			return a.typeIdx < b.typeIdx
		}
		if a.cur != b.cur {
			return a.cur < b.cur
		}
		if a.inUse != b.inUse {
			return !a.inUse
		}
		return a.wear < b.wear
	})
	groups := make([]*group, 0, len(order))
	idx := make(map[groupKey]int, len(order))
	for _, k := range order {
		idx[k] = len(groups)
		groups = append(groups, byKey[k])
	}
	return groups, idx
}

// realize distributes solved group counts onto concrete servers, writing
// Targets. Within a group, servers already in the target reservation are
// kept first to minimize real-world churn.
func realize(in Input, specs []resSpec, p *phaseOutput, targets []reservation.ID) {
	var buf, others []topology.ServerID // reused by every group and spec
	for gi, g := range p.groups {
		// Order servers so that, for each spec in turn, ones already bound
		// to the spec's reservation come first.
		buf = append(buf[:0], g.servers...)
		remaining := buf
		for si := range specs {
			want := int(p.counts[gi][si])
			if want <= 0 {
				continue
			}
			rid := specs[si].res.ID
			// Stable partition: current members first, each side in the
			// order it had.
			members := 0
			others = others[:0]
			for _, id := range remaining {
				if in.States[id].Current == rid {
					remaining[members] = id
					members++
				} else {
					others = append(others, id)
				}
			}
			copy(remaining[members:], others)
			if want > len(remaining) {
				want = len(remaining)
			}
			for _, id := range remaining[:want] {
				targets[id] = rid
			}
			remaining = remaining[want:]
		}
		for _, id := range remaining {
			targets[id] = reservation.Unassigned
		}
	}
}

// pickPhase2 selects the reservations with the worst rack-level objectives
// for phase-2 refinement, under the variable cap (§3.5.2). It returns a set
// of output reservation IDs (possibly including reservation.SharedBuffer).
func pickPhase2(in Input, specs []resSpec, targets []reservation.ID) map[reservation.ID]bool {
	cat := in.Region.Catalog

	// The output reservations, each once, in spec order: capacity summed
	// over the specs that carry it, the reservation and its policy taken from
	// the last of them.
	type outRes struct {
		id      reservation.ID
		cr      float64
		res     *reservation.Reservation
		alpha   float64
		value   []float64 // RRUs of one server, by hardware type
		rackSum []float64 // RRU load per rack from the phase-1 targets; nil until a server counts
	}
	var outs []outRes
	for si := range specs {
		s := &specs[si]
		if s.isBuffer {
			continue
		}
		k := slices.IndexFunc(outs, func(o outRes) bool { return o.id == s.res.ID })
		if k < 0 {
			outs = append(outs, outRes{id: s.res.ID})
			k = len(outs) - 1
		}
		outs[k].cr += s.res.RRUs
		outs[k].res, outs[k].alpha = &s.res, s.alphaK
	}
	for k := range outs {
		outs[k].value = make([]float64, cat.Len())
		for t := range outs[k].value {
			outs[k].value[t] = outs[k].res.Value(cat, t)
		}
	}
	for i := range in.Region.Servers {
		id := targets[i]
		k := slices.IndexFunc(outs, func(o outRes) bool { return o.id == id })
		if k < 0 {
			continue
		}
		o := &outs[k]
		srv := &in.Region.Servers[i]
		if o.rackSum == nil {
			o.rackSum = make([]float64, in.Region.NumRacks)
		}
		o.rackSum[srv.Rack] += o.value[srv.Type]
	}

	// A reservation's excess is summed on its own, over its racks in
	// ascending order, so equal loads give bit-equal excesses and the total
	// order below decides ties by ID.
	type cand struct {
		id     reservation.ID
		excess float64
	}
	var cands []cand
	for k := range outs {
		o := &outs[k]
		if o.rackSum == nil {
			continue
		}
		limit := o.alpha * o.cr
		excess := 0.0
		for _, sum := range o.rackSum {
			if over := sum - limit; over > 0 {
				excess += over
			}
		}
		if excess > 0 {
			cands = append(cands, cand{o.id, excess})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !floats.ExactEqual(cands[i].excess, cands[j].excess) {
			return cands[i].excess > cands[j].excess
		}
		return cands[i].id < cands[j].id
	})

	maxRes := int(math.Ceil(phase2ResFraction * float64(len(outs))))
	if maxRes < 1 {
		maxRes = 1
	}
	// Estimated variables per reservation: one per (rack, type) pair it can
	// touch; a cheap over-estimate of racks × 2 keeps selection simple.
	varBudget := phase2MaxVars
	out := make(map[reservation.ID]bool)
	for _, c := range cands {
		if len(out) >= maxRes {
			break
		}
		est := in.Region.NumRacks * 2
		if est > varBudget {
			break
		}
		varBudget -= est
		out[c.id] = true
	}
	return out
}

func sortedKeys(m map[int][]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

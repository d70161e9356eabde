// Package experiments contains one runner per table/figure of the paper's
// evaluation (§4). Each runner builds its workload, drives the relevant
// modules, and returns a Report with the measured rows next to the paper's
// claim so cmd/rasbench and the root benchmark suite can print
// paper-vs-measured comparisons (recorded in EXPERIMENTS.md).
//
// Runners accept a Scale so the same experiment can run as a quick test
// (ScaleSmall), a default benchmark (ScaleMedium), or a paper-like run
// (ScaleLarge, 36 MSBs as in §3.3.1).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/metrics"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// Scale selects an experiment size.
type Scale int

// Experiment scales.
const (
	// ScaleSmall is for unit tests: ~seconds per experiment.
	ScaleSmall Scale = iota
	// ScaleMedium is the default benchmark scale: tens of seconds.
	ScaleMedium
	// ScaleLarge approaches the paper's region shapes (36 MSBs): minutes.
	ScaleLarge
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// regionSpec returns the synthetic region dimensions for a scale.
func regionSpec(s Scale, seed int64) topology.GenSpec {
	switch s {
	case ScaleSmall:
		return topology.GenSpec{Name: "small", DCs: 2, MSBsPerDC: 4, RacksPerMSB: 6, ServersPerRack: 6, Seed: seed}
	case ScaleLarge:
		return topology.GenSpec{Name: "large", DCs: 4, MSBsPerDC: 9, RacksPerMSB: 12, ServersPerRack: 12, Seed: seed}
	default:
		return topology.GenSpec{Name: "medium", DCs: 3, MSBsPerDC: 4, RacksPerMSB: 8, ServersPerRack: 8, Seed: seed}
	}
}

// reservationCount returns how many synthetic reservations a scale carries.
func reservationCount(s Scale) int {
	switch s {
	case ScaleSmall:
		return 6
	case ScaleLarge:
		return 16
	default:
		return 8
	}
}

// solverConfig returns solve limits appropriate to a scale. The node budgets
// are sized against per-node LP cost: with the sparse factorization kernel a
// node is cheap enough that a several-fold larger budget still solves well
// under the old wall-clock, and the extra depth lets the weekly churn trace
// find preemption-free optima every hour instead of stranding bad incumbents
// at the node limit. A cheaper node also means a node-limited search stops
// sooner in wall-clock and shorter of its answer, so the budgets are re-sized
// at equal wall-clock when a node gets cheaper. Bound-flip warm starts took
// the small budget from 600 to 1200 (LP iterations per node 12.9 → 5.8 on
// the POP sweep's sub-solves; at 600 pop k=4 stopped at objective 5687
// instead of 90; the suite runs 13.3 s against 20.7 s) and the medium one
// from 500 to 850 (23 → 13.5 ms per node on the Figure 7 series: 80 s
// against 76 s, 12/12 solves within 200 preemptions where 500 nodes gave
// 8/12). The stall rule bounds the other tail — a solve that has its answer
// but cannot prove it against a flat bound stops after 128 stagnant nodes
// instead of grinding out the rest of the budget.
func solverConfig(s Scale) solver.Config {
	stall := func(c solver.Config) solver.Config {
		c.StallNodes = 128
		// Below one in-use preemption (MoveCostInUse = 10): a stalled stop
		// may strand idle-move-scale slack but never an unredeemed preemption.
		c.StallGap = 5
		return c
	}
	switch s {
	case ScaleSmall:
		return stall(solver.Config{Phase1TimeLimit: 8 * time.Second, Phase2TimeLimit: 2 * time.Second, MaxNodes: 1200})
	case ScaleLarge:
		return stall(solver.Config{Phase1TimeLimit: 60 * time.Second, Phase2TimeLimit: 15 * time.Second, MaxNodes: 400})
	default:
		return stall(solver.Config{Phase1TimeLimit: 25 * time.Second, Phase2TimeLimit: 5 * time.Second, MaxNodes: 850})
	}
}

// Report is the outcome of one experiment.
type Report struct {
	// ID names the paper artifact, e.g. "Figure 12".
	ID string
	// Title is the experiment's subject.
	Title string
	// PaperClaim summarizes the result the paper reports (the shape to
	// reproduce, not absolute numbers).
	PaperClaim string
	// Measured holds the reproduced rows/series as printable lines.
	Measured []string
	// ShapeHolds reports whether the qualitative claim reproduced.
	ShapeHolds bool
	// Notes explains scale substitutions or deviations.
	Notes string
	// Elapsed is the experiment wall-clock time.
	Elapsed time.Duration
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper:    %s\n", r.PaperClaim)
	for _, m := range r.Measured {
		fmt.Fprintf(&b, "measured: %s\n", m)
	}
	verdict := "SHAPE HOLDS"
	if !r.ShapeHolds {
		verdict = "SHAPE DIVERGES"
	}
	fmt.Fprintf(&b, "verdict:  %s (%.1fs)\n", verdict, r.Elapsed.Seconds())
	if r.Notes != "" {
		fmt.Fprintf(&b, "notes:    %s\n", r.Notes)
	}
	return b.String()
}

// addf appends a formatted measured line.
func (r *Report) addf(format string, args ...interface{}) {
	r.Measured = append(r.Measured, fmt.Sprintf(format, args...))
}

// defaultClasses is the service-class rotation for synthetic reservations.
var defaultClasses = []hardware.Class{
	hardware.Web, hardware.Feed1, hardware.Feed2, hardware.DataStore, hardware.FleetAvg,
}

// makeReservations builds n reservations filling `fill` of the region's
// servers (count-based for predictable geometry).
func makeReservations(region *topology.Region, n int, fill float64) []reservation.Reservation {
	per := float64(len(region.Servers)) * fill / float64(n)
	out := make([]reservation.Reservation, n)
	for i := range out {
		out[i] = reservation.Reservation{
			ID:         reservation.ID(i),
			Name:       fmt.Sprintf("svc-%02d", i),
			Class:      defaultClasses[i%len(defaultClasses)],
			RRUs:       per,
			CountBased: true,
			Policy:     reservation.DefaultPolicy(),
		}
	}
	return out
}

// perMSBLoad computes a reservation's RRU load per MSB under an assignment.
func perMSBLoad(region *topology.Region, assign []reservation.ID, r *reservation.Reservation) []float64 {
	out := make([]float64, region.NumMSBs)
	for i := range region.Servers {
		if assign[i] != r.ID {
			continue
		}
		out[region.Servers[i].MSB] += r.Value(region.Catalog, region.Servers[i].Type)
	}
	return out
}

// maxMSBShare reports the fraction of a reservation's allocated capacity in
// its most-loaded MSB (the quantity Figure 12 tracks).
func maxMSBShare(region *topology.Region, assign []reservation.ID, r *reservation.Reservation) float64 {
	load := perMSBLoad(region, assign, r)
	total, max := 0.0, 0.0
	for _, v := range load {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return max / total
}

// fleetMaxMSBShare is the capacity-weighted average of per-service max-MSB
// shares — the paper's "Machines % in Max MSB".
func fleetMaxMSBShare(region *topology.Region, assign []reservation.ID, rsvs []reservation.Reservation) float64 {
	num, den := 0.0, 0.0
	for i := range rsvs {
		r := &rsvs[i]
		load := perMSBLoad(region, assign, r)
		total, max := 0.0, 0.0
		for _, v := range load {
			total += v
			if v > max {
				max = v
			}
		}
		num += max
		den += total
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// waterfillBound computes the minimal achievable fleet max-MSB share given
// each reservation's eligible capacity per MSB — the paper's "minimal
// required buffer capacity" lower bound (4.06% in §3.3.1). For each
// reservation it waterfills C_r across MSBs proportionally to eligible
// capacity, which minimizes the max share.
func waterfillBound(region *topology.Region, rsvs []reservation.Reservation, usable func(topology.ServerID) bool) float64 {
	num, den := 0.0, 0.0
	for i := range rsvs {
		r := &rsvs[i]
		capPerMSB := make([]float64, region.NumMSBs)
		for s := range region.Servers {
			id := topology.ServerID(s)
			if usable != nil && !usable(id) {
				continue
			}
			capPerMSB[region.Servers[s].MSB] += r.Value(region.Catalog, region.Servers[s].Type)
		}
		max := waterfillMax(capPerMSB, r.RRUs)
		num += max
		den += r.RRUs
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// waterfillMax distributes demand across bins with the given capacities so
// the maximum bin load is minimized, and returns that maximum.
func waterfillMax(caps []float64, demand float64) float64 {
	remaining := demand
	level := 0.0
	open := make([]float64, 0, len(caps))
	for _, c := range caps {
		if c > 0 {
			open = append(open, c)
		}
	}
	for remaining > 1e-12 && len(open) > 0 {
		// Raise the level uniformly until the next bin saturates.
		minCap := open[0]
		for _, c := range open {
			if c < minCap {
				minCap = c
			}
		}
		step := minCap - level
		need := remaining / float64(len(open))
		if need <= step {
			level += need
			remaining = 0
			break
		}
		remaining -= step * float64(len(open))
		level = minCap
		next := open[:0]
		for _, c := range open {
			if c > minCap+1e-12 {
				next = append(next, c)
			}
		}
		open = next
	}
	if remaining > 1e-12 {
		// Demand exceeds capacity: everything saturates.
		return level + remaining
	}
	return level
}

// applySolve runs the MIP backend (via backend.New, like every production
// caller) on the current broker state and applies the targets
// directly (experiment-local; the full System path is exercised by the
// end-to-end simulations).
func applySolve(region *topology.Region, b *broker.Broker, rsvs []reservation.Reservation, cfg solver.Config) (*solver.Result, error) {
	res, err := solveBackend(context.Background(), "mip",
		solver.Input{Region: region, Reservations: rsvs, States: b.Snapshot()}, cfg)
	if err != nil {
		return nil, err
	}
	for i, tgt := range res.Targets {
		id := topology.ServerID(i)
		b.SetTarget(id, tgt)
		if b.State(id).Current != tgt {
			b.SetCurrent(id, tgt)
		}
	}
	return res.MIP, nil
}

// solveBackend resolves a backend by name and runs one solve — the single
// entry point every experiment uses, so figure code never hard-wires a
// solver package. Experiments pin Workers to 1: the reproductions are keyed
// to the deterministic serial search (see DESIGN.md "Parallel solving" —
// with Workers > 1 the trajectory is scheduler-dependent, and figures like
// the weekly churn trace fork chaotically on which equally-optimal incumbent
// a race happens to keep), so the suite must not inherit the backend's
// NumCPU default.
func solveBackend(ctx context.Context, name string, in solver.Input, cfg solver.Config) (*backend.Result, error) {
	be, err := backend.New(name, backend.Config{Solver: cfg})
	if err != nil {
		return nil, err
	}
	return be.Solve(ctx, in, backend.Options{Workers: 1})
}

// assignOf snapshots current reservation bindings as a slice.
func assignOf(b *broker.Broker) []reservation.ID {
	snap := b.Snapshot()
	out := make([]reservation.ID, len(snap))
	for i := range snap {
		out[i] = snap[i].Current
	}
	return out
}

// normVariance is re-exported for experiment code brevity.
func normVariance(xs []float64) float64 { return metrics.NormalizedVariance(xs) }

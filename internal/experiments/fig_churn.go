package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ras"
	"ras/internal/broker"
	"ras/internal/sim"
	"ras/internal/topology"
	"ras/internal/workload"
)

// Fig16 reproduces the weekly server-movement churn (§4.6): unused-server
// moves dominate in-use moves (paper: 10.6x more), and move activity spikes
// during weekday working hours when engineers submit capacity requests.
func Fig16(scale Scale) (*Report, error) {
	start := time.Now()
	r := &Report{
		ID:    "Figure 16",
		Title: "Weekly in-use vs unused server moves",
		PaperClaim: "hourly unused-server moves average 10.6x the in-use moves (~80% of " +
			"servers run containers; RAS picks moves from the idle 20%); weekday working-hour spikes",
	}
	// Churn needs many cheap solves; run it one scale down from the rest.
	solveScale := ScaleSmall
	if scale == ScaleLarge {
		solveScale = ScaleMedium
	}
	// The verdict compares two move counts, and one simulated week on these
	// regions has 20-60 moves: which of several equal-cost vertices an LP
	// lands on shifts a handful of them from one side to the other (single
	// weeks range from 22:1 to 12:20 at one commit, and a week's split moves
	// with any change to the pivot order). Five weeks on five regions, summed,
	// is a statistic such a change does not flip. Race builds, which run this
	// for data races and not for its verdict, stop at one.
	weeks := int64(5)
	if raceEnabled {
		weeks = 1
	}
	var total fig16Week
	for seed := int64(16); seed < 16+weeks; seed++ {
		w, err := runFig16Week(solveScale, seed)
		if err != nil {
			return nil, err
		}
		r.addf("week %d: %d unused vs %d in-use moves", seed-15, w.unused, w.inUse)
		total.add(w)
	}
	ratio := float64(total.unused) / float64(max(total.inUse, 1))
	r.addf("%d weeks, %d hourly solves: %d unused moves vs %d in-use moves (ratio %.1fx)",
		weeks, total.solves, total.unused, total.inUse, ratio)
	r.addf("avg moves/hour: working hours %.2f vs off hours %.2f (not part of the verdict)",
		float64(total.workMoves)/float64(total.workHours),
		float64(total.inUse+total.unused-total.workMoves)/float64(total.solves-total.workHours))
	r.addf("mover: %d failure replacements from the shared buffer between solves (not part of the verdict)",
		total.replacements)
	// What reproduces is the direction — the solver takes its moves from the
	// idle servers first — not the factor: a ±3 % resize of a 34-server
	// reservation is under one server, so most of a week's moves are the
	// first hour's settling and one-server rebalances after the mover has
	// replaced failures from the shared buffer, and wherever the idle servers
	// of the right hardware run out the move is an in-use one.
	// The weekday-spike half of the claim is reported, not asserted, for the
	// same reason (EXPERIMENTS.md, Figure 16): resizes large or frequent
	// enough to dominate push reservations against their spread caps and
	// turn the move mix in-use.
	r.Notes = "run at reduced scale (hourly solves for five simulated weeks on five regions); " +
		"the direction reproduces, the 10.6x factor does not; too few resize-driven moves for " +
		"the working-hour comparison to carry signal"
	r.ShapeHolds = total.unused > total.inUse
	r.Elapsed = time.Since(start)
	return r, nil
}

// fig16Week tallies the moves of simulated weeks.
type fig16Week struct {
	solves, inUse, unused int
	workHours, workMoves  int // weekday 09:00-18:00 solves, and the moves they made
	replacements          int // the mover's failure replacements from the shared buffer
}

func (t *fig16Week) add(w fig16Week) {
	t.solves += w.solves
	t.inUse += w.inUse
	t.unused += w.unused
	t.workHours += w.workHours
	t.workMoves += w.workMoves
	t.replacements += w.replacements
}

// runFig16Week simulates one week of hourly solves on the region and event
// stream the seed draws, through a ras.System: the solver carries its warm
// state from hour to hour, and the online mover replaces failed servers
// from the shared buffer between solves.
func runFig16Week(solveScale Scale, seed int64) (fig16Week, error) {
	var week fig16Week
	region, err := topology.Generate(regionSpec(solveScale, seed))
	if err != nil {
		return week, err
	}
	sys := ras.NewSystem(region, ras.Options{Solver: solverConfig(solveScale), Workers: 1})
	b := sys.Broker()
	rsvs := makeReservations(region, reservationCount(solveScale), 0.7)
	for _, r := range rsvs {
		id, err := sys.CreateReservation(r)
		if err != nil {
			return week, err
		}
		if id != r.ID {
			return week, fmt.Errorf("fig16: reservation %q created as %d, want %d", r.Name, id, r.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	// Initial fill, then mark ~80% of reservation servers in-use.
	if _, err := sys.Solve(ctx, 0); err != nil {
		return week, err
	}
	refreshContainers := func() {
		snap := b.Snapshot()
		for i := range snap {
			switch {
			case snap[i].Unavail != broker.Available:
				if snap[i].Containers > 0 {
					b.SetContainers(snap[i].ID, 0) // crashed with the server
				}
			case snap[i].Current >= 0:
				if snap[i].Containers == 0 && rng.Float64() < 0.8 {
					b.SetContainers(snap[i].ID, 1+rng.Intn(3))
				}
			case snap[i].Containers > 0:
				b.SetContainers(snap[i].ID, 0)
			}
		}
	}
	refreshContainers()

	engine := sim.NewEngine()
	type hourStat struct {
		inUse, unused int
		hourOfWeek    int64
	}
	var hourly []hourStat
	var hourErr error

	engine.Every(sim.Hour, func(now sim.Time) {
		if hourErr != nil {
			return
		}
		// Diurnal capacity churn: engineers resize reservations during
		// working hours (Figure 16's spikes).
		rate := workload.DiurnalRate(now, 4)
		for k := 0.0; k < rate; k++ {
			if rng.Float64() > rate-k {
				break
			}
			ri := rng.Intn(len(rsvs))
			rsvs[ri].RRUs *= 0.97 + 0.06*rng.Float64()
			if hourErr = sys.ResizeReservation(rsvs[ri].ID, rsvs[ri].RRUs); hourErr != nil {
				return
			}
		}
		// Background random failures (~0.1% of fleet per day).
		if rng.Float64() < float64(len(region.Servers))/2000 {
			id := topology.ServerID(rng.Intn(len(region.Servers)))
			b.SetUnavailable(id, broker.RandomFailure, now, now+48*sim.Hour)
		}
		b.ExpireUnavailability(now)

		res, err := sys.Solve(ctx, now)
		if err != nil {
			hourErr = err
			return
		}
		refreshContainers()
		hourly = append(hourly, hourStat{
			inUse: res.Moves.InUse, unused: res.Moves.Unused,
			hourOfWeek: now % sim.Week,
		})
	})
	engine.RunUntil(7 * sim.Day)
	if hourErr != nil {
		return week, hourErr
	}

	for _, h := range hourly {
		week.solves++
		week.inUse += h.inUse
		week.unused += h.unused
		day := h.hourOfWeek / sim.Day
		hr := (h.hourOfWeek % sim.Day) / sim.Hour
		if day < 5 && hr >= 9 && hr < 18 {
			week.workHours++
			week.workMoves += h.inUse + h.unused
		}
	}
	week.replacements = sys.Mover().Stats().Replacements
	return week, nil
}

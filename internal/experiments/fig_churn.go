package experiments

import (
	"context"
	"math/rand"
	"time"

	"ras/internal/broker"
	"ras/internal/metrics"
	"ras/internal/sim"
	"ras/internal/solver"
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
	region, err := topology.Generate(regionSpec(solveScale, 16))
	if err != nil {
		return nil, err
	}
	b := broker.New(region)
	rsvs := makeReservations(region, reservationCount(solveScale), 0.7)
	cfg := solverConfig(solveScale)
	rng := rand.New(rand.NewSource(16))

	// Initial fill, then mark ~80% of reservation servers in-use.
	if _, err := applySolve(region, b, rsvs, cfg); err != nil {
		return nil, err
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

	engine.Every(sim.Hour, func(now sim.Time) {
		// Diurnal capacity churn: engineers resize reservations during
		// working hours (Figure 16's spikes).
		rate := workload.DiurnalRate(now, 4)
		for k := 0.0; k < rate; k++ {
			if rng.Float64() > rate-k {
				break
			}
			ri := rng.Intn(len(rsvs))
			rsvs[ri].RRUs *= 0.97 + 0.06*rng.Float64()
		}
		// Background random failures (~0.1% of fleet per day).
		if rng.Float64() < float64(len(region.Servers))/2000 {
			id := topology.ServerID(rng.Intn(len(region.Servers)))
			b.SetUnavailable(id, broker.RandomFailure, now, now+48*sim.Hour)
		}
		b.ExpireUnavailability(now)

		res, err := solveBackend(context.Background(), "mip",
			solver.Input{Region: region, Reservations: rsvs, States: b.Snapshot()}, cfg)
		if err != nil {
			return
		}
		for i, tgt := range res.Targets {
			id := topology.ServerID(i)
			if b.State(id).Current != tgt {
				b.SetCurrent(id, tgt)
			}
		}
		refreshContainers()
		hourly = append(hourly, hourStat{
			inUse: res.Moves.InUse, unused: res.Moves.Unused,
			hourOfWeek: now % sim.Week,
		})
	})
	engine.RunUntil(7 * sim.Day)

	totalInUse, totalUnused := 0, 0
	var workHours, offHours metrics.Sample
	for _, h := range hourly {
		totalInUse += h.inUse
		totalUnused += h.unused
		day := h.hourOfWeek / sim.Day
		hr := (h.hourOfWeek % sim.Day) / sim.Hour
		if day < 5 && hr >= 9 && hr < 18 {
			workHours.Add(float64(h.inUse + h.unused))
		} else {
			offHours.Add(float64(h.inUse + h.unused))
		}
	}
	ratio := float64(totalUnused) / float64(max(totalInUse, 1))
	r.addf("one week, %d hourly solves: %d unused moves vs %d in-use moves (ratio %.1fx)",
		len(hourly), totalUnused, totalInUse, ratio)
	r.addf("avg moves/hour: working hours %.2f vs off hours %.2f (not part of the verdict)",
		workHours.Mean(), offHours.Mean())
	// The weekday-spike half of the claim is reported, not asserted: a week
	// on these regions has 20-40 moves, 8 of them the first hour's settling
	// and most of the rest failure replacements spread evenly over the
	// clock, so the two means differ by a handful of moves whose hours shift
	// with any change to the LP pivot order (EXPERIMENTS.md, Figure 16).
	// Resizes large or frequent enough to dominate them push reservations
	// against their spread caps and turn the move mix in-use, which is the
	// half of the claim this experiment can measure.
	r.Notes = "run at reduced scale (hourly solves for a simulated week); too few " +
		"resize-driven moves for the working-hour comparison to carry signal"
	r.ShapeHolds = ratio >= 3
	r.Elapsed = time.Since(start)
	return r, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Command rassim runs an end-to-end region simulation: a synthetic region,
// a set of reservations, hourly async solves, health-check failure
// injection, minute-level mover reactions, periodic maintenance waves, and
// a correlated MSB failure drill — the full two-level RAS control loop over
// virtual time, with a live event log.
//
// Usage:
//
//	rassim -days 3 -dcs 2 -msbs 4 -reservations 6
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ras"
	"ras/internal/backend"
	"ras/internal/sim"
	"ras/internal/solver"
	"ras/internal/workload"
)

func main() {
	var (
		days     = flag.Int("days", 2, "virtual days to simulate")
		dcs      = flag.Int("dcs", 2, "datacenters")
		msbs     = flag.Int("msbs", 4, "MSBs per datacenter")
		racks    = flag.Int("racks", 6, "racks per MSB")
		servers  = flag.Int("servers", 6, "servers per rack")
		nres     = flag.Int("reservations", 6, "guaranteed reservations")
		seed     = flag.Int64("seed", 1, "generator seed")
		failMSB  = flag.Int("fail-msb", 1, "MSB to fail mid-simulation (-1 disables the drill)")
		failDay  = flag.Int("fail-day", 1, "virtual day of the correlated-failure drill")
		quiet    = flag.Bool("q", false, "suppress the hourly log")
		fillFrac = flag.Float64("fill", 0.7, "fraction of the region requested as capacity")
		workers  = flag.Int("workers", 0,
			"solve parallelism for the hourly rounds: branch-and-bound workers (mip) or the budget pop divides across its sub-solves; localsearch is serial; 0 = all CPUs, 1 = serial")
		beName = flag.String("backend", backend.DefaultName,
			"solver backend for the hourly rounds ("+strings.Join(backend.Names(), ", ")+")")
		partitions = flag.Int("partitions", 0,
			"pop backend: sub-region count k (0 = default; other backends ignore it)")
		growHour = flag.Int("grow-hour", -1,
			"virtual hour at which one extra reservation arrives (-1 disables); a mid-run create exercises the model cache's structural fallback")
		requireCache = flag.Bool("require-cache", false,
			"exit nonzero unless the run exercised both the model-cache patch path and the fallback-rebuild path")
	)
	flag.Parse()
	logger := log.New(os.Stdout, "", 0)

	// Ctrl-C cancels any in-flight solve; the round persists its incumbent
	// and the simulation stops at the next event boundary.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	region, err := ras.NewRegion(ras.RegionSpec{
		Name: "sim", DCs: *dcs, MSBsPerDC: *msbs,
		RacksPerMSB: *racks, ServersPerRack: *servers, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys := ras.NewSystem(region, ras.Options{Backend: *beName, Workers: *workers, Partitions: *partitions})
	logger.Printf("region: %d DCs, %d MSBs, %d racks, %d servers",
		region.NumDCs, region.NumMSBs, region.NumRacks, len(region.Servers))

	// Capacity requests from the synthetic workload generator.
	gen := workload.NewRequestGen(region.Catalog, len(region.Servers) / *nres, *seed)
	per := float64(len(region.Servers)) * *fillFrac / float64(*nres)
	var resIDs []ras.ReservationID
	for i := 0; i < *nres; i++ {
		req := gen.Next()
		req.RRUs = per
		req.CountBased = true
		req.EligibleTypes = nil
		id, err := sys.CreateReservation(req)
		if err != nil {
			log.Fatal(err)
		}
		resIDs = append(resIDs, id)
		logger.Printf("capacity request: %-12s class=%-9v rrus=%.0f → reservation %d",
			req.Name, req.Class, req.RRUs, id)
	}

	engine := ras.NewEngine()
	// totals sums what every round's solve returned; it is printed at exit.
	var totals backend.Totals
	// Hourly continuous optimization (Figure 6 step 8).
	engine.Every(sim.Hour, func(now sim.Time) {
		if ctx.Err() != nil {
			return // interrupted: stop solving, let the run wind down
		}
		res, err := sys.Solve(ctx, now)
		if err != nil {
			logger.Printf("[%s] solve failed: %v", clock(now), err)
			return
		}
		totals.Add(res)
		if !*quiet {
			line := fmt.Sprintf("[%s] solve[%s]: %s in %v, moves in-use=%d idle=%d",
				clock(now), res.Backend, res.Status, res.Elapsed.Round(1e6),
				res.Moves.InUse, res.Moves.Unused)
			if res.MIP != nil {
				line += fmt.Sprintf(", %d assign vars, gap=%.1f preemptions",
					res.MIP.Phase1.AssignVars, res.MIP.Phase1.GapPreemptions)
			}
			logger.Print(line)
		}
	})
	// Hourly health tick + maintenance every 6 hours.
	engine.Every(sim.Hour, func(now sim.Time) {
		st := sys.Health().Tick(now)
		if st.RandomFailures > 0 && !*quiet {
			logger.Printf("[%s] health: %d random failures (mover replaces within a minute)",
				clock(now), st.RandomFailures)
		}
	})
	engine.Every(6*sim.Hour, func(now sim.Time) {
		msb, n := sys.Health().StartMaintenanceWave(now)
		if !*quiet {
			logger.Printf("[%s] maintenance wave: MSB %d, %d servers (≤25%%)", clock(now), msb, n)
		}
	})

	// Mid-run growth: a new reservation is a structural change, so the next
	// hourly solve must fall back to a cold model rebuild while steady-state
	// hours keep patching.
	if *growHour >= 0 {
		engine.At(sim.Time(*growHour)*sim.Hour, func(now sim.Time) {
			req := gen.Next()
			req.RRUs = per / 2
			req.CountBased = true
			req.EligibleTypes = nil
			id, err := sys.CreateReservation(req)
			if err != nil {
				logger.Printf("[%s] growth request failed: %v", clock(now), err)
				return
			}
			logger.Printf("[%s] growth: new reservation %d (%s, %.0f RRUs)",
				clock(now), id, req.Name, req.RRUs)
		})
	}

	// The correlated-failure drill.
	if *failMSB >= 0 && *failDay <= *days {
		at := sim.Time(*failDay) * sim.Day
		engine.At(at, func(now sim.Time) {
			paused := sys.Health().PauseMaintenance(now)
			n := sys.Health().FailMSB(*failMSB, now, 12*sim.Hour)
			logger.Printf("[%s] *** CORRELATED FAILURE: MSB %d down (%d servers); %d maintenance servers returned ***",
				clock(now), *failMSB, n, paused)
			for _, id := range resIDs {
				total, after, _ := sys.GuaranteedRRUs(id)
				r, _ := sys.Reservations().Get(id)
				ok := "OK"
				if after < r.RRUs {
					ok = "SHORT"
				}
				logger.Printf("[%s]     reservation %d: %.0f allocated, %.0f surviving vs %.0f requested [%s]",
					clock(now), id, total, after, r.RRUs, ok)
			}
		})
	}

	engine.RunUntil(sim.Time(*days) * sim.Day)

	logger.Printf("simulation done: %d events over %d virtual days", engine.Processed(), *days)
	mv := sys.Mover().Stats()
	logger.Printf("mover: %d in-use moves, %d idle moves, %d replacements (%d missed), %d profile switches",
		mv.MovesInUse, mv.MovesUnused, mv.Replacements, mv.ReplacementMiss, mv.ProfileSwitches)
	planned, unplanned := sys.Broker().UnavailableCount()
	logger.Printf("final unavailability: %d planned, %d unplanned of %d servers",
		planned, unplanned, len(region.Servers))
	totals.Print(logger.Writer())
	why := ""
	for r := solver.RebuildNoCache; r < solver.NumRebuildReasons; r++ {
		if totals.Rebuilds[r] > 0 {
			why += fmt.Sprintf(" %v=%d", r, totals.Rebuilds[r])
		}
	}
	logger.Printf("rebuild_reasons:%s", why)
	logger.Printf("rack-phase: rounds=%d proven=%d", totals.RackRounds, totals.RackProven)
	if *requireCache && (totals.Patched == 0 || totals.Fallbacks() == 0) {
		logger.Printf("FAIL: -require-cache wants patch_hits>0 and fallback_rebuilds>0")
		os.Exit(1)
	}
}

func clock(t sim.Time) string {
	d := t / sim.Day
	h := (t % sim.Day) / sim.Hour
	m := (t % sim.Hour) / sim.Minute
	return fmt.Sprintf("day %d %02d:%02d", d, h, m)
}

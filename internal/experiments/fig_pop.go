package experiments

import (
	"context"
	"fmt"
	"time"

	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/solver"
	"ras/internal/topology"
)

// popSweepKs is the partition-count sweep the ablation runs — the POP paper's
// headline configurations. The partitioner clamps each k to the region's MSB
// geometry (every sub-region needs ≥ 2 MSBs), so the effective k is reported
// per row.
var popSweepKs = []int{1, 2, 4, 8}

// POPSweep reproduces the POP-paper claim on the RAS MIP: partitioning a
// granular allocation problem into k sub-problems cuts solve time
// superlinearly while costing little allocation quality ("Solving Large-Scale
// Granular Resource Allocation Problems Efficiently with POP", PAPERS.md —
// and §6 of the RAS paper, where ReBalancer swaps backends per user). Each
// row solves one fresh region with the pop backend at a different partition
// count and compares wall-clock and region-wide objective against the serial
// MIP backend on the identical snapshot.
func POPSweep(scale Scale) (*Report, error) {
	start := time.Now()
	rep := &Report{
		ID:    "POP k-sweep",
		Title: "partitioned solving: speedup vs allocation quality",
		PaperClaim: "solving k sub-problems is superlinearly faster than one " +
			"global solve, with near-identical allocation quality at moderate k",
	}
	region, err := topology.Generate(regionSpec(scale, 11))
	if err != nil {
		return nil, err
	}
	rsvs := makeReservations(region, reservationCount(scale), 0.7)
	in := solver.Input{
		Region: region, Reservations: rsvs, States: broker.New(region).Snapshot(),
	}
	cfg := solverConfig(scale)

	// The serial MIP is the quality and wall-clock baseline (Workers pinned
	// to 1 like every experiment; see solveBackend).
	mipRes, err := solveBackend(context.Background(), "mip", in, cfg)
	if err != nil {
		return nil, err
	}
	mipSec := mipRes.Elapsed.Seconds()
	rep.addf("mip   baseline: %.2fs objective %.1f", mipSec, mipRes.Objective)

	shapeChecked := false
	for _, k := range popSweepKs {
		be, err := backend.New("pop", backend.Config{Solver: cfg})
		if err != nil {
			return nil, err
		}
		res, err := be.Solve(context.Background(), in,
			backend.Options{Workers: 1, Partitions: k})
		if err != nil {
			return nil, err
		}
		popSec := res.Elapsed.Seconds()
		speedup := 0.0
		if popSec > 0 {
			speedup = mipSec / popSec
		}
		delta := 0.0
		if mipRes.Objective != 0 {
			delta = (res.Objective - mipRes.Objective) / mipRes.Objective * 100
		}
		eff := ""
		if res.POP != nil && res.POP.Partitions != k {
			eff = fmt.Sprintf(" (clamped to %d)", res.POP.Partitions)
		}
		rep.addf("pop k=%d%s: %.2fs objective %.1f — %.2fx speedup, %+.1f%% objective",
			k, eff, popSec, res.Objective, speedup, delta)
		// The headline configuration (k=4, after any clamp) carries the
		// verdict: within 5% quality, and no slower than the global solve
		// once that solve is expensive enough for partitioning to pay —
		// on a sub-300ms baseline the k sub-solve setups are pure overhead
		// and the wall-clock ratio is noise.
		if k == 4 {
			shapeChecked = true
			rep.ShapeHolds = delta <= 5 && (mipSec < 0.3 || speedup >= 1)
		}
	}
	if !shapeChecked {
		rep.ShapeHolds = false
	}
	rep.Notes = "pop divides one solve's node, time and worker budget across its sub-solves; " +
		"speedups on one machine come from superlinear MIP cost reduction, not parallelism"
	rep.Elapsed = time.Since(start)
	return rep, nil
}

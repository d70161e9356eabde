package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/health"
	"ras/internal/metrics"
	"ras/internal/topology"
	"ras/internal/workload"
)

// Fig2 reproduces the hardware-heterogeneity characterization (§2.2): nine
// hardware categories, twelve subtypes, and large per-MSB mixture variance.
func Fig2(scale Scale) (*Report, error) {
	start := time.Now()
	r := &Report{
		ID:    "Figure 2",
		Title: "Hardware heterogeneity across MSBs",
		PaperClaim: "9 hardware categories / 12 subtypes; hardware mixtures vary " +
			"strongly across MSBs (old MSBs carry old generations, new MSBs the newest)",
	}
	region, err := topology.Generate(regionSpec(scale, 2))
	if err != nil {
		return nil, err
	}
	cat := region.Catalog
	cats := map[int]bool{}
	subs := 0
	for i := 0; i < cat.Len(); i++ {
		cats[cat.Type(i).Category] = true
		if cat.Type(i).Subtype > 0 {
			subs++
		}
	}
	r.addf("catalog: %d categories, %d types (%d subtyped)", len(cats), cat.Len(), subs)

	mix := region.TypeMixByMSB()
	// Per-type share variance across MSBs, averaged over types.
	var perTypeVar metrics.Sample
	for t := 0; t < cat.Len(); t++ {
		var s metrics.Sample
		for m := range mix {
			s.Add(mix[m][t])
		}
		perTypeVar.Add(s.StdDev())
	}
	r.addf("avg per-type share stddev across MSBs: %.3f (0 would be homogeneous)", perTypeVar.Mean())

	// Generation skew old → new MSB.
	genShare := func(msb int, g hardware.Generation) float64 {
		total, n := 0, 0
		for i := range region.Servers {
			if region.Servers[i].MSB != msb {
				continue
			}
			total++
			if cat.Type(region.Servers[i].Type).Generation == g {
				n++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	oldest, newest := 0, region.NumMSBs-1
	r.addf("GenI share: oldest MSB %.0f%%, newest MSB %.0f%%; GenIII share: oldest %.0f%%, newest %.0f%%",
		100*genShare(oldest, hardware.GenI), 100*genShare(newest, hardware.GenI),
		100*genShare(oldest, hardware.GenIII), 100*genShare(newest, hardware.GenIII))

	r.ShapeHolds = len(cats) == 9 && cat.Len() >= 12 &&
		perTypeVar.Mean() > 0.01 &&
		genShare(oldest, hardware.GenI) > genShare(newest, hardware.GenI)
	r.Elapsed = time.Since(start)
	return r, nil
}

// Fig3 reproduces the Relative Value table (§2.3): per-service gains across
// three processor generations.
func Fig3(Scale) (*Report, error) {
	start := time.Now()
	r := &Report{
		ID:    "Figure 3",
		Title: "Relative value across processor generations",
		PaperClaim: "Web gains 1.47x (GenII) and 1.82x (GenIII); DataStore is flat; " +
			"Feed gains on one generation but not the other; fleet average rises steadily",
	}
	tbl := &metrics.Table{Header: []string{"service", "Gen I", "Gen II", "Gen III"}}
	for _, c := range []hardware.Class{hardware.DataStore, hardware.Feed1, hardware.Feed2, hardware.Web, hardware.FleetAvg} {
		tbl.AddRow(c.String(),
			fmt.Sprintf("%.2f", hardware.RelativeValue(c, hardware.GenI)),
			fmt.Sprintf("%.2f", hardware.RelativeValue(c, hardware.GenII)),
			fmt.Sprintf("%.2f", hardware.RelativeValue(c, hardware.GenIII)))
	}
	for _, line := range strings.FieldsFunc(tbl.String(), func(r rune) bool { return r == '\n' }) {
		r.addf("%s", line)
	}
	r.ShapeHolds = hardware.RelativeValue(hardware.Web, hardware.GenII) == 1.47 &&
		hardware.RelativeValue(hardware.Web, hardware.GenIII) == 1.82 &&
		hardware.RelativeValue(hardware.DataStore, hardware.GenIII) < 1.1
	r.Elapsed = time.Since(start)
	return r, nil
}

// Fig4 reproduces the capacity-request characterization (§2.4): request
// sizes span 1 to ~30k units and the number of fulfilling hardware types is
// bimodal at 1 and ~8.
func Fig4(scale Scale) (*Report, error) {
	start := time.Now()
	r := &Report{
		ID:    "Figure 4",
		Title: "Requested capacity vs fulfilling hardware types",
		PaperClaim: "sizes 1..30k units (most a few hundred to a few thousand); many " +
			"requests want exactly 1 type, a large mode accepts ~8 types, a small tail 10-12",
	}
	n := 2000
	gen := workload.NewRequestGen(hardware.DefaultCatalog(), 30000, 4)
	byTypes := map[int]int{}
	var sizes metrics.Sample
	minSize, maxSize := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		req := gen.Next()
		byTypes[len(req.EligibleTypes)]++
		sizes.Add(req.RRUs)
		minSize = math.Min(minSize, req.RRUs)
		maxSize = math.Max(maxSize, req.RRUs)
	}
	r.addf("%d requests: sizes [%d, %d], p50=%d p90=%d",
		n, int(minSize), int(maxSize), int(sizes.Percentile(50)), int(sizes.Percentile(90)))
	mid := byTypes[7] + byTypes[8] + byTypes[9]
	tail := byTypes[10] + byTypes[11] + byTypes[12]
	r.addf("fulfilling types: exactly 1 → %d, 7-9 → %d, 10-12 → %d", byTypes[1], mid, tail)
	r.ShapeHolds = minSize <= 2 && maxSize >= 10000 &&
		byTypes[1] > n/10 && mid > n/5 && tail > 0 && tail < byTypes[1]
	r.Elapsed = time.Since(start)
	_ = scale
	return r, nil
}

// Fig5 reproduces the unavailability characterization (§2.5): planned
// maintenance dominates steady-state unavailability, unplanned stays under
// ~0.5% baseline, and one correlated MSB failure causes a ~4% spike.
func Fig5(scale Scale) (*Report, error) {
	start := time.Now()
	r := &Report{
		ID:    "Figure 5",
		Title: "Server unavailability events over one month",
		PaperClaim: "combined unavailability can exceed 5%; planned maintenance accounts " +
			"for the majority; unplanned baseline <0.5% with spikes; one correlated MSB failure ≈4% loss",
	}
	region, err := topology.Generate(regionSpec(scale, 5))
	if err != nil {
		return nil, err
	}
	b := broker.New(region)
	cfg := health.DefaultConfig()
	cfg.MSBFailureRate = 0 // injected deterministically below
	svc := health.New(b, cfg)

	total := float64(len(region.Servers))
	hours := 28 * 24
	failHour := 14 * 24 // correlated failure mid-month
	var weekly [4]struct {
		planned, unplanned metrics.Sample
	}
	spike := 0.0
	for h := 1; h <= hours; h++ {
		now := int64(h) * 3600
		svc.Tick(now)
		if h%6 == 0 {
			svc.StartMaintenanceWave(now)
		}
		if h == failHour {
			svc.FailMSB(region.NumMSBs/2, now, 12*3600)
		}
		planned, unplanned := b.UnavailableCount()
		w := (h - 1) / (7 * 24)
		weekly[w].planned.Add(float64(planned) / total)
		weekly[w].unplanned.Add(float64(unplanned) / total)
		if frac := float64(unplanned) / total; frac > spike {
			spike = frac
		}
	}
	for w := range weekly {
		r.addf("week %d: planned avg %.2f%%, unplanned avg %.2f%% (max %.2f%%)",
			w+1, 100*weekly[w].planned.Mean(), 100*weekly[w].unplanned.Mean(),
			100*weekly[w].unplanned.Max())
	}
	r.addf("correlated-failure spike: %.2f%% of region (one MSB = %.2f%%)",
		100*spike, 100/float64(region.NumMSBs))

	baselineOK := weekly[0].unplanned.Mean() < 0.02
	plannedDominates := weekly[0].planned.Mean() > weekly[0].unplanned.Mean()
	spikeOK := spike > 0.5/float64(region.NumMSBs)
	r.ShapeHolds = baselineOK && plannedDominates && spikeOK
	r.Elapsed = time.Since(start)
	return r, nil
}

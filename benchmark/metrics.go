package main

import (
	"math"
	"sort"
)

// metric is one reported number. BENCHMARK.json lists the same names, units
// and directions; the test keeps the two in step.
type metric struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: share of the baseline median it may worsen by
	exact      bool    // a count that repeats exactly in an episode of a fixed seed
}

// endToEnd are the metrics of the untraced pass, the same on every workload.
// All are medians over an episode's rounds: means are set by a handful of
// rounds (a 100-node B&B after a resize is 100× the median round), and which
// rounds those are changes with the seed. The means are per-layer metrics.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "round_ms_p50", unit: "ms", bound: 0.25},
	{name: "objective_p50", unit: "cost", bound: 0.03, exact: true},
	{name: "alloc_mb_p50", unit: "MB", bound: 0.10},
}

// perLayer are the metrics of the traced pass: layer = module name. Times
// are the median of the span, counts are means over the traced rounds.
var perLayer = []metric{
	{name: "topology.generate_ms", unit: "ms"},
	{name: "reservation.all_us", unit: "us"},
	{name: "reservation.changes_per_round", unit: "count", exact: true},
	{name: "broker.snapshot_us", unit: "us"},
	{name: "broker.changed_since_us", unit: "us"},
	{name: "broker.changed_servers_per_round", unit: "count", exact: true},
	{name: "broker.journal_gap_rounds", unit: "count", exact: true},
	{name: "broker.set_targets_us", unit: "us"},
	{name: "health.tick_us", unit: "us"},
	{name: "health.failures_injected", unit: "count", exact: true},
	{name: "mover.handle_failure_us", unit: "us"},
	{name: "mover.replacements", unit: "count", higher: true, exact: true},
	{name: "mover.replacement_miss", unit: "count", exact: true},
	{name: "mover.apply_targets_us", unit: "us"},
	{name: "mover.moves_inuse_per_round", unit: "count", exact: true},
	{name: "mover.moves_unused_per_round", unit: "count", exact: true},
	{name: "allocator.place_us", unit: "us"},
	{name: "allocator.evictions", unit: "count", exact: true},
	{name: "backend.solve_ms", unit: "ms"},
	{name: "backend.self_ms", unit: "ms"},
	{name: "backend.pop_sub_ms_max", unit: "ms"},
	{name: "backend.pop_sub_ms_sum", unit: "ms"},
	{name: "backend.pop_repair_moves_per_round", unit: "count", exact: true},
	{name: "partition.split_ms", unit: "ms"},
	{name: "solver.ras_build_ms", unit: "ms"},
	{name: "solver.solver_build_ms", unit: "ms"},
	{name: "solver.initial_state_ms", unit: "ms"},
	{name: "solver.patch_ms", unit: "ms"},
	{name: "solver.patch_hit_ratio", unit: "ratio", higher: true, exact: true},
	{name: "solver.phase2_ratio", unit: "ratio", exact: true},
	{name: "solver.assign_vars", unit: "count", exact: true},
	{name: "solver.model_rows", unit: "count", exact: true},
	{name: "solver.groups", unit: "count", exact: true},
	{name: "solver.soft_slack_rounds", unit: "count", exact: true},
	{name: "solver.setup_only_ms", unit: "ms"},
	{name: "solver.evaluate_ms", unit: "ms"},
	{name: "mip.ms", unit: "ms"},
	{name: "mip.nodes_per_round", unit: "count", exact: true},
	{name: "mip.nodes_per_s", unit: "1/s", higher: true},
	{name: "mip.lp_solves_per_round", unit: "count", exact: true},
	{name: "mip.incumbent_updates_per_round", unit: "count", exact: true},
	{name: "mip.heuristic_win_ratio", unit: "ratio", higher: true, exact: true},
	{name: "mip.gap_preemptions_p50", unit: "count", exact: true},
	{name: "mip.node_limited_ratio", unit: "ratio", exact: true},
	{name: "lp.iters_per_round", unit: "count", exact: true},
	{name: "lp.root_iters_per_round", unit: "count", exact: true},
	{name: "lp.warm_root_ratio", unit: "ratio", higher: true, exact: true},
	{name: "lp.iter_limited_per_round", unit: "count", exact: true},
	{name: "lp.us_per_iter", unit: "us"},
	{name: "bench.rounds", unit: "count", higher: true},
	{name: "bench.rounds_per_s", unit: "1/s", higher: true},
	{name: "bench.objective_mean", unit: "cost", exact: true},
	{name: "bench.alloc_mb_per_round", unit: "MB"},
	{name: "bench.round_ms_tail", unit: "ms"},
	{name: "bench.round_tail_pct", unit: "%", higher: true},
	{name: "bench.stage_coverage_pct", unit: "%", higher: true},
	{name: "bench.deadline_miss_rounds", unit: "count", exact: true},
	{name: "bench.replay_mismatch_rounds", unit: "count", exact: true},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

// tally collects a traced episode's counts (summed) and samples (kept).
type tally struct {
	sum map[string]float64
	obs map[string][]float64
}

func newTally() tally {
	return tally{sum: map[string]float64{}, obs: map[string][]float64{}}
}

func (t *tally) add(name string, v float64)     { t.sum[name] += v }
func (t *tally) observe(name string, v float64) { t.obs[name] = append(t.obs[name], v) }

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the p-th percentile (0..100) by linear interpolation between
// the two nearest ranks; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailPercentile is the highest of the usual percentiles that still has at
// least ten samples beyond it; with fewer than forty samples that is the
// median.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			tail = p
		}
	}
	return tail
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

const (
	msPerNS = 1e-6
	usPerNS = 1e-3
)

// untraced summarizes an untraced episode's rounds. Failed rounds enter the
// latencies at the deadline and are left out of the objectives.
type untraced struct {
	latMS, objective, allocMB []float64
	wall                      float64 // seconds of events and Solves
}

func (ep *episode) untraced() untraced {
	var u untraced
	for i := range ep.rounds {
		rd := &ep.rounds[i]
		u.wall += (rd.events + rd.solve).Seconds()
		u.allocMB = append(u.allocMB, float64(rd.alloc)/(1<<20))
		if rd.failed != "" {
			u.latMS = append(u.latMS, float64(ep.w.deadline)*msPerNS)
			continue
		}
		u.latMS = append(u.latMS, float64(rd.solve)*msPerNS)
		u.objective = append(u.objective, rd.objective)
	}
	return u
}

// endToEndValues are an untraced episode's numbers.
func (ep *episode) endToEndValues() map[string]float64 {
	u := ep.untraced()
	return map[string]float64{
		"setup_s":       ep.setup.Seconds(),
		"round_ms_p50":  median(u.latMS),
		"objective_p50": median(u.objective),
		"alloc_mb_p50":  median(u.allocMB),
	}
}

// perLayerValues are a traced episode's numbers; ref is the untraced episode
// of the same rounds, which gives the tracing overhead, the means the
// end-to-end medians leave out, and the latency tail.
func (ep *episode) perLayerValues(ref *episode) map[string]float64 {
	t := &ep.tally
	// Span durations by name, in ns. Of set-up, only the two layers that run
	// nowhere else are kept. A round's time is attributed to a layer by the
	// calls the solve sequence timed and by the stages the backend reported;
	// what is left of the backend's span is its self time.
	dur := map[string][]float64{}
	name := map[int]string{}    // span ID → name
	stages := map[int]float64{} // round → sum of the reported stages
	var solves []*span
	var roundTotal, attributed float64
	for i := range ep.tr.spans {
		sp := &ep.tr.spans[i]
		name[sp.ID] = sp.Name
		d := float64(sp.dur())
		if sp.Round == setupRound {
			if sp.Name == "topology.generate" || sp.Name == "allocator.place" {
				dur[sp.Name] = append(dur[sp.Name], d)
			}
			continue
		}
		dur[sp.Name] = append(dur[sp.Name], d)
		switch {
		case sp.Name == "round.solve":
			roundTotal += d
		case sp.Derived:
			stages[sp.Round] += d
			attributed += d
		case sp.Name == "backend.solve":
			solves = append(solves, sp)
		case name[sp.Parent] == "round.solve":
			attributed += d
		}
	}
	var self []float64
	for _, sp := range solves {
		self = append(self, float64(sp.dur())-stages[sp.Round])
	}

	rounds := float64(len(ep.rounds))
	u := ref.untraced()
	var traced, untraced, mismatch float64
	for i := range ep.rounds {
		traced += float64(ep.rounds[i].solve)
		untraced += float64(ref.rounds[i].solve)
		if ep.rounds[i].sum != ref.rounds[i].sum {
			mismatch++
		}
	}
	tail := tailPercentile(len(u.latMS))

	p50 := func(name string, scale float64) float64 { return median(dur[name]) * scale }
	obs := func(name string, scale float64) float64 { return median(t.obs[name]) * scale }
	perRound := func(name string) float64 { return ratio(t.sum[name], rounds) }
	return map[string]float64{
		"topology.generate_ms":               p50("topology.generate", msPerNS),
		"reservation.all_us":                 p50("reservation.all", usPerNS),
		"reservation.changes_per_round":      perRound("reservation.changes"),
		"broker.snapshot_us":                 p50("broker.snapshot", usPerNS),
		"broker.changed_since_us":            p50("broker.changed_since", usPerNS),
		"broker.changed_servers_per_round":   perRound("broker.changed_servers"),
		"broker.journal_gap_rounds":          t.sum["broker.journal_gaps"],
		"broker.set_targets_us":              p50("broker.set_targets", usPerNS),
		"health.tick_us":                     p50("health.tick", usPerNS),
		"health.failures_injected":           t.sum["health.failures"],
		"mover.handle_failure_us":            p50("mover.handle_failure", usPerNS),
		"mover.replacements":                 t.sum["mover.replacements"],
		"mover.replacement_miss":             t.sum["mover.replacement_miss"],
		"mover.apply_targets_us":             p50("mover.apply_targets", usPerNS),
		"mover.moves_inuse_per_round":        perRound("mover.moves_inuse"),
		"mover.moves_unused_per_round":       perRound("mover.moves_unused"),
		"allocator.place_us":                 p50("allocator.place", usPerNS),
		"allocator.evictions":                t.sum["allocator.evictions"],
		"backend.solve_ms":                   p50("backend.solve", msPerNS),
		"backend.self_ms":                    median(self) * msPerNS,
		"backend.pop_sub_ms_max":             obs("backend.pop_sub_max", msPerNS),
		"backend.pop_sub_ms_sum":             obs("backend.pop_sub_sum", msPerNS),
		"backend.pop_repair_moves_per_round": perRound("backend.pop_repair_moves"),
		"partition.split_ms":                 obs("partition.split", msPerNS),
		"solver.ras_build_ms":                p50("solver.ras_build", msPerNS),
		"solver.solver_build_ms":             p50("solver.solver_build", msPerNS),
		"solver.initial_state_ms":            p50("solver.initial_state", msPerNS),
		"solver.patch_ms":                    p50("solver.patch", msPerNS),
		"solver.patch_hit_ratio":             ratio(t.sum["solver.patched"], t.sum["phase1s"]),
		"solver.phase2_ratio":                ratio(t.sum["solver.phase2s"], t.sum["phase1s"]),
		"solver.assign_vars":                 ratio(t.sum["solver.assign_vars"], t.sum["phase1s"]),
		"solver.model_rows":                  ratio(t.sum["solver.model_rows"], t.sum["phase1s"]),
		"solver.groups":                      ratio(t.sum["solver.groups"], t.sum["phase1s"]),
		"solver.soft_slack_rounds":           t.sum["solver.soft_slack"],
		"solver.setup_only_ms":               obs("solver.setup_only", msPerNS),
		"solver.evaluate_ms":                 obs("solver.evaluate", msPerNS),
		"mip.ms":                             obs("mip", msPerNS),
		"mip.nodes_per_round":                perRound("mip.nodes"),
		"mip.nodes_per_s":                    ratio(t.sum["mip.nodes"], t.sum["mip.ns"]*1e-9),
		"mip.lp_solves_per_round":            perRound("mip.lp_solves"),
		"mip.incumbent_updates_per_round":    perRound("mip.incumbent_updates"),
		"mip.heuristic_win_ratio":            ratio(t.sum["mip.heuristic_wins"], t.sum["mip.incumbent_updates"]),
		"mip.gap_preemptions_p50":            obs("mip.gap_preemptions", 1),
		"mip.node_limited_ratio":             ratio(t.sum["mip.node_limited"], t.sum["phases"]),
		"lp.iters_per_round":                 perRound("lp.iters"),
		"lp.root_iters_per_round":            perRound("lp.root_iters"),
		"lp.warm_root_ratio":                 ratio(t.sum["lp.warm_roots"], t.sum["phase1s"]),
		"lp.iter_limited_per_round":          perRound("lp.iter_limited"),
		"lp.us_per_iter":                     ratio(t.sum["mip.ns"]*usPerNS, t.sum["lp.iters"]),
		"bench.rounds":                       rounds,
		"bench.rounds_per_s":                 ratio(rounds, u.wall),
		"bench.objective_mean":               mean(u.objective),
		"bench.alloc_mb_per_round":           mean(u.allocMB),
		"bench.round_ms_tail":                percentile(u.latMS, tail),
		"bench.round_tail_pct":               tail,
		"bench.stage_coverage_pct":           100 * ratio(attributed, roundTotal),
		"bench.deadline_miss_rounds":         t.sum["bench.deadline_miss"],
		"bench.replay_mismatch_rounds":       mismatch,
		"bench.trace_overhead_pct":           100 * (ratio(traced, untraced) - 1),
	}
}

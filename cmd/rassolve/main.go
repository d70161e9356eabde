// Command rassolve runs one async-solver round over a region description
// read from JSON (or a synthetic region) and writes the resulting
// server-to-reservation assignment as JSON, making the solver usable as a
// standalone tool.
//
// Usage:
//
//	rassolve -in region.json > assignment.json
//	rassolve -synthetic -dcs 2 -msbs 3 -reservations 4 > assignment.json
//	rassolve -synthetic -backend localsearch > assignment.json
//
// The -backend flag selects the solver backend (mip, localsearch, pop);
// -partitions sets the pop backend's sub-region count. SIGINT/SIGTERM cancel
// the solve cooperatively: the tool still writes the best incumbent
// assignment found before the signal.
//
// Input schema (JSON):
//
//	{
//	  "region": {"dcs": 2, "msbsPerDC": 3, "racksPerMSB": 4, "serversPerRack": 8, "seed": 1},
//	  "reservations": [
//	    {"name": "web", "class": "Web", "rrus": 120, "countBased": true}
//	  ]
//	}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ras"
	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/lp"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

type inputDoc struct {
	Region       topology.GenSpec `json:"region"`
	Reservations []resDoc         `json:"reservations"`
}

type resDoc struct {
	Name       string  `json:"name"`
	Class      string  `json:"class"`
	RRUs       float64 `json:"rrus"`
	CountBased bool    `json:"countBased"`
	SingleDC   *int    `json:"singleDC,omitempty"`
}

type outputDoc struct {
	Backend    string           `json:"backend"`
	Status     string           `json:"status"`
	Servers    []serverOut      `json:"servers"`
	Phase1     *statsOut        `json:"phase1,omitempty"`
	Phase2     *statsOut        `json:"phase2,omitempty"`
	Moves      solver.MoveStats `json:"moves"`
	ByRes      map[string]int   `json:"serversPerReservation"`
	ElapsedSec float64          `json:"elapsedSec"`
}

type serverOut struct {
	ID   int    `json:"id"`
	Type string `json:"type"`
	MSB  int    `json:"msb"`
	DC   int    `json:"dc"`
	Res  string `json:"reservation"`
}

type statsOut struct {
	AssignVars int    `json:"assignVars"`
	Groups     int    `json:"symmetryGroups"`
	Status     string `json:"status"`
	// GapPreemptions is omitted when no bound exists (solve cancelled
	// before the root relaxation finished): the gap is +Inf, which JSON
	// cannot represent.
	GapPreemptions *float64 `json:"gapPreemptions,omitempty"`
	SoftSlack      float64  `json:"softSlack"`
	TotalSec       float64  `json:"totalSec"`
}

func classByName(name string) (hardware.Class, bool) {
	for _, c := range hardware.Classes() {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

func main() {
	var (
		in        = flag.String("in", "", "input JSON file ('-' or empty with -synthetic)")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic region and reservations")
		dcs       = flag.Int("dcs", 2, "synthetic: datacenters")
		msbs      = flag.Int("msbs", 3, "synthetic: MSBs per DC")
		nres      = flag.Int("reservations", 4, "synthetic: reservation count")
		timeLimit = flag.Duration("time-limit", 10*time.Second, "solve time limit")
		workers   = flag.Int("workers", runtime.NumCPU(),
			"solve parallelism: branch-and-bound workers (mip) or the budget pop divides across its sub-solves; localsearch is serial; 1 = serial")
		beName = flag.String("backend", backend.DefaultName,
			"solver backend ("+strings.Join(backend.Names(), ", ")+")")
		partitions = flag.Int("partitions", 0,
			"pop backend: sub-region count k (0 = default; other backends ignore it)")
		verbose    = flag.Bool("v", false, "print solver and LP counters to stderr after the solve")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("rassolve: -cpuprofile: %v", err)
		}
		defer f.Close() //raslint:allow errdrop StopCPUProfile has flushed by the time this close runs; the profile is a best-effort diagnostic
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("rassolve: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("rassolve: -memprofile: %v", err)
			}
			defer f.Close() //raslint:allow errdrop WriteHeapProfile error-checks the write itself; a close failure can only truncate a best-effort diagnostic
			runtime.GC()    // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("rassolve: -memprofile: %v", err)
			}
		}()
	}

	var doc inputDoc
	switch {
	case *synthetic:
		doc.Region = topology.GenSpec{Name: "synthetic", DCs: *dcs, MSBsPerDC: *msbs,
			RacksPerMSB: 6, ServersPerRack: 6, Seed: 1}
		total := *dcs * *msbs * 36
		for i := 0; i < *nres; i++ {
			doc.Reservations = append(doc.Reservations, resDoc{
				Name:       fmt.Sprintf("svc-%d", i),
				Class:      hardware.Class(i % 5).String(),
				RRUs:       float64(total) * 0.7 / float64(*nres),
				CountBased: true,
			})
		}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close() //raslint:allow errdrop file is opened read-only, so close cannot lose buffered writes
		if err := json.NewDecoder(f).Decode(&doc); err != nil {
			log.Fatalf("rassolve: parse %s: %v", *in, err)
		}
	default:
		if err := json.NewDecoder(os.Stdin).Decode(&doc); err != nil {
			log.Fatalf("rassolve: parse stdin: %v", err)
		}
	}

	region, err := ras.NewRegion(doc.Region)
	if err != nil {
		log.Fatal(err)
	}
	var rsvs []reservation.Reservation
	for i, rd := range doc.Reservations {
		cl, ok := classByName(rd.Class)
		if !ok {
			log.Fatalf("rassolve: unknown class %q (want one of %v)", rd.Class, hardware.Classes())
		}
		pol := reservation.DefaultPolicy()
		if rd.SingleDC != nil {
			pol.SingleDC = *rd.SingleDC
		}
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: rd.Name, Class: cl,
			RRUs: rd.RRUs, CountBased: rd.CountBased, Policy: pol,
		})
	}

	// SIGINT/SIGTERM cancel the solve; the backend returns its best
	// incumbent, which is still written out below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	be, err := backend.New(*beName, backend.Config{})
	if err != nil {
		log.Fatal(err)
	}
	b := broker.New(region)
	res, err := be.Solve(ctx, solver.Input{
		Region: region, Reservations: rsvs, States: b.Snapshot(),
	}, backend.Options{TimeLimit: *timeLimit, Workers: *workers, Partitions: *partitions})
	if err != nil {
		log.Fatal(err)
	}

	out := outputDoc{
		Backend:    res.Backend,
		Status:     res.Status.String(),
		Servers:    []serverOut{},
		ByRes:      map[string]int{},
		ElapsedSec: res.Elapsed.Seconds(),
		Moves:      res.Moves,
	}
	if res.MIP != nil {
		s := toStats(res.MIP.Phase1)
		out.Phase1 = &s
		if res.MIP.RanPhase2 {
			s2 := toStats(res.MIP.Phase2)
			out.Phase2 = &s2
		}
	}
	nameOf := func(id reservation.ID) string {
		switch {
		case id == reservation.Unassigned:
			return ""
		case id == reservation.SharedBuffer:
			return "shared-buffer"
		case int(id) < len(rsvs):
			return rsvs[id].Name
		}
		return fmt.Sprintf("res-%d", id)
	}
	for i, tgt := range res.Targets {
		srv := region.Servers[i]
		name := nameOf(tgt)
		if name == "" {
			continue // free pool
		}
		out.Servers = append(out.Servers, serverOut{
			ID: i, Type: region.Catalog.Type(srv.Type).ID, MSB: srv.MSB, DC: srv.DC, Res: name,
		})
		out.ByRes[name]++
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
	if *verbose {
		printCounters(os.Stderr, res)
		printWarmStarts(os.Stderr, res)
		printModelBuilds(os.Stderr, res)
	}
}

// printModelBuilds reports, per sub-solve and phase and from the values the
// solve returned, whether the phase's model was patched or built and why a
// requested patch fell back, how many rounding cuts it carries and the gap the
// search started from (the root relaxation's bound against the objective it
// ended on), then every softened row left violated (§5.3: a shortfall has to
// name the request it hits).
func printModelBuilds(w io.Writer, res *backend.Result) {
	for k, r := range res.SolverResults() {
		for i, ph := range [2]*solver.PhaseStats{&r.Phase1, &r.Phase2} {
			if ph.ModelVars == 0 {
				continue // phase did not run
			}
			fmt.Fprintf(w, "model sub%d phase%d: patched=%v rebuild_reason=%v cut_rows=%d root_bound=%.4f objective=%.4f residual_slack_rows=%d\n",
				k, i+1, ph.ModelPatched, ph.Rebuild, ph.CutRows, ph.RootBound, ph.Objective, len(ph.ResidualSlack))
			for _, rs := range ph.ResidualSlack {
				fmt.Fprintf(w, "  slack %s = %.3f\n", rs.Row, rs.Amount)
			}
		}
	}
}

// printWarmStarts reports, per solve phase and from the values the solve
// returned, how its warm-started LPs fared: columns flipped to their opposite
// bound (or held back by a cost shift) to restore dual feasibility, warm
// starts abandoned for a cold two-phase solve, by reason, infeasibility claims
// accepted on their certificate instead, the primal's degenerate steps and
// Bland iterations, how often the maintained reduced costs were recomputed and
// the largest drift that found, and what became of the previous round's root
// basis. The pop backend's lines sum its partitions.
func printWarmStarts(w io.Writer, res *backend.Result) {
	var phases [2]lp.Stats // a phase that did not run adds zeros
	var roots [2]solver.RootBasisTally
	for _, r := range res.SolverResults() {
		phases[0].Add(r.Phase1.LP)
		phases[1].Add(r.Phase2.LP)
		roots[0].Add(&r.Phase1)
		roots[1].Add(&r.Phase2)
	}
	for i, l := range phases {
		if l.Solves == 0 {
			continue
		}
		fmt.Fprintf(w, "lp-warm phase%d: solves=%d iters=%d flipped_columns=%d cost_shifts=%d cold_fallbacks=%d (%v) %s root_basis: %v\n",
			i+1, l.Solves, l.Iterations, l.FlippedColumns, l.CostShifts, l.ColdFallbacks.Total(), l.ColdFallbacks,
			l.Kernel(), roots[i])
	}
}

// printCounters sums the statistics this solve returned — over both phases,
// and over the partitions under pop — in a stable, greppable key=value
// layout. Nothing here is process-wide: two solves print two sets of numbers.
func printCounters(w io.Writer, res *backend.Result) {
	var solves, workers, nodes, incumbents, heurWins, warmHits, warmMisses, patched, noCache, fallbacks int
	var l lp.Stats
	count := func(n *int, cond bool) {
		if cond {
			*n++
		}
	}
	for _, r := range res.SolverResults() {
		for _, ph := range [2]*solver.PhaseStats{&r.Phase1, &r.Phase2} {
			count(&solves, ph.Workers > 0) // resolved to ≥ 1 exactly when the phase's MIP ran
			workers += ph.Workers
			nodes += ph.Nodes
			incumbents += ph.IncumbentUpdates
			heurWins += ph.HeuristicWins
			count(&warmHits, ph.WarmRoot)
			count(&warmMisses, ph.RootBasisMismatch)
			count(&patched, ph.ModelPatched)
			count(&noCache, ph.Rebuild == solver.RebuildNoCache)
			count(&fallbacks, ph.Rebuild > solver.RebuildNoCache)
			l.Add(ph.LP)
		}
	}
	fmt.Fprintf(w, "solver: solves=%d workers=%d nodes=%d incumbents=%d heuristic_wins=%d round_warm_hits=%d round_warm_misses=%d\n",
		solves, workers, nodes, incumbents, heurWins, warmHits, warmMisses)
	fmt.Fprintf(w, "model-cache: patch_hits=%d patch_misses=%d fallback_rebuilds=%d\n", patched, noCache, fallbacks)
	fmt.Fprintf(w, "lp: solves=%d iters=%d dual_iters=%d refactorizations=%d workspace_reuses=%d warm_hits=%d warm_misses=%d\n",
		l.Solves, l.Iterations, l.DualIterations, l.Refactorizations, l.WorkspaceReuses, l.WarmHits, l.ColdFallbacks.Total())
	fmt.Fprintf(w, "lp-factor: update_etas=%d fill_ins=%d singular_repairs=%d\n", l.UpdateEtas, l.FillIns, l.SingularRepairs)
	if d := res.POP; d != nil {
		fmt.Fprintf(w, "pop: partitions=%d partition_solves=%d repair_moves=%d repair_steps=%d repair_candidates=%d partition_warm_hits=%d partition_warm_misses=%d\n",
			d.Partitions, len(d.Subs), d.Repair.Moves(), d.Repair.Steps, d.Repair.Candidates, d.WarmPartitions, d.Partitions-d.WarmPartitions)
	}
}

func toStats(p solver.PhaseStats) statsOut {
	s := statsOut{
		AssignVars: p.AssignVars,
		Groups:     p.Groups,
		Status:     p.Status.String(),
		SoftSlack:  p.SoftSlack,
		TotalSec:   p.Total().Seconds(),
	}
	if !math.IsInf(p.GapPreemptions, 0) && !math.IsNaN(p.GapPreemptions) {
		g := p.GapPreemptions
		s.GapPreemptions = &g
	}
	return s
}

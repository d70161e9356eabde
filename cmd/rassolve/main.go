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
		var totals backend.Totals
		totals.Add(res)
		totals.Print(os.Stderr)
		printModelBuilds(os.Stderr, res)
	}
}

// printModelBuilds reports, per sub-solve and phase and from the values the
// solve returned, whether the phase's model was patched or built and why it
// was built, how many rounding cuts it carries and the gap the
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

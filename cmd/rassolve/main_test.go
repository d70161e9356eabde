package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ras"
	"ras/internal/backend"
	"ras/internal/broker"
	"ras/internal/hardware"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// solveSynthetic runs the -synthetic default instance (2 DCs × 3 MSBs × 6×6,
// four count-based reservations filling 70 %) at Workers = 1.
func solveSynthetic(t *testing.T, name string, partitions int) *backend.Result {
	t.Helper()
	region, err := ras.NewRegion(topology.GenSpec{Name: "synthetic", DCs: 2, MSBsPerDC: 3,
		RacksPerMSB: 6, ServersPerRack: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rsvs []reservation.Reservation
	for i := 0; i < 4; i++ {
		rsvs = append(rsvs, reservation.Reservation{
			ID: reservation.ID(i), Name: fmt.Sprintf("svc-%d", i), Class: hardware.Class(i % 5),
			RRUs: 216 * 0.7 / 4, CountBased: true, Policy: reservation.DefaultPolicy(),
		})
	}
	be, err := backend.New(name, backend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Solve(context.Background(), solver.Input{
		Region: region, Reservations: rsvs, States: broker.New(region).Snapshot(),
	}, backend.Options{Workers: 1, Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// parseCounters reads "label: key=n key=n …" lines into label → key → n.
func parseCounters(t *testing.T, out string) map[string]map[string]int {
	t.Helper()
	keyValue := regexp.MustCompile(`^([a-z_]+)=(\d+)$`)
	lines := map[string]map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		label, rest, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("line without a label: %q", line)
		}
		kv := map[string]int{}
		for _, tok := range strings.Fields(rest) {
			if m := keyValue.FindStringSubmatch(tok); m != nil {
				kv[m[1]], _ = strconv.Atoi(m[2])
			}
		}
		lines[label] = kv
	}
	return lines
}

// TestVerboseCountersAddUp: everything -v prints comes from the result of the
// one solve it describes, so the per-phase lines must add up to the totals
// line, the totals to the PhaseStats they were read from, and — under pop —
// both to the sum over partitions.
func TestVerboseCountersAddUp(t *testing.T) {
	for _, tc := range []struct {
		backend    string
		partitions int
	}{{"mip", 0}, {"pop", 4}} {
		t.Run(tc.backend, func(t *testing.T) {
			res := solveSynthetic(t, tc.backend, tc.partitions)
			var buf bytes.Buffer
			var totals backend.Totals
			totals.Add(res)
			totals.Print(&buf)
			got := parseCounters(t, buf.String())

			subs := res.SolverResults()
			var lpSolves, lpIters, nodes, etas int
			for _, r := range subs {
				for _, ph := range [2]solver.PhaseStats{r.Phase1, r.Phase2} {
					lpSolves += ph.LPSolves
					lpIters += ph.LPIters
					nodes += ph.Nodes
					etas += ph.LP.UpdateEtas
				}
			}
			if lpSolves == 0 || nodes == 0 || etas == 0 {
				t.Fatalf("solve too small: lp solves=%d nodes=%d etas=%d", lpSolves, nodes, etas)
			}
			for _, c := range []struct {
				label, key string
				want       int
			}{
				{"solver", "nodes", nodes},
				{"lp", "solves", lpSolves},
				{"lp", "iters", lpIters},
				{"lp-factor", "update_etas", etas},
			} {
				if got[c.label][c.key] != c.want {
					t.Errorf("%s: %s=%d, the returned stats sum to %d", c.label, c.key, got[c.label][c.key], c.want)
				}
			}

			p1, p2 := got["lp-warm phase1"], got["lp-warm phase2"]
			if p1 == nil || p2 == nil {
				t.Fatalf("missing a per-phase line in:\n%s", buf.String())
			}
			for _, c := range []struct{ total, phase string }{
				{"solves", "solves"}, {"iters", "iters"}, {"warm_misses", "cold_fallbacks"},
			} {
				if sum := p1[c.phase] + p2[c.phase]; got["lp"][c.total] != sum {
					t.Errorf("lp: %s=%d but the phase lines' %s sum to %d",
						c.total, got["lp"][c.total], c.phase, sum)
				}
			}

			pop, ok := got["pop"]
			if ok != (res.POP != nil) {
				t.Fatalf("pop line printed=%v for backend %s", ok, tc.backend)
			}
			if res.POP != nil {
				if len(subs) < 2 || pop["partitions"] != len(subs) || pop["partition_solves"] != len(subs) {
					t.Errorf("pop line %v for %d partitions", pop, len(subs))
				}
				if pop["partition_warm_hits"] != 0 || pop["partition_warm_misses"] != len(subs) {
					t.Errorf("cold pop solve prints %v", pop)
				}
				if got["solver"]["solves"] < len(subs) {
					t.Errorf("solver: solves=%d for %d partitions", got["solver"]["solves"], len(subs))
				}
			}
		})
	}
}

package ras_test

import (
	"context"
	"strings"
	"testing"

	"ras"
)

func TestEmergencyGrantFromFreePool(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "urgent", Class: ras.Web, RRUs: 5, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// No solve has run: the grant must come entirely from the free pool,
	// immediately.
	granted, err := sys.EmergencyGrant(id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(granted) < 5 {
		t.Fatalf("granted %d servers for 5 count-based RRUs", len(granted))
	}
	if got := len(sys.Broker().ServersIn(id)); got < 5 {
		t.Fatalf("broker shows %d servers", got)
	}
}

func TestEmergencyGrantDipsIntoBuffer(t *testing.T) {
	sys := testSystem(t)
	region := sys.Region()
	// Fill the region so the free pool is tiny; buffers exist after solve.
	big, err := sys.CreateReservation(ras.Reservation{
		Name: "big", Class: ras.FleetAvg, RRUs: float64(len(region.Servers)) * 0.93,
		CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	bufBefore := len(sys.Broker().ServersIn(ras.SharedBuffer))
	if bufBefore == 0 {
		t.Skip("no buffer materialized at this size")
	}
	urgent, err := sys.CreateReservation(ras.Reservation{
		Name: "urgent", Class: ras.FleetAvg, RRUs: float64(bufBefore + 2),
		CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	granted, err := sys.EmergencyGrant(urgent, float64(bufBefore+2))
	// The grant may or may not fully succeed depending on free leftovers;
	// either way it must have consumed buffer servers.
	bufAfter := len(sys.Broker().ServersIn(ras.SharedBuffer))
	if bufAfter >= bufBefore {
		t.Fatalf("buffer not tapped: %d → %d (granted %d, err %v)",
			bufBefore, bufAfter, len(granted), err)
	}
	_ = big
}

func TestEmergencyGrantReportsShortfall(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "impossible", Class: ras.Web, RRUs: 1e9, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	granted, err := sys.EmergencyGrant(id, 1e9)
	if err == nil {
		t.Fatal("impossible grant must report a shortfall")
	}
	if !strings.Contains(err.Error(), "short by") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if len(granted) == 0 {
		t.Fatal("partial grant must still happen during an emergency")
	}
}

func TestEmergencyGrantCorrectedByNextSolve(t *testing.T) {
	sys := testSystem(t)
	id, err := sys.CreateReservation(ras.Reservation{
		Name: "svc", Class: ras.Web, RRUs: 20, CountBased: true, Policy: ras.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EmergencyGrant(id, 20); err != nil {
		t.Fatal(err)
	}
	// The emergency grant ignored spread; the next solve must restore the
	// single-MSB-loss guarantee (§5.4: "future solves will correct any
	// placement guarantees that were broken").
	if _, err := sys.Solve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	_, surviving, err := sys.GuaranteedRRUs(id)
	if err != nil {
		t.Fatal(err)
	}
	if surviving < 20 {
		t.Fatalf("post-solve capacity %0.1f does not survive an MSB loss", surviving)
	}
}

func TestEmergencyGrantUnknownReservation(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.EmergencyGrant(999, 5); err == nil {
		t.Fatal("unknown reservation must error")
	}
}

// TestEmergencyGrantKeepsSingleDC: a reservation pinned to datacenter 1 is
// granted only datacenter-1 servers, although the free pool's lowest IDs
// lie in datacenter 0, and GuaranteedRRUs counts nothing bound to it outside
// datacenter 1.
func TestEmergencyGrantKeepsSingleDC(t *testing.T) {
	sys := testSystem(t)
	region := sys.Region()
	pol := ras.DefaultPolicy()
	pol.SingleDC = 1
	r := ras.Reservation{Name: "ml", Class: ras.Web, RRUs: 10, CountBased: true, Policy: pol}
	id, err := sys.CreateReservation(r)
	if err != nil {
		t.Fatal(err)
	}
	granted, err := sys.EmergencyGrant(id, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range granted {
		if dc := region.Server(sid).DC; dc != 1 {
			t.Fatalf("granted server %d of datacenter %d to a reservation pinned to datacenter 1", sid, dc)
		}
	}
	// Bind a server of an accepted type from datacenter 0 by hand.
	for _, srv := range region.Servers {
		if srv.DC == 0 && r.Value(region.Catalog, srv.Type, 1) > 0 {
			sys.Broker().SetCurrent(srv.ID, id)
			break
		}
	}
	total, _, err := sys.GuaranteedRRUs(id)
	if err != nil {
		t.Fatal(err)
	}
	if total != float64(len(granted)) {
		t.Fatalf("GuaranteedRRUs = %v, want %d: the datacenter-0 server counts for nothing", total, len(granted))
	}
}

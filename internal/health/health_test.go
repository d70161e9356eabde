package health

import (
	"testing"

	"ras/internal/broker"
	"ras/internal/topology"
)

func testSetup(t testing.TB, cfg Config) (*broker.Broker, *Service) {
	t.Helper()
	region, err := topology.Generate(topology.GenSpec{
		DCs: 1, MSBsPerDC: 4, RacksPerMSB: 5, ServersPerRack: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(region)
	return b, New(b, cfg)
}

func TestTickInjectsRandomFailures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomFailureRate = 0.5 // force visible failures
	cfg.MSBFailureRate = 0
	cfg.ToRFailureRate = 0
	b, svc := testSetup(t, cfg)
	st := svc.Tick(3600)
	if st.RandomFailures == 0 {
		t.Fatal("no random failures at 50% rate")
	}
	_, unplanned := b.UnavailableCount()
	if unplanned != st.RandomFailures {
		t.Fatalf("broker shows %d unplanned, stats say %d", unplanned, st.RandomFailures)
	}
}

func TestTickExpiresEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RandomFailureRate = 0
	cfg.MSBFailureRate = 0
	cfg.ToRFailureRate = 0
	b, svc := testSetup(t, cfg)
	b.SetUnavailable(0, broker.RandomFailure, 0, 1800)
	svc.Tick(3600)
	if b.State(0).Unavail != broker.Available {
		t.Fatal("expired failure not cleared by Tick")
	}
}

func TestFailMSB(t *testing.T) {
	b, svc := testSetup(t, DefaultConfig())
	n := svc.FailMSB(1, 0, 3600)
	if n != 50 {
		t.Fatalf("failed %d servers, want 50 (one MSB)", n)
	}
	byMSB := b.Region().ServersByMSB()
	for _, id := range byMSB[1] {
		if b.State(id).Unavail != broker.CorrelatedFailure {
			t.Fatalf("server %d in failed MSB is %v", id, b.State(id).Unavail)
		}
	}
	for _, id := range byMSB[0] {
		if b.State(id).Unavail != broker.Available {
			t.Fatal("failure leaked outside the MSB")
		}
	}
	if svc.FailMSB(99, 0, 10) != 0 {
		t.Fatal("out-of-range MSB must be a no-op")
	}
}

func TestRecoverMSB(t *testing.T) {
	b, svc := testSetup(t, DefaultConfig())
	svc.FailMSB(2, 0, 7200)
	svc.RecoverMSB(2, 100)
	_, unplanned := b.UnavailableCount()
	if unplanned != 0 {
		t.Fatalf("%d servers still down after recovery", unplanned)
	}
}

func TestMaintenanceWaveRespectsCap(t *testing.T) {
	b, svc := testSetup(t, DefaultConfig())
	msb, affected := svc.StartMaintenanceWave(0)
	if msb != 0 {
		t.Fatalf("first wave at MSB %d, want 0 (rotation)", msb)
	}
	if affected != 12 { // 25% of 50, truncated
		t.Fatalf("wave affected %d servers, want 12 (25%% cap, §3.3.1)", affected)
	}
	planned, _ := b.UnavailableCount()
	if planned != affected {
		t.Fatalf("broker shows %d planned, want %d", planned, affected)
	}
	// Rotation advances.
	if next, _ := svc.StartMaintenanceWave(10); next != 1 {
		t.Fatalf("second wave at MSB %d, want 1", next)
	}
}

func TestPauseMaintenance(t *testing.T) {
	b, svc := testSetup(t, DefaultConfig())
	svc.StartMaintenanceWave(0)
	n := svc.PauseMaintenance(50)
	if n == 0 {
		t.Fatal("pause returned no servers")
	}
	planned, _ := b.UnavailableCount()
	if planned != 0 {
		t.Fatal("maintenance not fully paused")
	}
}

func TestSteadyStateUnavailabilityBand(t *testing.T) {
	if testing.Short() {
		t.Skip("month-long simulation")
	}
	// With paper-like rates, unplanned unavailability stays in a sane band
	// (paper §2.5: baseline < 0.5%, spikes > 3%, never ~everything).
	cfg := DefaultConfig()
	b, svc := testSetup(t, cfg)
	total := len(b.Region().Servers)
	worst := 0.0
	for h := 1; h <= 30*24; h++ {
		svc.Tick(int64(h) * 3600)
		_, unplanned := b.UnavailableCount()
		frac := float64(unplanned) / float64(total)
		if frac > worst {
			worst = frac
		}
	}
	if worst > 0.30 {
		t.Fatalf("unplanned unavailability hit %.1f%%, injector rates are off", worst*100)
	}
}

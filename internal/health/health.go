// Package health implements the Health Check Service plus the failure and
// maintenance injection used to reproduce the paper's unavailability
// characterization (§2.5, Figure 5): random server failures (~0.1% of the
// fleet in repair at any time), top-of-rack failures, correlated MSB-scope
// failures (~2% of MSBs impacted per year, roughly one MSB per month per
// region), and planned maintenance waves that the maintenance scheduler
// limits to 25% of an MSB concurrently.
package health

import (
	"math/rand"

	"ras/internal/broker"
	"ras/internal/topology"
)

// Config sets injection rates. All rates are per virtual hour unless noted.
type Config struct {
	// RandomFailureRate is the per-server probability of failing per hour.
	// The paper observes ≈0.1% of the fleet under repair at any time with
	// repairs lasting days; 0.0005/hour with multi-day repairs approximates
	// that steady state.
	RandomFailureRate float64
	// RandomRepairHours is the mean repair duration for random failures.
	RandomRepairHours float64
	// ToRFailureRate is the per-rack probability of a ToR failure per hour.
	ToRFailureRate float64
	// MSBFailureRate is the per-MSB probability of a correlated failure per
	// hour (≈1 MSB/month/region in the paper).
	MSBFailureRate float64
	// Seed seeds the injector's random draws.
	Seed int64
}

// The repair and maintenance durations of §2.5, typed so that every product
// formed from them rounds as it would on a float64 variable.
const (
	torRepairHours      float64 = 8    // mean ToR repair
	msbRepairHours      float64 = 12   // correlated-failure duration
	maintenanceFraction float64 = 0.25 // share of an MSB one wave takes down
	maintenanceHours    float64 = 4    // duration of one maintenance wave
)

// DefaultConfig returns rates matching the paper's observations.
func DefaultConfig() Config {
	return Config{
		RandomFailureRate: 0.00005, // ×72h repairs ≈ 0.36% in repair at steady state
		RandomRepairHours: 72,
		ToRFailureRate:    0.000005,
		MSBFailureRate:    1.0 / (30 * 24 * 36), // ~1 MSB/month in a 36-MSB region
		Seed:              1,
	}
}

// Service is the health-check service: it injects synthetic unavailability
// into the broker and expires past events. A real deployment would instead
// observe hardware telemetry; the write path into the broker is identical.
type Service struct {
	cfg    Config
	broker *broker.Broker
	region *topology.Region
	rng    *rand.Rand

	// maintenance rotation state: next MSB to maintain.
	nextMaintMSB int
}

// New creates a health service over the broker.
func New(b *broker.Broker, cfg Config) *Service {
	return &Service{
		cfg:    cfg,
		broker: b,
		region: b.Region(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats counts the random server failures one Tick injected; its ToR and MSB
// failures show in the broker's unavailability state.
type Stats struct {
	RandomFailures int
}

// Tick advances the injector by one virtual hour ending at time now
// (seconds). It expires finished events and injects new ones.
func (s *Service) Tick(now int64) Stats {
	var st Stats
	s.broker.ExpireUnavailability(now)

	// Random server failures.
	for i := range s.region.Servers {
		id := topology.ServerID(i)
		if s.broker.State(id).Unavail != broker.Available {
			continue
		}
		if s.rng.Float64() < s.cfg.RandomFailureRate {
			until := now + int64(s.cfg.RandomRepairHours*jitter(s.rng)*3600)
			s.broker.SetUnavailable(id, broker.RandomFailure, now, until)
			st.RandomFailures++
		}
	}

	// ToR failures: one rack at a time.
	byRack := s.region.ServersByRack()
	for _, servers := range byRack {
		if s.rng.Float64() >= s.cfg.ToRFailureRate {
			continue
		}
		until := now + int64(torRepairHours*jitter(s.rng)*3600)
		for _, id := range servers {
			s.broker.SetUnavailable(id, broker.ToRFailure, now, until)
		}
	}

	// Correlated MSB failures.
	for msb := 0; msb < s.region.NumMSBs; msb++ {
		if s.rng.Float64() >= s.cfg.MSBFailureRate {
			continue
		}
		s.FailMSB(msb, now, int64(msbRepairHours*3600))
	}
	return st
}

// FailMSB injects a correlated failure of the whole MSB for the given
// duration. It is exported so simulations and drills can trigger the exact
// scenario the embedded buffers exist for.
func (s *Service) FailMSB(msb int, now, durationSec int64) int {
	byMSB := s.region.ServersByMSB()
	if msb < 0 || msb >= len(byMSB) {
		return 0
	}
	until := now + durationSec
	for _, id := range byMSB[msb] {
		s.broker.SetUnavailable(id, broker.CorrelatedFailure, now, until)
	}
	return len(byMSB[msb])
}

// RecoverMSB clears a correlated failure early (e.g. after repair).
func (s *Service) RecoverMSB(msb int, now int64) {
	byMSB := s.region.ServersByMSB()
	if msb < 0 || msb >= len(byMSB) {
		return
	}
	for _, id := range byMSB[msb] {
		if s.broker.State(id).Unavail == broker.CorrelatedFailure {
			s.broker.ClearUnavailable(id, now)
		}
	}
}

// StartMaintenanceWave begins planned maintenance on the next MSB in the
// rotation, taking down at most maintenanceFraction of its servers, and
// returns the MSB index and the number of servers affected. The 25% cap is
// what lets embedded buffers return 75% of capacity within seconds during a
// correlated failure (§3.3.1).
func (s *Service) StartMaintenanceWave(now int64) (msb, affected int) {
	byMSB := s.region.ServersByMSB()
	if len(byMSB) == 0 {
		return -1, 0
	}
	msb = s.nextMaintMSB % len(byMSB)
	s.nextMaintMSB++
	servers := byMSB[msb]
	limit := int(float64(len(servers)) * maintenanceFraction)
	until := now + int64(maintenanceHours*3600)
	for _, id := range servers {
		if affected >= limit {
			break
		}
		if s.broker.State(id).Unavail != broker.Available {
			continue
		}
		s.broker.SetUnavailable(id, broker.PlannedMaintenance, now, until)
		affected++
	}
	return msb, affected
}

// PauseMaintenance cancels planned maintenance across the region, returning
// the freed servers immediately (failure handling outranks maintenance).
func (s *Service) PauseMaintenance(now int64) int {
	n := 0
	for i := range s.region.Servers {
		id := topology.ServerID(i)
		if s.broker.State(id).Unavail == broker.PlannedMaintenance {
			s.broker.ClearUnavailable(id, now)
			n++
		}
	}
	return n
}

func jitter(rng *rand.Rand) float64 { return 0.5 + rng.Float64() }

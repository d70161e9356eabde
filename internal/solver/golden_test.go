package solver

import (
	"runtime"
	"testing"
)

// goldenColdFingerprints are buildPhase(...).m.Fingerprint() values recorded
// at the commit before cold build and patch came to share the fill functions
// (ISSUE 16). They are the oracle for every bound, RHS and warm-start value
// the fill functions derive that does not depend on the code under test: the
// patch ≡ cold property tests compare the shared derivations with
// themselves. Order: seeds 1, 2, 3 × {phase 1, phase 1 + shared buffer, rack
// level}. A deliberate model change re-records them (the failure message
// prints the new values): ISSUE 24 did so for the rack-level entries of seeds 1
// and 3, whose models gained rounding-cut rows (of seed 2's two count-based
// specs one has an integral α·C and the other was resized to zero, so it has
// none); the six region-level entries are as recorded.
var goldenColdFingerprints = [9]uint64{
	0xfef77c25127d2b47, 0x7a2a03bf2501c3ca, 0x416597293c9c6f4f,
	0xaec9a9ad40b628db, 0x230c861df26d3bab, 0x779a8f3431043ebf,
	0xa8335564191c4559, 0x42126ece2f64a7dd, 0x651fc9e60d439c3a,
}

// TestGoldenColdFingerprints builds the cold model for a fixture whose
// reservations cover DC affinity, SingleDC, count-based + EligibleTypes,
// per-reservation spread limits and θ, with wear-aware placement on and a
// mutated broker state (failures, wear, rebinding, a zero-RRU resize).
func TestGoldenColdFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints recorded on amd64; FMA fusing elsewhere changes float bits")
	}
	var got [9]uint64
	for seed := int64(1); seed <= 3; seed++ {
		region := testRegion(t, 2, 2, 4, 6, 60+seed)
		m := newMutator(t, region, seed, 12)
		for k := 0; k < 10; k++ {
			m.step(k == 5)
		}
		states, v := m.b.SnapshotAt()
		in := Input{Region: region, Reservations: m.st.All(), States: states, StatesVersion: v}
		pool := usableServers(in)
		for k, tc := range []struct {
			rackLevel bool
			buffer    float64
		}{{false, -1}, {false, 0.05}, {true, -1}} {
			cfg := fastCfg()
			cfg.SharedBufferFraction = tc.buffer
			cfg.WearPenalty = 2
			cfg = cfg.withDefaults(region)
			var stats PhaseStats
			bp := buildPhase(in, cfg, buildSpecs(in, cfg), pool, fixtureTargets(states, tc.rackLevel), tc.rackLevel, &stats)
			got[int(seed-1)*3+k] = bp.m.Fingerprint()
		}
	}
	if got != goldenColdFingerprints {
		t.Fatalf("cold model fingerprints changed:\n got  %#x\n want %#x", got, goldenColdFingerprints)
	}
}

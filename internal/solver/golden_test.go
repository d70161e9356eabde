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
// none); the six region-level entries are as recorded. When the objective
// offset left mip.Model, its term left the hash: all nine were re-derived from
// the model code before that change with only that term removed from
// Fingerprint, and the models built here reproduce them.
var goldenColdFingerprints = [9]uint64{
	0x8694e1abbf904507, 0x2fc3f1b7b0af01ea, 0x6193eb3f8fca104f,
	0xfc7a7891c9c0f73b, 0xcd6c4062ec72356b, 0x5189c06fbf4d3a7f,
	0x22be39e3a8692419, 0xf583ba963996113d, 0xe81de7cae163f89a,
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
		in := m.input()
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
			bp := buildPhase(in, cfg, buildSpecs(in, cfg), pool, fixtureTargets(in.States, tc.rackLevel), tc.rackLevel, &stats)
			got[int(seed-1)*3+k] = bp.m.Fingerprint()
		}
	}
	if got != goldenColdFingerprints {
		t.Fatalf("cold model fingerprints changed:\n got  %#x\n want %#x", got, goldenColdFingerprints)
	}
}
